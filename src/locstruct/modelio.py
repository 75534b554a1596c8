"""Persistence: JSON-lines datasets, model documents, the JSON codecs for
schemes, kernels, and part distributions, and the strict-JSON layer (one
reader, one key checker, ``ParseError``) that command configs share.

Structured values travel as JSON strings (sequences) or nested float lists
(arrays); floats serialize through ``repr`` so round-trips are exact. Model
documents store everything needed to rebuild the estimator except the
factorization, which is recomputed deterministically on load.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .kernels import (
    GaussianGlobal,
    GaussianParts,
    KernelSpec,
    LinearParts,
    Restriction,
    SumKernel,
)
from .parts import (
    GridPatches,
    NonFiniteError,
    SequenceWindows,
    ShapeMismatchError,
    Uniform,
    VectorBlocks,
    Weighted,
)
from .training import AlphaModel, AuxiliarySample, fit_alpha

MODEL_FORMAT = "locstruct-model"
MODEL_VERSION = 1


class ParseError(ValueError):
    """Malformed file content; the message carries a position when known."""


class UnsupportedVersionError(ValueError):
    """A persisted document declares a version this build cannot read."""


# ---------------------------------------------------------------------------
# Value codecs
# ---------------------------------------------------------------------------

def encode_value(v):
    if isinstance(v, str):
        return v
    a = np.asarray(v, dtype=float)
    return a.tolist()


def decode_value(v):
    if isinstance(v, str):
        return v
    return np.asarray(v, dtype=float)


def scheme_to_json(scheme) -> dict:
    if isinstance(scheme, SequenceWindows):
        return {"kind": "sequence_windows", "k": scheme.seq_len, "l": scheme.window_len}
    if isinstance(scheme, VectorBlocks):
        return {"kind": "vector_blocks", "block_dim": scheme.block_dim,
                "num_blocks": scheme.num_blocks}
    if isinstance(scheme, GridPatches):
        return {"kind": "grid_patches", "width": scheme.width, "height": scheme.height,
                "patch_w": scheme.patch_w, "patch_h": scheme.patch_h,
                "stride": scheme.stride, "circular": scheme.circular}
    raise TypeError(f"unknown scheme {scheme!r}")


def scheme_from_json(d: dict, path="scheme"):
    kind = _get(d, "kind", path)
    if kind == "sequence_windows":
        _check_keys(d, {"kind", "k", "l"}, path)
        return SequenceWindows(seq_len=_int(d, "k", path), window_len=_int(d, "l", path))
    if kind == "vector_blocks":
        _check_keys(d, {"kind", "block_dim", "num_blocks"}, path)
        return VectorBlocks(block_dim=_int(d, "block_dim", path),
                            num_blocks=_int(d, "num_blocks", path))
    if kind == "grid_patches":
        _check_keys(d, {"kind", "width", "height", "patch_w", "patch_h", "stride", "circular"},
                    path, optional={"circular"})
        size = {k: _int(d, k, path) for k in ("width", "height", "patch_w", "patch_h", "stride")}
        return GridPatches(**size, circular=_flag(d, "circular", path, False))
    raise ParseError(f"{path}.kind: unknown scheme kind {kind!r}")


def kernel_to_json(spec: KernelSpec) -> dict:
    if isinstance(spec, LinearParts):
        return {"kind": "linear"}
    if isinstance(spec, GaussianParts):
        return {"kind": "gaussian", "sigma": spec.sigma}
    if isinstance(spec, Restriction):
        return {"kind": "restriction", "base": kernel_to_json(spec.base)}
    if isinstance(spec, GaussianGlobal):
        return {"kind": "gaussian_global", "sigma": spec.sigma}
    if isinstance(spec, SumKernel):
        return {"kind": "sum", "universal": kernel_to_json(spec.universal),
                "local": kernel_to_json(spec.local)}
    raise TypeError(f"unknown kernel {spec!r}")


def kernel_from_json(d: dict, path="kernel"):
    kind = _get(d, "kind", path)
    if kind == "linear":
        _check_keys(d, {"kind"}, path)
        return LinearParts()
    if kind == "gaussian":
        _check_keys(d, {"kind", "sigma"}, path)
        with _at(f"{path}.sigma"):
            return GaussianParts(sigma=_real(d["sigma"]))
    if kind == "restriction":
        _check_keys(d, {"kind", "base"}, path)
        return Restriction(base=kernel_from_json(d["base"], f"{path}.base"))
    if kind == "gaussian_global":
        _check_keys(d, {"kind", "sigma"}, path)
        with _at(f"{path}.sigma"):
            return GaussianGlobal(sigma=_real(d["sigma"]))
    if kind == "sum":
        _check_keys(d, {"kind", "universal", "local"}, path)
        return SumKernel(universal=kernel_from_json(d["universal"], f"{path}.universal"),
                         local=kernel_from_json(d["local"], f"{path}.local"))
    raise ParseError(f"{path}.kind: unknown kernel kind {kind!r}")


def pi_to_json(pi) -> dict:
    if isinstance(pi, Uniform):
        return {"kind": "uniform"}
    if isinstance(pi, Weighted):
        return {"kind": "weighted", "probs": list(pi.probs)}
    raise TypeError(f"unknown part distribution {pi!r}")


def pi_from_json(d: dict, num_parts, path="pi"):
    """Part distribution over ``num_parts`` parts. With ``num_parts`` None,
    when the part count is not known yet, a uniform one reads as None."""
    kind = _get(d, "kind", path)
    if kind == "uniform":
        _check_keys(d, {"kind"}, path)
        return None if num_parts is None else Uniform(num_parts)
    if kind == "weighted":
        _check_keys(d, {"kind", "probs"}, path)
        with _at(f"{path}.probs"):
            pi = Weighted(probs=_reals(d["probs"]))
        if num_parts is not None and pi.num_parts != num_parts:
            raise ParseError(f"{path}.probs: {pi.num_parts} probabilities for {num_parts} parts")
        return pi
    raise ParseError(f"{path}.kind: unknown part distribution kind {kind!r}")


def read_json(path) -> dict:
    """The JSON object in file ``path``, the one reader of configs and
    model documents; invalid JSON or another JSON value is a ``ParseError``."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}: invalid JSON ({e.msg})") from e
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return doc


@contextmanager
def _at(path: str):
    """Re-raise a ``ValueError`` or ``TypeError`` from building a value of a
    config or model document as a ``ParseError`` naming the key ``path``.
    Every conversion and constructor call on such values runs inside one."""
    try:
        yield
    except ParseError:
        raise
    except (TypeError, ValueError) as e:
        raise ParseError(f"{path}: {e}") from None


def _get(d, key, path):
    if not isinstance(d, dict):
        raise ParseError(f"{path}: expected an object")
    if key not in d:
        raise ParseError(f"{path}.{key}: missing required key")
    return d[key]


def _is_integer(v) -> bool:
    """The one rule for counts and indices: a JSON integer as written. A
    float, string or boolean is refused, never converted."""
    return isinstance(v, int) and not isinstance(v, bool)


def _integer(v) -> int:
    """``v`` if ``_is_integer``, else a ``ValueError``; read it inside
    ``_at``, which names the key."""
    if not _is_integer(v):
        raise ValueError(f"expected an integer, got {v!r}")
    return v


def _int(d, key, path, low=1):
    """``d[key]`` if ``_is_integer`` and at least ``low``."""
    v = d[key]
    if not _is_integer(v) or v < low:
        raise ParseError(f"{path}.{key}: expected an integer >= {low}, got {v!r}")
    return v


def _real(v) -> float:
    """A real value as written: a finite JSON number. A boolean, string,
    NaN or infinity is refused with a ``ValueError``, never converted; read
    it inside ``_at``, which names the key."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"expected a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {v!r}")
    return x


def _lambda(d, path) -> float:
    """``d["lambda"]``, a ``_real`` that must be positive; ``path`` names it."""
    with _at(path):
        lam = _real(d["lambda"])
    if not lam > 0:
        raise ParseError(f"{path}: must be positive")
    return lam


def _reals(v) -> tuple:
    """A JSON list of ``_real`` values, as a tuple."""
    if not isinstance(v, list):
        raise ValueError(f"expected a list of numbers, got {v!r}")
    return tuple(_real(x) for x in v)


def _flag(d, key, path, default: bool) -> bool:
    """``d[key]`` as written, ``default`` when absent: a JSON boolean."""
    v = d.get(key, default)
    if not isinstance(v, bool):
        raise ParseError(f"{path}.{key}: expected true or false, got {v!r}")
    return v


def _check_keys(d, allowed, path, optional=frozenset()):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ParseError(f"{path}: unknown keys {sorted(unknown)}")
    missing = set(allowed) - set(optional) - set(d)
    if missing:
        raise ParseError(f"{path}: missing keys {sorted(missing)}")


# ---------------------------------------------------------------------------
# Datasets (JSON lines, one {"x": ..., "y": ...} object per line)
# ---------------------------------------------------------------------------

def read_dataset(path, require_y: bool = True) -> list[tuple]:
    """Read a JSON-lines dataset into (x, y) pairs; y may be None when
    ``require_y`` is False and absent.

    Fails at the offending ``path:line``: ``ParseError`` for malformed
    records, ``NonFiniteError`` for NaN or infinite numbers, and
    ``ShapeMismatchError`` for a ragged array or an ``x`` or ``y`` whose
    shape differs from the first record's (a string's shape is its length)."""
    records = []
    forms = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(f"{where}: invalid JSON ({e.msg})") from e
            if not isinstance(obj, dict) or "x" not in obj:
                raise ParseError(f"{where}: expected an object with an 'x' key")
            extra = set(obj) - {"x", "y"}
            if extra:
                raise ParseError(f"{where}: unknown keys {sorted(extra)}")
            if require_y and "y" not in obj:
                raise ParseError(f"{where}: missing 'y'")
            for key in ("x", "y") if "y" in obj else ("x",):
                obj[key] = _read_value(obj[key], f"{where}: '{key}'")
                form = _form(obj[key])
                first = forms.setdefault(key, form)
                if form != first:
                    raise ShapeMismatchError(f"{where}: '{key}' has shape {form}, "
                                             f"the first record's has {first}")
            records.append((obj["x"], obj.get("y")))
    if not records:
        raise ParseError(f"{path}: dataset is empty")
    return records


def _read_value(v, where: str):
    """``decode_value`` of one dataset field, refused with a typed error."""
    if isinstance(v, str):
        return v
    try:
        a = np.asarray(v, dtype=float)
    except (TypeError, ValueError):
        if _numbers_only(v):
            raise ShapeMismatchError(f"{where} is a ragged array") from None
        raise ParseError(f"{where} must be a string or an array of numbers") from None
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{where} holds a NaN or infinite value")
    return a


def _numbers_only(v) -> bool:
    if isinstance(v, list):
        return all(_numbers_only(e) for e in v)
    return isinstance(v, (int, float))


def _form(v) -> tuple:
    """The shape of a decoded value; a string's is ``(len,)``."""
    return (len(v),) if isinstance(v, str) else v.shape


def write_dataset(path, pairs) -> None:
    with open(path, "w") as fh:
        for x, y in pairs:
            fh.write(json.dumps({"x": encode_value(x), "y": encode_value(y)}) + "\n")


# ---------------------------------------------------------------------------
# Model documents
# ---------------------------------------------------------------------------

def save_model(model: AlphaModel, path) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "kernel": kernel_to_json(model.kernel),
        "lambda": model.lam,
        "scheme": scheme_to_json(model.scheme),
        "inputs": [encode_value(x) for x in model.inputs],
        "samples": [
            {"chi": s.chi_ref, "p": s.p, "eta": encode_value(s.eta)} for s in model.aux
        ],
    }
    Path(path).write_text(json.dumps(doc))


def load_model(path) -> AlphaModel:
    """Load a model document and rebuild its factorization.

    The factorization is not persisted; it is recomputed from the stored
    anchors, so a loaded model reproduces the original's weights up to
    factorization determinism. A bad kernel, scheme, input, sample or
    ``lambda`` value is a ``ParseError`` naming its key, raised before the
    refit; a version this build cannot read is an ``UnsupportedVersionError``.
    """
    doc = read_json(path)
    if doc.get("format") != MODEL_FORMAT:
        raise ParseError(f"{path}: not a {MODEL_FORMAT} document")
    if doc.get("version") != MODEL_VERSION:
        raise UnsupportedVersionError(
            f"{path}: version {doc.get('version')!r} unsupported (expected {MODEL_VERSION})"
        )
    _check_keys(doc, {"format", "version", "kernel", "lambda", "scheme", "inputs", "samples"},
                path=str(path))
    where = f"{path}: "
    with _at(f"{where}kernel"):
        kernel = kernel_from_json(doc["kernel"], f"{where}kernel")
    if not isinstance(kernel, KernelSpec):
        raise ParseError(f"{where}kernel: expected a restriction, gaussian_global or sum kernel")
    with _at(f"{where}scheme"):
        scheme = scheme_from_json(doc["scheme"], f"{where}scheme")
    lam = _lambda(doc, f"{where}lambda")
    with _at(f"{where}inputs"):
        inputs = [decode_value(v) for v in doc["inputs"]]
    samples = doc["samples"]
    if not (isinstance(samples, list) and samples and all(isinstance(s, dict) for s in samples)):
        raise ParseError(f"{where}samples: expected a non-empty list of objects")
    for i, s in enumerate(samples):
        key = f"{where}samples[{i}]"
        _check_keys(s, {"chi", "p", "eta"}, path=key)
        for name, bound in (("chi", len(inputs)), ("p", scheme.num_parts)):
            v = s[name]
            if not _is_integer(v) or not 0 <= v < bound:
                raise ParseError(f"{key}.{name}: expected an integer in [0, {bound})")
    with _at(f"{where}samples"):
        aux = [AuxiliarySample(s["chi"], s["p"], decode_value(s["eta"])) for s in samples]
    return fit_alpha(inputs, aux, kernel, lam, scheme)
