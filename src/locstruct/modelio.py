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
        return SequenceWindows(seq_len=int(d["k"]), window_len=int(d["l"]))
    if kind == "vector_blocks":
        _check_keys(d, {"kind", "block_dim", "num_blocks"}, path)
        return VectorBlocks(block_dim=int(d["block_dim"]), num_blocks=int(d["num_blocks"]))
    if kind == "grid_patches":
        _check_keys(d, {"kind", "width", "height", "patch_w", "patch_h", "stride", "circular"},
                    path, optional={"circular"})
        return GridPatches(width=int(d["width"]), height=int(d["height"]),
                           patch_w=int(d["patch_w"]), patch_h=int(d["patch_h"]),
                           stride=int(d["stride"]), circular=bool(d.get("circular", False)))
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
        return GaussianParts(sigma=float(d["sigma"]))
    if kind == "restriction":
        _check_keys(d, {"kind", "base"}, path)
        return Restriction(base=kernel_from_json(d["base"], f"{path}.base"))
    if kind == "gaussian_global":
        _check_keys(d, {"kind", "sigma"}, path)
        return GaussianGlobal(sigma=float(d["sigma"]))
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
        pi = Weighted(probs=tuple(float(v) for v in d["probs"]))
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


def _get(d, key, path):
    if not isinstance(d, dict):
        raise ParseError(f"{path}: expected an object")
    if key not in d:
        raise ParseError(f"{path}.{key}: missing required key")
    return d[key]


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
    factorization determinism.
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
    kernel = kernel_from_json(doc["kernel"])
    scheme = scheme_from_json(doc["scheme"])
    inputs = [decode_value(v) for v in doc["inputs"]]
    aux = []
    for i, s in enumerate(doc["samples"]):
        _check_keys(s, {"chi", "p", "eta"}, path=f"samples[{i}]")
        aux.append(AuxiliarySample(chi_ref=int(s["chi"]), p=int(s["p"]),
                                   eta=decode_value(s["eta"])))
    return fit_alpha(inputs, aux, kernel, float(doc["lambda"]), scheme)
