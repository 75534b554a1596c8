"""Persistence and the strict reader: JSON-lines datasets, model documents,
the JSON codecs for schemes and kernels, and ``_read``, the one reader of
every config and model stanza: a field table (key -> reader) per object, a
``_Kinds`` table per family of tagged stanzas (part distributions included).

Structured values travel as JSON strings (sequences) or nested float lists
(arrays); floats serialize through ``repr`` so round-trips are exact. One
reader, ``_read_value``, takes them back from datasets and model documents. Model
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
    _check_bandwidth,
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
from .training import AlphaModel, AuxiliarySample, _check_lambda, fit_alpha

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


# ---------------------------------------------------------------------------
# The strict reader: every config and model stanza is read through _read
# ---------------------------------------------------------------------------

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


def _check_shifts(grid, m: int, path: str) -> None:
    """Refuse, as a ``ParseError`` at ``path``, a lambda of ``grid`` that is
    not positive or whose shift ``m * lambda`` overflows, m the largest
    system the command fits."""
    with _at(path):
        for lam in grid:
            _check_lambda(lam, m)


class _Kinds(dict):
    """A family's table of kinds for ``_tagged``: kind -> ``(constructor,
    fields)`` or ``(constructor, fields, optional keys)``, with ``fields`` a
    field table; a stanza names its kind under the key ``tag``."""

    def __init__(self, entries, tag="kind"):
        super().__init__(entries)
        self.tag = tag


def _read(doc, path, fields, optional=frozenset()) -> dict:
    """The keys of object ``doc`` read by the table ``fields``, key -> reader,
    refusing unknown keys and missing ones not in ``optional``. A reader is a
    ``_Kinds`` table or a value -> value function raising ``ValueError``,
    run inside ``_at`` so that its error names the key path ``path.key``."""
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected an object")
    unknown = doc.keys() - fields.keys()
    if unknown:
        raise ParseError(f"{path}: unknown keys {sorted(unknown)}")
    missing = fields.keys() - optional - doc.keys()
    if missing:
        raise ParseError(f"{path}: missing keys {sorted(missing)}")
    out = {}
    for key, read in fields.items():
        if key in doc:
            at = f"{path}.{key}"
            if isinstance(read, _Kinds):
                out[key] = _tagged(doc[key], at, read)
            else:
                with _at(at):
                    out[key] = read(doc[key])
    return out


def _tagged(doc, path, kinds: _Kinds):
    """The entry of ``kinds`` named by ``doc[kinds.tag]``, its constructor
    called inside ``_at(path)`` on the other keys of ``doc`` read by its
    fields; an unknown kind is refused with the accepted ones listed."""
    tag = kinds.tag
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected an object")
    if tag not in doc:
        raise ParseError(f"{path}.{tag}: missing required key")
    kind = doc[tag]
    if not isinstance(kind, str) or kind not in kinds:
        raise ParseError(f"{path}.{tag}: unknown {tag} {kind!r}, expected one of {list(kinds)}")
    make, fields, *optional = kinds[kind]
    args = _read(doc, path, {tag: _string, **fields}, *optional)
    del args[tag]
    with _at(path):
        return make(**args)


def _is_integer(v) -> bool:
    """The one rule for counts and indices: a JSON integer as written. A
    float, string or boolean is refused, never converted."""
    return isinstance(v, int) and not isinstance(v, bool)


def _at_least(low: int):
    """A reader of a JSON integer that is at least ``low``."""
    def read(v) -> int:
        if not _is_integer(v) or v < low:
            raise ValueError(f"expected an integer >= {low}, got {v!r}")
        return v
    return read


_count, _seed = _at_least(1), _at_least(0)


def _real(v) -> float:
    """A real value as written: a finite JSON number. A boolean, string,
    NaN or infinity is refused, never converted."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"expected a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {v!r}")
    return x


def _bandwidth(v) -> float:
    """A Gaussian ``sigma``: a ``_real`` that the kernels' own check accepts."""
    x = _real(v)
    _check_bandwidth(x)
    return x


def _reals(v) -> tuple:
    """A JSON list of ``_real`` values, as a tuple."""
    if not isinstance(v, list):
        raise ValueError(f"expected a list of numbers, got {v!r}")
    return tuple(_real(x) for x in v)


def _bool(v) -> bool:
    """A flag as written: a JSON boolean."""
    if not isinstance(v, bool):
        raise ValueError(f"expected true or false, got {v!r}")
    return v


def _string(v) -> str:
    """A JSON string, such as a file path."""
    if not isinstance(v, str):
        raise ValueError(f"expected a string, got {v!r}")
    return v


# ---------------------------------------------------------------------------
# Schemes, kernels and part distributions
# ---------------------------------------------------------------------------

_SCHEMES = _Kinds({
    "sequence_windows": (lambda k, l: SequenceWindows(seq_len=k, window_len=l),
                         {"k": _count, "l": _count}),
    "vector_blocks": (VectorBlocks, {"block_dim": _count, "num_blocks": _count}),
    "grid_patches": (GridPatches, {"width": _count, "height": _count, "patch_w": _count,
                                   "patch_h": _count, "stride": _count, "circular": _bool},
                     {"circular"}),
})
_PART_KERNELS = _Kinds({"linear": (LinearParts, {}),
                        "gaussian": (GaussianParts, {"sigma": _bandwidth})})
_PAIR_KERNELS = _Kinds({"restriction": (Restriction, {"base": _PART_KERNELS}),
                       "gaussian_global": (GaussianGlobal, {"sigma": _bandwidth})})
_PAIR_KERNELS["sum"] = (SumKernel, {"universal": _PAIR_KERNELS, "local": _PAIR_KERNELS})
_KERNELS = _Kinds({**_PART_KERNELS, **_PAIR_KERNELS})
# a uniform distribution reads as None: its part count is the scheme's
_PART_DISTRIBUTIONS = _Kinds({"uniform": (lambda: None, {}),
                             "weighted": (Weighted, {"probs": _reals})})


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
    return _tagged(d, path, _SCHEMES)


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
    """A part kernel or a pair kernel."""
    return _tagged(d, path, _KERNELS)


def _pi_over(pi, num_parts: int, path: str):
    """``pi``, read from a ``_PART_DISTRIBUTIONS`` stanza at ``path``, over
    ``num_parts`` parts: None is uniform, and a weighted one must give one
    probability per part."""
    pi = Uniform(num_parts) if pi is None else pi
    if pi.num_parts != num_parts:
        raise ParseError(f"{path}.probs: {pi.num_parts} probabilities for {num_parts} parts")
    return pi


# ---------------------------------------------------------------------------
# Datasets (JSON lines, one {"x": ..., "y": ...} object per line)
# ---------------------------------------------------------------------------

def read_dataset(path, require_y: bool = True) -> list[tuple]:
    """Read a JSON-lines dataset into (x, y) pairs; y may be None when
    ``require_y`` is False and absent.

    Fails at the offending ``path:line``: ``ParseError`` for malformed
    records (a boolean, ``null`` or string among numbers included),
    ``NonFiniteError`` for NaN, infinite or out-of-range numbers, and
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


_NUMBERS = {int, float}  # the types of a JSON number; a boolean is not one


def _read_value(v, where: str):
    """The one reader of a structured value, a dataset's ``x`` or ``y`` and
    a model file's ``inputs`` or sample ``eta``: a JSON string as written,
    or a JSON number or regular nested array of numbers as a float array.
    Refused, with a message that starts with ``where``: a boolean, ``null``,
    string or object in an array (``ParseError``), a ragged array
    (``ShapeMismatchError``), and a NaN, infinite or out-of-range number
    (``NonFiniteError``). The element types are read in one pass of
    ``map`` over an object array, so an accepted value costs no Python loop
    over its numbers."""
    if isinstance(v, str):
        return v
    a = np.asarray(v, dtype=object)
    if not set(map(type, a.ravel())) <= _NUMBERS:
        if _numbers_only(v):
            raise ShapeMismatchError(f"{where} is a ragged array")
        raise ParseError(f"{where} must be a string or an array of numbers")
    try:
        a = a.astype(float)
    except OverflowError:  # an integer beyond the float range
        raise NonFiniteError(f"{where} holds a number beyond the float range") from None
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{where} holds a NaN or infinite value")
    return a


def _numbers_only(v) -> bool:
    if isinstance(v, list):
        return all(_numbers_only(e) for e in v)
    return type(v) in _NUMBERS


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


def _list(v) -> list:
    """A non-empty JSON list."""
    if not (isinstance(v, list) and v):
        raise ValueError(f"expected a non-empty list, got {v!r}")
    return v


def _is_index(v, n: int) -> bool:
    return _is_integer(v) and 0 <= v < n


def _index(n: int):
    """A reader of an index into ``n`` entries."""
    def read(v) -> int:
        if not _is_index(v, n):
            raise ValueError(f"expected an integer in [0, {n})")
        return v
    return read


_MODEL = {"format": _string, "version": _count, "kernel": _PAIR_KERNELS, "lambda": _real,
          "scheme": _SCHEMES, "inputs": _list, "samples": _list}


def load_model(path) -> AlphaModel:
    """Load a model document and rebuild its factorization.

    The factorization is not persisted; it is recomputed from the stored
    anchors, so a loaded model reproduces the original's weights up to
    factorization determinism. A bad kernel, scheme, sample or ``lambda``
    value is a ``ParseError`` naming its key, raised before the refit, as is
    a ``lambda`` whose shift ``m * lambda`` overflows for the m samples. An
    input or ``eta`` is read as a dataset value is (``_read_value``), and
    its error names its key. A version this build cannot read is an
    ``UnsupportedVersionError``.
    """
    doc = read_json(path)
    if doc.get("format") != MODEL_FORMAT:
        raise ParseError(f"{path}: not a {MODEL_FORMAT} document")
    if doc.get("version") != MODEL_VERSION:
        raise UnsupportedVersionError(
            f"{path}: version {doc.get('version')!r} unsupported (expected {MODEL_VERSION})"
        )
    root = f"{path}: model"
    f = _read(doc, root, _MODEL)
    scheme, samples = f["scheme"], f["samples"]
    inputs = [_read_value(x, f"{root}.inputs[{i}]") for i, x in enumerate(f["inputs"])]
    n, parts = len(inputs), scheme.num_parts
    sample = {"chi": _index(n), "p": _index(parts), "eta": lambda v: v}  # eta is read below
    # the table is checked in bulk; a per-sample read names the first bad sample
    if not all(isinstance(s, dict) and s.keys() == sample.keys() and _is_index(s["chi"], n)
               and _is_index(s["p"], parts) for s in samples):
        for i, s in enumerate(samples):
            _read(s, f"{root}.samples[{i}]", sample)
    aux = [AuxiliarySample(s["chi"], s["p"], _read_value(s["eta"], f"{root}.samples[{i}].eta"))
           for i, s in enumerate(samples)]
    _check_shifts([f["lambda"]], len(aux), f"{root}.lambda")
    return fit_alpha(inputs, aux, f["kernel"], f["lambda"], scheme)
