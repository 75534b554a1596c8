"""Part schemes: decomposition of structured objects into indexed parts.

A part scheme fixes a finite index set {0, ..., num_parts - 1} together with
a selection operator ``x -> x_p``, a distance between part indices, and the
sampling distribution used to draw parts. Inputs and outputs of a prediction
problem share the same scheme, so the same object describes both sides.

Where each part sits is decided once per scheme (``index_map``), so a gather
from objects stacked by ``stack_objects`` is one ``take`` of columns (every
object with every part) or of flat positions (pairs of an object and a
part). A scatter back sums columns in layers: layer ``r`` of a cached plan
holds, per output coordinate, the column of its ``r``-th covering part, so
the sum is one ``take`` and one add per layer, not per part.
``extract_part`` is the scalar selection and ``part_values`` its batched
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np


class ShapeMismatchError(ValueError):
    """Raised when an object's dimensions do not match its part scheme."""


class PartIndexError(IndexError):
    """Raised for part identifiers outside 0..num_parts-1."""


class NonFiniteError(ValueError):
    """Raised when inputs, kernel values or anchor output parts are NaN or infinite."""


# ---------------------------------------------------------------------------
# Schemes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SequenceWindows:
    """Sliding windows of length ``window_len`` over sequences of length ``seq_len``.

    Parts are the ``seq_len - window_len + 1`` contiguous windows, indexed by
    their start position. Works on any sliceable sequence (str, list, 1-d array).
    """

    seq_len: int
    window_len: int

    def __post_init__(self):
        if not (1 <= self.window_len <= self.seq_len):
            raise ValueError(
                f"window_len must be in [1, seq_len], got {self.window_len} for seq_len {self.seq_len}"
            )

    @property
    def num_parts(self) -> int:
        return self.seq_len - self.window_len + 1

    @property
    def shape(self) -> tuple:
        return (self.seq_len,)

    @property
    def part_shape(self) -> tuple:
        return (self.window_len,)



@dataclass(frozen=True)
class VectorBlocks:
    """Contiguous equal-size blocks of a flat vector.

    A vector of dimension ``block_dim * num_blocks`` decomposes into
    ``num_blocks`` parts of dimension ``block_dim`` each.
    """

    block_dim: int
    num_blocks: int

    def __post_init__(self):
        if self.block_dim < 1 or self.num_blocks < 1:
            raise ValueError("block_dim and num_blocks must be positive")

    @property
    def num_parts(self) -> int:
        return self.num_blocks

    @property
    def total_dim(self) -> int:
        return self.block_dim * self.num_blocks

    @property
    def shape(self) -> tuple:
        return (self.total_dim,)

    @property
    def part_shape(self) -> tuple:
        return (self.block_dim,)



@dataclass(frozen=True)
class GridPatches:
    """Patches of a ``height x width`` grid, equispaced by ``stride``.

    Patch positions are linearized row-major, so part ``p`` sits at grid row
    ``p // n_cols`` and column ``p % n_cols`` of the position lattice. With
    ``circular=True`` patch coordinates wrap modulo the grid dimensions and the
    stride must divide both height and width; otherwise only fully contained
    patches are indexed. Arrays may carry leading channel axes; the trailing
    two axes must be ``(height, width)``.
    """

    width: int
    height: int
    patch_w: int
    patch_h: int
    stride: int
    circular: bool = False

    def __post_init__(self):
        if self.patch_w < 1 or self.patch_h < 1 or self.stride < 1:
            raise ValueError("patch dims and stride must be positive")
        if self.patch_w > self.width or self.patch_h > self.height:
            raise ValueError("patch cannot exceed grid dimensions")
        if self.circular and (self.width % self.stride or self.height % self.stride):
            raise ValueError("circular grids require the stride to divide width and height")

    @property
    def n_rows(self) -> int:
        if self.circular:
            return self.height // self.stride
        return (self.height - self.patch_h) // self.stride + 1

    @property
    def n_cols(self) -> int:
        if self.circular:
            return self.width // self.stride
        return (self.width - self.patch_w) // self.stride + 1

    @property
    def num_parts(self) -> int:
        return self.n_rows * self.n_cols

    @property
    def shape(self) -> tuple:
        return (self.height, self.width)

    @property
    def part_shape(self) -> tuple:
        return (self.patch_h, self.patch_w)


    def top_left(self, p: int) -> tuple[int, int]:
        pr, pc = divmod(p, self.n_cols)
        return pr * self.stride, pc * self.stride

    def center(self, p: int) -> tuple[float, float]:
        r0, c0 = self.top_left(p)
        return r0 + (self.patch_h - 1) / 2.0, c0 + (self.patch_w - 1) / 2.0

    def patch_rows_cols(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        """Row and column index arrays of patch ``p`` (wrapped if circular)."""
        r0, c0 = self.top_left(p)
        rows = r0 + np.arange(self.patch_h)
        cols = c0 + np.arange(self.patch_w)
        if self.circular:
            rows %= self.height
            cols %= self.width
        return rows, cols


PartScheme = Union[SequenceWindows, VectorBlocks, GridPatches]


def check_part(scheme: PartScheme, p: int) -> None:
    if not (0 <= int(p) < scheme.num_parts):
        raise PartIndexError(f"part {p} out of range for scheme with {scheme.num_parts} parts")


def check_parts(scheme: PartScheme, parts) -> np.ndarray:
    """``parts`` as an index array, range-checked like ``check_part``."""
    parts = np.asarray(parts, dtype=np.intp)
    for p in parts[(parts < 0) | (parts >= scheme.num_parts)][:1]:
        check_part(scheme, p)
    return parts


# ---------------------------------------------------------------------------
# Index map, stacking, gather and scatter
# ---------------------------------------------------------------------------

@lru_cache(maxsize=128)
def index_map(scheme: PartScheme, channels: int = 1) -> np.ndarray:
    """Flat positions of every part in an object with ``channels`` leading
    channels, shape (num_parts, channels * part size): row ``p`` is
    ``extract_part`` applied to the positions themselves. Computed once per
    (scheme, channels); read-only."""
    lead = (channels,) if channels > 1 else ()
    labels = np.arange(channels * math.prod(scheme.shape)).reshape(lead + scheme.shape)
    flat = np.stack([np.ravel(extract_part(labels, scheme, p)) for p in range(scheme.num_parts)])
    flat.setflags(write=False)
    return flat


def stack_objects(objs, scheme: PartScheme) -> np.ndarray:
    """Objects on ``scheme`` flattened into one (n, channels * size) array:
    character codes for strings, float64 otherwise. Shapes are checked as
    ``extract_part`` checks them (numeric sequences must be 1-d, and all
    grids must share their channel axes); a mismatch raises
    ``ShapeMismatchError`` and a NaN or infinite value ``NonFiniteError``."""
    if not isinstance(objs, np.ndarray):
        objs = list(objs)
    if len(objs) and isinstance(objs[0], str):
        k = scheme.seq_len if isinstance(scheme, SequenceWindows) else None
        for o in objs:
            if not isinstance(o, str) or len(o) != k:
                raise ShapeMismatchError(f"{o!r} is not a string of length {k} on {scheme}")
        return np.array(objs, dtype=f"U{k}").view(np.uint32).reshape(len(objs), k)
    try:
        X = np.asarray(objs, dtype=float)
    except ValueError as e:
        raise ShapeMismatchError(f"objects do not stack into one array ({e})") from None
    shape = X.shape[1:]
    lead = len(shape) - len(scheme.shape) if isinstance(scheme, GridPatches) else 0
    if lead < 0 or shape[lead:] != scheme.shape:
        raise ShapeMismatchError(f"objects of shape {shape} do not fit shape {scheme.shape}")
    if not np.isfinite(X).all():
        raise NonFiniteError("non-finite values in the inputs; check them for NaN or inf")
    return X.reshape(len(X), -1)


def gather_parts(X: np.ndarray, scheme: PartScheme, rows, parts) -> np.ndarray:
    """Flat parts of the objects stacked in ``X``.

    With ``rows=None``, every object with every part of ``parts``, shape
    (len(X), len(parts), width): one ``take`` of columns. Otherwise part
    ``parts[i]`` of object ``rows[i]``, for ``rows`` and ``parts``
    broadcast together, with the shape of the broadcast plus (width,): one
    ``take`` of flat positions. Rows index as ``X[rows]`` does, so one out
    of range raises ``IndexError``; a part out of range raises
    ``PartIndexError``."""
    J = index_map(scheme, X.shape[1] // math.prod(scheme.shape))[check_parts(scheme, parts)]
    if rows is None:
        return X.take(J.ravel(), axis=1).reshape((len(X),) + J.shape)
    flat = np.multiply(np.asarray(rows)[..., None], X.shape[1], dtype=np.intp)
    return X.ravel().take(flat + J)


def part_values(objs, scheme: PartScheme, rows, parts) -> list:
    """``[extract_part(objs[r], scheme, p) for r, p in zip(rows, parts)]``
    from one ``stack_objects`` and one ``gather_parts``.

    String objects give Python strings. Numeric objects give float64 arrays
    of ``extract_part``'s shape, the first object's channel axes included,
    as views of one array. Objects that do not stack raise the errors of
    ``stack_objects``, including a NaN in an object no pair selects.
    """
    X = stack_objects(objs, scheme)
    V = gather_parts(X, scheme, rows, parts)
    if X.dtype.kind == "u":
        l = V.shape[1]
        strs = V.view(f"U{l}").ravel().tolist()
        # numpy drops trailing NUL characters when it hands out a string
        return strs if V.all() else [s.ljust(l, "\0") for s in strs]
    lead = np.shape(objs[0])[: np.ndim(objs[0]) - len(scheme.shape)]
    return list(V.reshape(V.shape[:1] + lead + scheme.part_shape))


@lru_cache(maxsize=128)
def _scatter_plan(scheme: PartScheme, channels: int, parts: tuple) -> tuple[np.ndarray, bool]:
    """Where ``scatter_parts`` reads each output coordinate: an array of
    shape (layers, channels * size), and whether it reads the zero column.
    Layer ``r`` holds, per coordinate, the column of its ``r``-th covering
    part, counted in the order of ``parts``, among the ``len(parts) *
    width`` columns of the part values, or the zero column ``len(parts) *
    width`` past its last cover. Computed once per (scheme, channels,
    parts); read-only."""
    J = index_map(scheme, channels)[list(parts)]
    coords = J.ravel()
    counts = np.bincount(coords, minlength=channels * math.prod(scheme.shape))
    order = np.argsort(coords, kind="stable")  # each coordinate's covers in order of parts
    layer = np.arange(coords.size) - np.repeat(np.cumsum(counts) - counts, counts)
    plan = np.full((max(1, counts.max()), counts.size), coords.size)
    plan[layer, coords[order]] = order
    plan.setflags(write=False)
    return plan, bool(counts.min() < len(plan))


def scatter_parts(V: np.ndarray, scheme: PartScheme, parts) -> np.ndarray:
    """Sum flat part values ``V`` of shape (n, len(parts), width) into
    (n, channels * size) objects, the adjoint of ``gather_parts``.

    One column ``take`` per layer of the plan (``_scatter_plan``): the
    first plus 0.0, then each further layer added through one reused
    array. Every coordinate adds the values of its parts in the order of
    ``parts``, starting from +0.0, as a loop of one add per part would;
    that running sum is never -0.0 under round-to-nearest, so the +0.0 a
    coordinate adds past its last cover leaves it as it is."""
    n, k, width = V.shape
    channels = width // index_map(scheme).shape[1]
    plan, padded = _scatter_plan(scheme, channels, tuple(check_parts(scheme, parts).tolist()))
    src = V.reshape(n, k * width)
    if padded:  # some coordinate reads the zero column
        src = np.concatenate([src, np.zeros((n, 1))], axis=1)
    out = src.take(plan[0], axis=1)
    out += 0.0
    tmp = np.empty_like(out) if len(plan) > 1 else None
    for layer in plan[1:]:
        # the plan's columns are in range: "clip" skips the copy of ``out=`` that "raise" makes
        out += src.take(layer, axis=1, out=tmp, mode="clip")
    return out


# ---------------------------------------------------------------------------
# Selection and distance
# ---------------------------------------------------------------------------

def extract_part(x, scheme: PartScheme, p: int):
    """Return the sub-object ``x_p`` addressed by part index ``p``.

    Deterministic and read-only. Grid patches on circular schemes wrap
    out-of-range coordinates modulo the grid dimensions.
    """
    check_part(scheme, p)
    if isinstance(scheme, SequenceWindows):
        if len(x) != scheme.seq_len:
            raise ShapeMismatchError(f"sequence of length {len(x)} does not match seq_len {scheme.seq_len}")
        return x[p : p + scheme.window_len]
    if isinstance(scheme, VectorBlocks):
        x = np.asarray(x)
        if x.shape != (scheme.total_dim,):
            raise ShapeMismatchError(f"vector of shape {x.shape} does not match total dim {scheme.total_dim}")
        return x[p * scheme.block_dim : (p + 1) * scheme.block_dim]
    if isinstance(scheme, GridPatches):
        x = np.asarray(x)
        if x.ndim < 2 or x.shape[-2:] != (scheme.height, scheme.width):
            raise ShapeMismatchError(
                f"grid of shape {x.shape} does not match (height, width)=({scheme.height}, {scheme.width})"
            )
        rows, cols = scheme.patch_rows_cols(p)
        return x[..., rows[:, None], cols[None, :]]
    raise TypeError(f"unknown scheme {scheme!r}")


def part_distance(scheme: PartScheme, p: int, q: int) -> float:
    """Distance between two part indices.

    Line schemes (windows, blocks) use ``|p - q|``. Grid schemes use the
    Euclidean distance between patch centers, with per-axis wrap-around on
    circular grids. Symmetric, and zero iff ``p == q``.
    """
    check_part(scheme, p)
    check_part(scheme, q)
    if isinstance(scheme, (SequenceWindows, VectorBlocks)):
        return float(abs(int(p) - int(q)))
    if isinstance(scheme, GridPatches):
        r1, c1 = scheme.center(p)
        r2, c2 = scheme.center(q)
        dr = abs(r1 - r2)
        dc = abs(c1 - c2)
        if scheme.circular:
            dr = min(dr, scheme.height - dr)
            dc = min(dc, scheme.width - dc)
        return math.hypot(dr, dc)
    raise TypeError(f"unknown scheme {scheme!r}")


def cover_counts(scheme: PartScheme) -> np.ndarray:
    """How many parts cover each coordinate of an object under this scheme."""
    counts = np.bincount(index_map(scheme).ravel(), minlength=math.prod(scheme.shape))
    return counts.reshape(scheme.shape)


# ---------------------------------------------------------------------------
# Part distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Uniform:
    """Uniform distribution over the parts of a scheme."""

    num_parts: int

    def __post_init__(self):
        if self.num_parts < 1:
            raise ValueError("num_parts must be positive")

    def probabilities(self) -> np.ndarray:
        return np.full(self.num_parts, 1.0 / self.num_parts)


@dataclass(frozen=True)
class Weighted:
    """Explicit probability vector over parts."""

    probs: tuple

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probs must be a non-empty vector")
        if not np.all(p >= 0):  # NaN fails too
            raise ValueError(f"probabilities must be nonnegative numbers, got {self.probs!r}")
        if not abs(p.sum() - 1.0) <= 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {p.sum()!r}")
        object.__setattr__(self, "probs", tuple(float(v) for v in p))

    @property
    def num_parts(self) -> int:
        return len(self.probs)

    def probabilities(self) -> np.ndarray:
        return np.asarray(self.probs)


PartDistribution = Union[Uniform, Weighted]


def uniform_for(scheme: PartScheme) -> Uniform:
    return Uniform(scheme.num_parts)


def part_weights(pi, num_parts: int) -> np.ndarray:
    """Weight vector of a part distribution, or a raw (possibly unnormalized)
    weight array of the right length, refused unless every entry is
    nonnegative and finite."""
    if isinstance(pi, (Uniform, Weighted)):
        if pi.num_parts != num_parts:
            raise ShapeMismatchError(
                f"distribution over {pi.num_parts} parts used with a {num_parts}-part scheme"
            )
        return pi.probabilities()
    w = np.asarray(pi, dtype=float)
    if w.shape != (num_parts,):
        raise ShapeMismatchError(f"weight vector of shape {w.shape}, expected ({num_parts},)")
    if not np.all((w >= 0) & (w < np.inf)):  # NaN fails too
        raise ValueError(f"part weights must be nonnegative and finite, got {w.tolist()!r}")
    return w


def part_cdf(dist: PartDistribution) -> np.ndarray:
    """Cumulative part probabilities scaled to end at exactly 1.

    ``cdf.searchsorted(u, side="right")`` for one ``u = rng.random()`` is
    the part that ``rng.choice(len(p), p=p)`` draws: it builds the same
    array and takes one ``random()`` from the stream. Its per-call checks
    of ``p`` are not needed, because ``Uniform`` and ``Weighted`` validate
    at construction; parts of probability zero are never drawn.
    """
    cdf = dist.probabilities().cumsum()
    cdf /= cdf[-1]
    return cdf


def sample_part(dist: PartDistribution, rng: np.random.Generator) -> int:
    """Draw a part index ``p`` with probability ``dist(p)``, using one
    ``rng.random()``.

    Reproducible given the generator state; the caller owns the stream.
    """
    return int(part_cdf(dist).searchsorted(rng.random(), side="right"))
