"""Kernels on parts and on (input, part) pairs, plus Gram assembly.

Two layers:

* part kernels compare two extracted parts (``LinearParts``, ``GaussianParts``);
* pair kernels compare two ``(input, part index)`` pairs. The restriction
  kernel evaluates a part kernel on the two extracted parts only, the global
  Gaussian compares whole inputs gated by a part-index match, and ``SumKernel``
  adds a universal and a local component.

String parts are compared through their implicit one-hot encoding, so the
linear kernel counts matching positions and the squared distance inside the
Gaussian is twice the number of mismatches. Gram, cross and prepared-anchor
matrices all come from ``_matrix``, vectorized over the stacked parts or
inputs of ``parts.stack_objects``; strings stack as character codes and are
compared by match counts, position by position. The Gaussian is worked in
place in the matrix of inner products (``part_kernel_matrix``): one array of
the matrix's size plus one temporary, the sum of the two norm vectors.
``kernel_eval`` is the scalar form.

``PreparedAnchors.cross`` takes a shorter road for a Gaussian restriction
kernel on numeric parts. One matrix product of the anchor half ``[2a,
-|a|^2, 1]``, built once, with the query half ``[b, 1, -|b|^2]`` writes
minus the squared distances, which are clamped at 0, divided by ``2
sigma^2`` and exponentiated in place: no temporary, and no array beside the
result. On parts whose sums are exact this is the arithmetic of
``part_kernel_matrix``, bit for bit. The Gram, which the factor needs
exactly symmetric, ``cross_matrix`` and the covariance maps keep
``part_kernel_matrix``.

Anchors drawn with replacement repeat, and a restriction kernel sees only
the extracted part, so ``PreparedAnchors`` evaluates it once per distinct
anchor part: its ``cross`` and ``gram`` have one row per distinct part,
``index`` maps each anchor to its row and ``counts`` counts the anchors on
each row. It has one constructor, over inputs stacked once and each
anchor's input row and part; ``gram_matrix`` and ``cross_matrix`` stack
their ``(x, p)`` pairs through it. ``gram_matrix`` expands the u x u matrix
over the distinct parts into the m x m one with a gather of its columns and
one of its rows; no fit needs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .parts import (
    PartScheme,
    ShapeMismatchError,
    check_parts,
    extract_part,
    gather_parts,
    stack_objects,
)


# ---------------------------------------------------------------------------
# Part kernels
# ---------------------------------------------------------------------------

def _check_bandwidth(sigma: float) -> None:
    """Refuse a Gaussian bandwidth that is not positive, or whose ``2 *
    sigma**2``, the kernel's divisor, overflows or underflows to zero."""
    if not sigma > 0:
        raise ValueError("bandwidth must be strictly positive")
    if not 0 < 2.0 * sigma * sigma < np.inf:
        raise ValueError(f"bandwidth {sigma!r} is out of range: 2 sigma^2 is not a positive float")


@dataclass(frozen=True)
class LinearParts:
    """Inner product between two parts."""


@dataclass(frozen=True)
class GaussianParts:
    """Gaussian kernel exp(-||a - b||^2 / (2 sigma^2)) between two parts."""

    sigma: float = 1.0

    def __post_init__(self):
        _check_bandwidth(self.sigma)


PartKernel = Union[LinearParts, GaussianParts]


def _part_terms(a, b) -> tuple[float, float]:
    """Inner product and squared distance of two parts."""
    if isinstance(a, str) or isinstance(b, str):
        if len(a) != len(b):
            raise ShapeMismatchError(f"parts of lengths {len(a)} and {len(b)}")
        same = sum(ca == cb for ca, cb in zip(a, b))
        return float(same), 2.0 * (len(a) - same)
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ShapeMismatchError(f"parts of shapes {a.shape} and {b.shape}")
    d = a - b
    return float(np.dot(a, b)), float(np.dot(d, d))


def part_kernel_eval(kernel: PartKernel, a, b) -> float:
    """Evaluate a part kernel on two part objects."""
    if isinstance(kernel, LinearParts):
        return _part_terms(a, b)[0]
    if isinstance(kernel, GaussianParts):
        return float(np.exp(-_part_terms(a, b)[1] / (2.0 * kernel.sigma**2)))
    raise TypeError(f"unknown part kernel {kernel!r}")


# ---------------------------------------------------------------------------
# Pair kernels on (input, part index)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Restriction:
    """Kernel on pairs that depends on the two extracted parts only:
    k((x, p), (x', q)) = base(x_p, x'_q)."""

    base: PartKernel

    def __post_init__(self):
        if not isinstance(self.base, PartKernel):
            raise TypeError(f"a restriction needs a part kernel base, got {self.base!r}")


@dataclass(frozen=True)
class GaussianGlobal:
    """Whole-input Gaussian gated by a part-index match:
    k((x, p), (x', q)) = exp(-||x - x'||^2 / (2 sigma^2)) * [p == q]."""

    sigma: float = 1.0

    def __post_init__(self):
        _check_bandwidth(self.sigma)


@dataclass(frozen=True)
class SumKernel:
    """Sum of a universal and a local pair kernel."""

    universal: "KernelSpec"
    local: "KernelSpec"

    def __post_init__(self):
        if not (isinstance(self.universal, KernelSpec) and isinstance(self.local, KernelSpec)):
            raise TypeError(f"a sum kernel adds two pair kernels, got {self!r}")


KernelSpec = Union[Restriction, GaussianGlobal, SumKernel]


def kernel_eval(spec: KernelSpec, a: tuple, b: tuple, scheme: PartScheme) -> float:
    """Evaluate a pair kernel at ``a = (x, p)`` and ``b = (x', q)``."""
    if isinstance(spec, Restriction):
        (x, p), (y, q) = a, b
        return part_kernel_eval(spec.base, extract_part(x, scheme, p), extract_part(y, scheme, q))
    if isinstance(spec, GaussianGlobal):
        (x, p), (y, q) = a, b
        if int(p) != int(q):
            return 0.0
        return float(np.exp(-_part_terms(x, y)[1] / (2.0 * spec.sigma**2)))
    if isinstance(spec, SumKernel):
        return kernel_eval(spec.universal, a, b, scheme) + kernel_eval(spec.local, a, b, scheme)
    raise TypeError(f"unknown kernel spec {spec!r}")


def has_feature_map(spec: KernelSpec) -> bool:
    """True when the pair kernel is the inner product of the two extracted
    parts, so that over fixed-shape numeric parts ``K = F F^T`` with ``F``
    the stacked parts."""
    return isinstance(spec, Restriction) and isinstance(spec.base, LinearParts)


def kernel_sup(spec: KernelSpec):
    """sup over pairs of k(a, a), or None when unbounded."""
    if isinstance(spec, Restriction):
        return 1.0 if isinstance(spec.base, GaussianParts) else None
    if isinstance(spec, GaussianGlobal):
        return 1.0
    if isinstance(spec, SumKernel):
        u = kernel_sup(spec.universal)
        l = kernel_sup(spec.local)
        if u is None or l is None:
            return None
        return u + l
    raise TypeError(f"unknown kernel spec {spec!r}")


# ---------------------------------------------------------------------------
# Gram and cross matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GramMatrix:
    """Dense symmetric kernel matrix over a list of (input, part) anchors."""

    entries: np.ndarray

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def _stack(spec: KernelSpec, X: np.ndarray, rows, parts, scheme: PartScheme):
    """The form of the pairs ``(X[rows_i], parts_i)`` that ``_matrix``
    works on: their gathered parts for a restriction kernel, their whole
    inputs plus part ids for the global Gaussian, one per child for a sum.
    ``rows=None`` pairs every row of ``X`` with every part, row-major."""
    if isinstance(spec, Restriction):
        V = gather_parts(X, scheme, rows, parts)
        return V.reshape(-1, V.shape[-1])
    if isinstance(spec, GaussianGlobal):
        if rows is None:
            return np.repeat(X, len(parts), axis=0), np.tile(parts, len(X))
        return X[rows], parts
    if isinstance(spec, SumKernel):
        return (_stack(spec.universal, X, rows, parts, scheme),
                _stack(spec.local, X, rows, parts, scheme))
    raise TypeError(f"unknown kernel spec {spec!r}")


def _code_matches(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matching positions between the rows of two string-code stacks: the
    inner products of their one-hot encodings, counted position by position
    and exact in float64."""
    K = np.zeros((len(A), len(B)))
    for k in range(A.shape[1]):
        K += A[:, k, None] == B[None, :, k]
    return K


def part_kernel_matrix(kernel: PartKernel, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Part kernel between the rows of two stacked part matrices. Rows of
    string codes compare through their one-hot encodings, as ``kernel_eval``
    compares strings."""
    if A.shape[1] != B.shape[1] or A.dtype != B.dtype:
        raise ShapeMismatchError(f"parts {A.shape[1:]} {A.dtype} vs {B.shape[1:]} {B.dtype}")
    codes = A.dtype.kind == "u"
    if isinstance(kernel, LinearParts):
        return _code_matches(A, B) if codes else A @ B.T
    if isinstance(kernel, GaussianParts):
        # K becomes minus the squared distances in place: a query block's K is
        # the largest array of a decode
        if codes:
            K = _code_matches(A, B)
            K -= A.shape[1]
            K *= 2.0  # minus twice the mismatch count
        else:
            na = np.einsum("ij,ij->i", A, A)
            nb = np.einsum("ij,ij->i", B, B)
            K = A @ B.T
            K *= 2.0
            np.subtract(K, na[:, None] + nb[None, :], out=K)
            np.minimum(K, 0.0, out=K)
        K /= 2.0 * kernel.sigma**2
        return np.exp(K, out=K)
    raise TypeError(f"unknown part kernel {kernel!r}")


def _matrix(spec: KernelSpec, A, B) -> np.ndarray:
    """Kernel matrix between the pairs behind the stacks ``A`` (rows) and
    ``B`` (columns) made by ``_stack``."""
    if isinstance(spec, SumKernel):
        return _matrix(spec.universal, A[0], B[0]) + _matrix(spec.local, A[1], B[1])
    if isinstance(spec, Restriction):
        return part_kernel_matrix(spec.base, A, B)
    K = part_kernel_matrix(GaussianParts(spec.sigma), A[0], B[0])
    return K * (A[1][:, None] == B[1][None, :])


class PreparedAnchors:
    """A fixed anchor set with its stack cached, for repeated cross-kernel
    evaluation against fresh queries. The anchors are ``(objects[rows[j]],
    parts[j])`` for inputs ``objects`` stacked once into ``X`` by
    ``stack_objects``: one gather, however often an input recurs. Queries
    are the product of some inputs and some parts: every input with every
    part, input-major.

    ``cross`` has one row per distinct anchor part for a restriction kernel,
    which sees nothing else of an anchor, and one row per anchor for the
    other kernels; ``index`` maps each anchor to its row. The distinct rows
    come from one ``np.unique`` over a byte view of the stacked parts, in
    order of first appearance, built on the first ``cross``, ``index`` or
    Gram: the feature-space solve never builds them. For a Gaussian
    restriction kernel on numeric parts the first ``cross`` also builds the
    anchor half of its exponent product, ``[2a, -|a|^2, 1]`` per distinct
    part ``a`` (module docstring); a fit, which needs only the Gram, never
    does."""

    def __init__(self, spec: KernelSpec, X: np.ndarray, rows, parts, scheme: PartScheme):
        self.spec = spec
        self.scheme = scheme
        self.size = len(rows)
        self._stack = _stack(spec, X, rows, check_parts(scheme, parts), scheme)

    @property
    def features(self):
        """The explicit feature matrix ``F`` (len(anchors), d) with ``K = F
        F^T``, or None when the kernel has no such map or the parts are strings."""
        if has_feature_map(self.spec) and self._stack.dtype.kind == "f":
            return self._stack
        return None

    @cached_property
    def _distinct(self) -> tuple:
        """The stack of the rows of ``cross``, their number, and the index
        from each anchor to its row. Rows come in order of first appearance,
        so when no two anchor parts are equal the rows are the anchors and
        the index is the identity."""
        S = self._stack
        if not isinstance(self.spec, Restriction):
            return S, self.size, np.arange(self.size)
        keys = np.ascontiguousarray(S).view(np.dtype((np.void, S.dtype.itemsize * S.shape[1])))
        _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        return S[first[order]], len(order), rank[inverse]

    @property
    def rows(self) -> int:
        """Number of rows of ``cross``: distinct anchor parts for a restriction
        kernel, anchors otherwise."""
        return self._distinct[1]

    @property
    def index(self) -> np.ndarray:
        """Row of ``cross`` of every anchor, shape (len(anchors),)."""
        return self._distinct[2]

    @cached_property
    def counts(self) -> np.ndarray:
        """Number of anchors on every row of ``cross``, shape (rows,)."""
        return np.bincount(self.index, minlength=self.rows)

    def gram(self) -> np.ndarray:
        """Kernel matrix between the rows of ``cross``, shape (rows, rows),
        exactly symmetric; a new array on every call."""
        S = self._distinct[0]
        return _matrix(self.spec, S, S)

    def expand(self, C: np.ndarray) -> np.ndarray:
        """A matrix with one row per row of ``cross`` as one row per anchor:
        ``C[index]``."""
        return C if self.rows == self.size else C[self.index]

    def fold(self, R: np.ndarray) -> np.ndarray:
        """The adjoint of ``expand``: the rows of ``R``, one per anchor,
        summed per row of ``cross``, so ``fold(R).T @ C == R.T @ expand(C)``."""
        if self.rows == self.size:
            return R
        # one bincount over the flat entries: each sum runs in anchor order
        c = R[0].size
        bins = (self.index[:, None] * c + np.arange(c)).ravel()
        out = np.bincount(bins, weights=R.ravel(), minlength=self.rows * c)
        return out.reshape((self.rows,) + R.shape[1:])

    def _query_stack(self, xs, parts):
        X = stack_objects(xs, self.scheme)
        return _stack(self.spec, X, None, check_parts(self.scheme, parts), self.scheme)

    def query_features(self, xs, parts) -> np.ndarray:
        """Queries in the anchors' feature space, shape (len(xs) * len(parts),
        d), so that ``expand(cross(xs, parts)) == features @
        query_features(xs, parts).T``."""
        B = self._query_stack(xs, parts)
        if B.shape[1] != self.features.shape[1]:
            raise ShapeMismatchError("query parts do not match the shape of the anchor parts")
        return B

    @cached_property
    def _exponent_rows(self):
        """The anchor half ``[2a, -|a|^2, 1]`` of the Gaussian exponent, one
        row per row ``a`` of ``cross``, or None when ``cross`` does not take
        the product: kernels other than a Gaussian restriction, string parts."""
        S = self._distinct[0]
        if not (isinstance(self.spec, Restriction) and isinstance(self.spec.base, GaussianParts)
                and S.dtype.kind == "f"):
            return None
        H = np.empty((len(S), S.shape[1] + 2))
        H[:, :-2] = 2.0 * S
        H[:, -2] = -np.einsum("ij,ij->i", S, S)
        H[:, -1] = 1.0
        return H

    def cross(self, xs, parts, out=None) -> np.ndarray:
        """k(row_r, (xs[i], parts[k])) for every row ``r`` of the anchors (see
        ``index``), shape (rows, len(xs) * len(parts)); column ``i *
        len(parts) + k`` holds query (xs[i], parts[k]).

        ``out``, a C-contiguous float64 array of that shape, receives the
        matrix and is returned, so that a decode can reuse one buffer for
        all of its query blocks. The Gaussian product path writes into it
        directly; the other kernels copy their matrix into it."""
        B = self._query_stack(xs, parts)
        H = self._exponent_rows
        if H is None:
            C = _matrix(self.spec, self._distinct[0], B)
            if out is None:
                return C
            out[...] = C
            return out
        if B.dtype.kind != "f" or B.shape[1] + 2 != H.shape[1]:
            raise ShapeMismatchError(
                f"parts ({H.shape[1] - 2},) float64 vs {B.shape[1:]} {B.dtype}")
        Q = np.empty((len(B), H.shape[1]))
        Q[:, :-2] = B
        Q[:, -2] = 1.0
        Q[:, -1] = -np.einsum("ij,ij->i", B, B)
        E = np.matmul(H, Q.T, out=out)  # minus the squared distances
        np.minimum(E, 0.0, out=E)
        E /= 2.0 * self.spec.base.sigma**2
        return np.exp(E, out=E)


def _pair_anchors(spec: KernelSpec, pairs: list, scheme: PartScheme) -> PreparedAnchors:
    """``PreparedAnchors`` of a list of ``(x, p)`` pairs, one stacked input
    per pair."""
    X = stack_objects([x for x, _ in pairs], scheme)
    return PreparedAnchors(spec, X, np.arange(len(pairs)), [p for _, p in pairs], scheme)


def gram_matrix(spec: KernelSpec, anchors, scheme: PartScheme) -> GramMatrix:
    """Assemble the dense symmetric Gram matrix over ``anchors``.

    The pairs are stacked once (``PreparedAnchors``), the kernel is
    evaluated once per pair of rows of ``PreparedAnchors.cross`` (distinct
    parts, for a restriction kernel) and gathered into the m x m matrix.
    No fit calls this: a fit factors the system over the distinct parts.

    Parameters
    ----------
    spec : KernelSpec
        Pair kernel to evaluate.
    anchors : iterable of (input, part index) pairs, or PreparedAnchors
        Must be non-empty. Prepared anchors, made for ``spec`` and
        ``scheme``, are used as they are stacked.
    scheme : PartScheme
        Shared part scheme of the inputs.
    """
    if not isinstance(anchors, PreparedAnchors):
        anchors = list(anchors)
        if not anchors:
            raise ValueError("anchors must be non-empty")
        anchors = _pair_anchors(spec, anchors, scheme)
    K = anchors.gram()
    if anchors.rows != anchors.size:
        # columns first: the per-entry gather runs over u x m entries, and
        # the row gather that follows copies whole rows
        K = K.take(anchors.index, axis=1).take(anchors.index, axis=0)
    return GramMatrix(entries=K)


def cross_matrix(spec: KernelSpec, anchors, queries, scheme: PartScheme) -> np.ndarray:
    """Kernel matrix k(anchor_j, query_i) of shape (len(anchors), len(queries)),
    one row per anchor; both iterables of pairs are stacked once."""
    anchors = list(anchors)
    queries = list(queries)
    if not anchors or not queries:
        raise ValueError("anchors and queries must be non-empty")
    return _matrix(spec, _pair_anchors(spec, anchors, scheme)._stack,
                   _pair_anchors(spec, queries, scheme)._stack)
