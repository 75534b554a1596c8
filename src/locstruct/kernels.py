"""Kernels on parts and on (input, part) pairs, plus Gram assembly.

Two layers:

* part kernels compare two extracted parts (``LinearParts``, ``GaussianParts``);
* pair kernels compare two ``(input, part index)`` pairs. The restriction
  kernel evaluates a part kernel on the two extracted parts only, the global
  Gaussian compares whole inputs gated by a part-index match, and ``SumKernel``
  adds a universal and a local component.

String parts are compared through their implicit one-hot encoding, so the
linear kernel counts matching positions and the squared distance inside the
Gaussian is twice the number of mismatches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .parts import PartScheme, ShapeMismatchError, extract_part


# ---------------------------------------------------------------------------
# Part kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearParts:
    """Inner product between two parts."""


@dataclass(frozen=True)
class GaussianParts:
    """Gaussian kernel exp(-||a - b||^2 / (2 sigma^2)) between two parts."""

    sigma: float = 1.0

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("bandwidth must be strictly positive")


PartKernel = Union[LinearParts, GaussianParts]


def _part_sqdist(a, b) -> float:
    if isinstance(a, str) or isinstance(b, str):
        if len(a) != len(b):
            raise ShapeMismatchError(f"parts of lengths {len(a)} and {len(b)}")
        return 2.0 * sum(ca != cb for ca, cb in zip(a, b))
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ShapeMismatchError(f"parts of shapes {a.shape} and {b.shape}")
    d = a - b
    return float(np.dot(d, d))


def _part_inner(a, b) -> float:
    if isinstance(a, str) or isinstance(b, str):
        if len(a) != len(b):
            raise ShapeMismatchError(f"parts of lengths {len(a)} and {len(b)}")
        return float(sum(ca == cb for ca, cb in zip(a, b)))
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ShapeMismatchError(f"parts of shapes {a.shape} and {b.shape}")
    return float(np.dot(a, b))


def part_kernel_eval(kernel: PartKernel, a, b) -> float:
    """Evaluate a part kernel on two part objects."""
    if isinstance(kernel, LinearParts):
        return _part_inner(a, b)
    if isinstance(kernel, GaussianParts):
        return float(np.exp(-_part_sqdist(a, b) / (2.0 * kernel.sigma**2)))
    raise TypeError(f"unknown part kernel {kernel!r}")


def part_kernel_sup(kernel: PartKernel):
    """sup over parts of k(a, a), or None when unbounded."""
    if isinstance(kernel, GaussianParts):
        return 1.0
    return None


# ---------------------------------------------------------------------------
# Pair kernels on (input, part index)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Restriction:
    """Kernel on pairs that depends on the two extracted parts only:
    k((x, p), (x', q)) = base(x_p, x'_q)."""

    base: PartKernel


@dataclass(frozen=True)
class GaussianGlobal:
    """Whole-input Gaussian gated by a part-index match:
    k((x, p), (x', q)) = exp(-||x - x'||^2 / (2 sigma^2)) * [p == q]."""

    sigma: float = 1.0

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("bandwidth must be strictly positive")


@dataclass(frozen=True)
class SumKernel:
    """Sum of a universal and a local pair kernel."""

    universal: "KernelSpec"
    local: "KernelSpec"


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
        return float(np.exp(-_part_sqdist(x, y) / (2.0 * spec.sigma**2)))
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
        return part_kernel_sup(spec.base)
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
    anchors: tuple

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def _stack_parts(pairs, scheme):
    """Stack extracted parts into an (n, d) float matrix, or None if parts
    are not fixed-shape numeric arrays."""
    parts = [extract_part(x, scheme, p) for x, p in pairs]
    first = parts[0]
    if isinstance(first, str):
        return None
    arrs = [np.asarray(pt, dtype=float) for pt in parts]
    shape = arrs[0].shape
    if any(a.shape != shape for a in arrs):
        return None
    return np.stack([a.ravel() for a in arrs])


def _stack_inputs(pairs):
    arrs = [np.asarray(x, dtype=float) for x, _ in pairs]
    shape = arrs[0].shape
    if any(a.shape != shape for a in arrs):
        return None
    return np.stack([a.ravel() for a in arrs])


def _sqdist_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    na = np.einsum("ij,ij->i", A, A)
    nb = np.einsum("ij,ij->i", B, B)
    d2 = na[:, None] + nb[None, :] - 2.0 * (A @ B.T)
    np.clip(d2, 0.0, None, out=d2)
    return d2


def _pairwise(spec, rows, cols, scheme):
    """Kernel matrix between two lists of (input, part) pairs, vectorized
    where the data allows it."""
    if isinstance(spec, SumKernel):
        return _pairwise(spec.universal, rows, cols, scheme) + _pairwise(spec.local, rows, cols, scheme)
    if isinstance(spec, Restriction):
        A = _stack_parts(rows, scheme)
        B = _stack_parts(cols, scheme) if cols is not rows else A
        if A is not None and B is not None and A.shape[1] == B.shape[1]:
            if isinstance(spec.base, LinearParts):
                return A @ B.T
            if isinstance(spec.base, GaussianParts):
                return np.exp(-_sqdist_matrix(A, B) / (2.0 * spec.base.sigma**2))
    elif isinstance(spec, GaussianGlobal):
        X = _stack_inputs(rows)
        Y = _stack_inputs(cols) if cols is not rows else X
        if X is not None and Y is not None and X.shape[1] == Y.shape[1]:
            K0 = np.exp(-_sqdist_matrix(X, Y) / (2.0 * spec.sigma**2))
            pr = np.array([int(p) for _, p in rows])
            pc = np.array([int(p) for _, p in cols])
            return K0 * (pr[:, None] == pc[None, :])
    # generic fallback, one evaluation per entry
    out = np.empty((len(rows), len(cols)))
    if cols is rows:
        for i, a in enumerate(rows):
            for j in range(i, len(rows)):
                out[i, j] = out[j, i] = kernel_eval(spec, a, rows[j], scheme)
        return out
    for i, a in enumerate(rows):
        for j, b in enumerate(cols):
            out[i, j] = kernel_eval(spec, a, b, scheme)
    return out


class PreparedAnchors:
    """A fixed anchor list with its stacked numeric representation cached,
    for repeated cross-kernel evaluation against fresh queries."""

    def __init__(self, spec: KernelSpec, anchors, scheme: PartScheme):
        self.spec = spec
        self.anchors = list(anchors)
        self.scheme = scheme
        self._parts = None
        self._inputs = None
        self._part_ids = None
        self._children = None
        if isinstance(spec, Restriction):
            self._parts = _stack_parts(self.anchors, scheme)
        elif isinstance(spec, GaussianGlobal):
            self._inputs = _stack_inputs(self.anchors)
            self._part_ids = np.array([int(p) for _, p in self.anchors])
        elif isinstance(spec, SumKernel):
            self._children = (
                PreparedAnchors(spec.universal, self.anchors, scheme),
                PreparedAnchors(spec.local, self.anchors, scheme),
            )

    @property
    def features(self):
        """The explicit feature matrix ``F`` (len(anchors), d) with
        ``K = F F^T``, or None when the kernel has no such map or the anchor
        parts do not stack."""
        return self._parts if has_feature_map(self.spec) else None

    def query_features(self, queries) -> np.ndarray:
        """Queries in the anchors' feature space, shape (len(queries), d), so
        that ``cross(queries) == features @ query_features(queries).T``."""
        B = _stack_parts(list(queries), self.scheme)
        if B is None or B.shape[1] != self.features.shape[1]:
            raise ShapeMismatchError("query parts do not match the shape of the anchor parts")
        return B

    def cross(self, queries) -> np.ndarray:
        """k(anchor_j, query_i), shape (len(anchors), len(queries))."""
        queries = list(queries)
        spec = self.spec
        if self._children is not None:
            return self._children[0].cross(queries) + self._children[1].cross(queries)
        if isinstance(spec, Restriction) and self._parts is not None:
            B = _stack_parts(queries, self.scheme)
            if B is not None and B.shape[1] == self._parts.shape[1]:
                if isinstance(spec.base, LinearParts):
                    return self._parts @ B.T
                if isinstance(spec.base, GaussianParts):
                    return np.exp(-_sqdist_matrix(self._parts, B) / (2.0 * spec.base.sigma**2))
        if isinstance(spec, GaussianGlobal) and self._inputs is not None:
            Y = _stack_inputs(queries)
            if Y is not None and Y.shape[1] == self._inputs.shape[1]:
                K0 = np.exp(-_sqdist_matrix(self._inputs, Y) / (2.0 * spec.sigma**2))
                qp = np.array([int(p) for _, p in queries])
                return K0 * (self._part_ids[:, None] == qp[None, :])
        return _pairwise(spec, self.anchors, queries, self.scheme)


def gram_matrix(spec: KernelSpec, anchors, scheme: PartScheme) -> GramMatrix:
    """Assemble the dense symmetric Gram matrix over ``anchors``.

    Parameters
    ----------
    spec : KernelSpec
        Pair kernel to evaluate.
    anchors : sequence of (input, part index) pairs
        Must be non-empty.
    scheme : PartScheme
        Shared part scheme of the inputs.
    """
    anchors = list(anchors)
    if not anchors:
        raise ValueError("anchors must be non-empty")
    K = _pairwise(spec, anchors, anchors, scheme)
    return GramMatrix(entries=K, anchors=tuple(anchors))


def cross_matrix(spec: KernelSpec, anchors, queries, scheme: PartScheme) -> np.ndarray:
    """Kernel matrix k(anchor_j, query_i) of shape (len(anchors), len(queries))."""
    anchors = list(anchors)
    queries = list(queries)
    if not anchors or not queries:
        raise ValueError("anchors and queries must be non-empty")
    return _pairwise(spec, anchors, queries, scheme)
