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
matrices all come from ``_matrix``: vectorized over stacked numeric parts or
inputs, and from the scalar ``kernel_eval`` where the pairs do not stack.
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


def _stack_arrays(objs):
    """Stack array-likes into an (n, d) float matrix, or None when they are
    strings or their shapes differ."""
    if isinstance(objs[0], str):
        return None
    arrs = [np.asarray(o, dtype=float) for o in objs]
    shape = arrs[0].shape
    if any(a.shape != shape for a in arrs):
        return None
    return np.stack([a.ravel() for a in arrs])


def stack_parts(pairs, scheme: PartScheme):
    """Extracted parts of ``(input, part index)`` pairs stacked into an
    (n, d) float matrix, or None if they are not fixed-shape numeric arrays."""
    return _stack_arrays([extract_part(x, scheme, p) for x, p in pairs])


def _stack(spec: KernelSpec, pairs, scheme: PartScheme):
    """The numeric form of ``pairs`` that ``_matrix`` vectorizes over: the
    stacked parts for a restriction kernel, the stacked inputs plus part ids
    for the global Gaussian, one stack per child for a sum, and None when
    the pairs do not stack."""
    if isinstance(spec, Restriction):
        return stack_parts(pairs, scheme)
    if isinstance(spec, GaussianGlobal):
        X = _stack_arrays([x for x, _ in pairs])
        return None if X is None else (X, np.array([int(p) for _, p in pairs]))
    if isinstance(spec, SumKernel):
        return _stack(spec.universal, pairs, scheme), _stack(spec.local, pairs, scheme)
    raise TypeError(f"unknown kernel spec {spec!r}")


def part_kernel_matrix(kernel: PartKernel, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Part kernel between the rows of two stacked part matrices."""
    if isinstance(kernel, LinearParts):
        return A @ B.T
    if isinstance(kernel, GaussianParts):
        na = np.einsum("ij,ij->i", A, A)
        nb = np.einsum("ij,ij->i", B, B)
        K = na[:, None] + nb[None, :] - 2.0 * (A @ B.T)  # squared distances
        np.clip(K, 0.0, None, out=K)
        np.negative(K, out=K)  # in place: a query batch's K can be the largest array
        K /= 2.0 * kernel.sigma**2
        return np.exp(K, out=K)
    raise TypeError(f"unknown part kernel {kernel!r}")


def _matrix(spec: KernelSpec, A, B, rows, cols, scheme: PartScheme) -> np.ndarray:
    """Kernel matrix k(rows_i, cols_j) from the stacks ``A`` of ``rows`` and
    ``B`` of ``cols``. Where a stack is None or the widths differ, every
    entry comes from ``kernel_eval``; ``cols is rows`` marks a Gram, for
    which that loop fills one triangle and mirrors it."""
    if isinstance(spec, SumKernel):
        return (_matrix(spec.universal, A[0], B[0], rows, cols, scheme)
                + _matrix(spec.local, A[1], B[1], rows, cols, scheme))
    if A is not None and B is not None:
        if isinstance(spec, Restriction) and A.shape[1] == B.shape[1]:
            return part_kernel_matrix(spec.base, A, B)
        if isinstance(spec, GaussianGlobal) and A[0].shape[1] == B[0].shape[1]:
            K0 = part_kernel_matrix(GaussianParts(spec.sigma), A[0], B[0])
            return K0 * (A[1][:, None] == B[1][None, :])
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
    """A fixed anchor list with its stack cached, for repeated cross-kernel
    evaluation against fresh queries."""

    def __init__(self, spec: KernelSpec, anchors, scheme: PartScheme):
        self.spec = spec
        self.anchors = list(anchors)
        self.scheme = scheme
        self._stack = _stack(spec, self.anchors, scheme)

    @property
    def features(self):
        """The explicit feature matrix ``F`` (len(anchors), d) with
        ``K = F F^T``, or None when the kernel has no such map or the anchor
        parts do not stack."""
        return self._stack if has_feature_map(self.spec) else None

    def query_features(self, queries) -> np.ndarray:
        """Queries in the anchors' feature space, shape (len(queries), d), so
        that ``cross(queries) == features @ query_features(queries).T``."""
        B = stack_parts(list(queries), self.scheme)
        if B is None or B.shape[1] != self.features.shape[1]:
            raise ShapeMismatchError("query parts do not match the shape of the anchor parts")
        return B

    def cross(self, queries) -> np.ndarray:
        """k(anchor_j, query_i), shape (len(anchors), len(queries))."""
        queries = list(queries)
        return _matrix(self.spec, self._stack, _stack(self.spec, queries, self.scheme),
                       self.anchors, queries, self.scheme)


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
    S = _stack(spec, anchors, scheme)
    return GramMatrix(entries=_matrix(spec, S, S, anchors, anchors, scheme), anchors=tuple(anchors))


def cross_matrix(spec: KernelSpec, anchors, queries, scheme: PartScheme) -> np.ndarray:
    """Kernel matrix k(anchor_j, query_i) of shape (len(anchors), len(queries))."""
    anchors = list(anchors)
    queries = list(queries)
    if not anchors or not queries:
        raise ValueError("anchors and queries must be non-empty")
    return _matrix(spec, _stack(spec, anchors, scheme), _stack(spec, queries, scheme),
                   anchors, queries, scheme)
