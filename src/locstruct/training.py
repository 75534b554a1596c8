"""Auxiliary dataset generation and the alpha-weight model fit.

Training draws ``m`` (input index, part) pairs from the training set, stores
them with the matching output parts in one read-only columnar table
(``AuxiliarySet``), and factorizes ``K + m * lambda * I`` over the sampled
anchors. The fitted model maps any query ``(x, p)`` to the weight
vector ``alpha(x, p) = (K + m lambda I)^{-1} v(x, p)`` with
``v(x, p)_j = k((chi_j, p_j), (x, p))``.

The solve follows the kernel's structure. When the pair kernel has an
explicit feature map ``K = F F^T`` with ``F`` of shape (m, d) and ``d < m``
(a linear restriction kernel on fixed-shape numeric parts), only the d x d
system ``F^T F + m lambda I`` is factored and the m x m Gram is never
built.

Otherwise the solve is dense, over the u distinct anchor parts: anchors are
drawn with replacement and a restriction kernel sees only the extracted
part, so ``K = U K_u U^T`` for the u x u Gram ``K_u`` of the distinct parts
and the m x u indicator ``U`` of each anchor's part
(``PreparedAnchors.index``). The fit factors the count-weighted system
``M = W K_u W + m lambda I``, ``W = diag(sqrt(c))`` for the counts ``c`` of
anchors per part, and every solve with the m x m system is read out of
``M`` (``AlphaModel``); no m x m matrix is built. Weight vectors expand
the u-row cross matrix (``PreparedAnchors.cross``) to one row per anchor,
and readout weights are kept on the distinct parts, so a readout multiplies
the u-row cross matrix. The dense readout of a decode streams its queries
in blocks of at most ``READOUT_BLOCK_BYTES`` of that matrix, all written
into one buffer, so its memory does not grow with the number of queries.

Every fit goes through one lambda path (``_LambdaPath``): the anchors are
prepared and the lambda-free system, ``F^T F`` or ``W K_u W``, built once,
and each lambda factors a fresh copy of it (Cholesky): a fitted model
(``AlphaModel``) is the path, which holds the solve basis, plus that
factor. ``fit_alpha`` is the path at one lambda. The regression study of
``bench`` reads every lambda it scores, on the hold-out and on the test
set, out of one eigendecomposition of the same system (``readouts``) and
factors none.
"""

from __future__ import annotations

import logging
from collections import abc
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .kernels import KernelSpec, PreparedAnchors
from .parts import (
    NonFiniteError,
    PartDistribution,
    PartScheme,
    SequenceWindows,
    ShapeMismatchError,
    decode_strings,
    gather_parts,
    part_cdf,
    part_weights,
    stack_objects,
)

log = logging.getLogger(__name__)


# bytes of one block of the dense readout's cross matrix: about one core's L2
READOUT_BLOCK_BYTES = 2 << 20


def cho_factor(a, **kwargs):
    """``scipy.linalg.cho_factor``. scipy is imported at the first factor or
    solve, not with this module, so commands that fit nothing never load it."""
    from scipy.linalg import cho_factor
    return cho_factor(a, **kwargs)


def cho_solve(c_and_lower, b, **kwargs):
    """``scipy.linalg.cho_solve``, imported as ``cho_factor`` is."""
    from scipy.linalg import cho_solve
    return cho_solve(c_and_lower, b, **kwargs)


class FactorizationError(np.linalg.LinAlgError):
    """Raised when the regularized kernel system cannot be factorized."""


@dataclass(frozen=True)
class AuxiliarySample:
    """One subsampled triple: input reference, part index, stored output part."""

    chi_ref: int
    p: int
    eta: object


@dataclass(frozen=True, eq=False)
class AuxiliarySet(abc.Sequence):
    """The auxiliary dataset as one read-only table of m anchors: ``chi``
    and ``p``, the input references and parts as intp arrays of length m,
    and ``etas``, the stacked output parts, float64 of shape (m,) + channel
    axes + part shape, or the (m, l) ``uint32`` character codes of length-l
    string windows. The arrays are read-only views.

    It is also a sequence of ``AuxiliarySample``: item ``j`` is built on
    demand from row ``j``, with Python ``int``s ``chi_ref`` and ``p`` and,
    as ``eta``, a Python ``str`` (trailing NULs kept) or a float64 view of
    ``etas``; a slice is the table of its rows."""

    chi: np.ndarray
    p: np.ndarray
    etas: np.ndarray

    def __post_init__(self):
        for name, dtype in (("chi", np.intp), ("p", np.intp), ("etas", None)):
            a = np.asarray(getattr(self, name), dtype=dtype).view()
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        m = len(self.chi)
        if not (self.chi.ndim == self.p.ndim == 1 and len(self.p) == len(self.etas) == m):
            raise ShapeMismatchError("chi, p and etas must give one row per anchor")

    def __len__(self) -> int:
        return len(self.chi)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return AuxiliarySet(self.chi[j], self.p[j], self.etas[j])
        eta = self.etas[j]
        if eta.dtype.kind == "u":
            eta = decode_strings(eta[None])[0]
        return AuxiliarySample(int(self.chi[j]), int(self.p[j]), eta)


def generate_auxiliary(
    train: Sequence[tuple],
    m: int,
    scheme: PartScheme,
    pi: PartDistribution,
    rng: np.random.Generator,
) -> AuxiliarySet:
    """Draw ``m`` auxiliary samples from ``train = [(x_1, y_1), ...]``.

    Each sample picks a training index uniformly with replacement, a part
    from ``pi``, and stores the selected output part. Per sample the stream
    gives ``rng.integers(n)`` and then one ``rng.random()`` for the part, as
    ``sample_part`` draws it, so a fixed generator state reproduces the
    samples. The output parts come from one gather over all outputs
    (``parts.gather_parts``), so every output must stack.
    """
    if not train:
        raise ValueError("training set must be non-empty")
    if m < 1:
        raise ValueError("m must be >= 1")
    part_weights(pi, scheme.num_parts)  # raises for a distribution over another part count
    n = len(train)
    draws = [(rng.integers(n), rng.random()) for _ in range(m)]
    rows = np.array([i for i, _ in draws], dtype=np.intp)
    parts = part_cdf(pi).searchsorted([u for _, u in draws], side="right")
    return _table([y for _, y in train], scheme, rows, parts)


def enumerate_auxiliary(train: Sequence[tuple], scheme: PartScheme) -> AuxiliarySet:
    """The full part expansion of the training set, all (i, p) pairs in order."""
    if not train:
        empty = np.empty(0, dtype=np.intp)
        return AuxiliarySet(empty, empty, np.empty((0,) + scheme.part_shape))
    P = scheme.num_parts
    return _table([y for _, y in train], scheme, np.repeat(np.arange(len(train)), P),
                  np.tile(np.arange(P), len(train)))


def _table(outputs, scheme: PartScheme, rows: np.ndarray, parts: np.ndarray) -> AuxiliarySet:
    """The anchors ``(rows[j], parts[j])`` with their output parts, from one
    ``stack_objects`` and one ``gather_parts`` over all ``outputs``; numeric
    parts keep the first output's channel axes, as ``extract_part`` does."""
    V = gather_parts(stack_objects(outputs, scheme), scheme, rows, parts)
    if V.dtype.kind == "f":
        lead = np.shape(outputs[0])[: np.ndim(outputs[0]) - len(scheme.shape)]
        V = V.reshape(V.shape[:1] + lead + scheme.part_shape)
    return AuxiliarySet(rows, parts, V)


def _as_table(aux: Sequence[AuxiliarySample]) -> AuxiliarySet:
    """``aux`` as an ``AuxiliarySet``: a table as it is, any other non-empty
    sequence of samples with its output parts stacked by ``_stack_etas``."""
    if isinstance(aux, AuxiliarySet):
        return aux
    aux = tuple(aux)
    m = len(aux)
    return AuxiliarySet(np.fromiter((s.chi_ref for s in aux), dtype=np.intp, count=m),
                        np.fromiter((s.p for s in aux), dtype=np.intp, count=m),
                        _stack_etas([s.eta for s in aux]))


@dataclass(frozen=True, eq=False)
class AlphaModel:
    """Fitted estimator: a lambda path at one lambda, plus one factor.

    ``path`` (``_LambdaPath``) holds the anchors, their output parts, the
    lambda-free system and the solve basis; ``inputs``, ``aux``,
    ``kernel``, ``scheme``, ``prepared_anchors``, ``etas``, ``features`` and
    ``m`` are read from it, and the models of one path share them.
    ``factor`` is the Cholesky factor of that system plus ``shift I``:
    ``F^T F + shift I`` with features ``F`` (``K = F F^T``), else the
    count-weighted ``M = W K_u W + shift I`` over the u distinct anchor
    parts. ``shift`` is ``m * lam + jitter``, and ``jitter`` is the diagonal
    that the factor of ``K + m lam I`` needed on top.

    Every solve is the path's ``lift`` of a solve with the factor against
    an anchor side (``anchor_side``) or a query side (``query_side``). With
    features these are the push-through identity ``(F F^T + s I)^{-1} F =
    F (F^T F + s I)^{-1}`` and, in ``apply_inverse``, the Woodbury
    identity. On the dense path the m x m system ``K + shift I`` is ``Q M
    Q^T`` on the span of ``Q = U W^{-1}`` (``U`` the m x u indicator of the
    anchors' parts, orthonormal columns) and ``shift I`` on the vectors
    that sum to zero over each part's anchors, so every solve is read out of
    ``M``; when no two anchor parts are equal, ``W = I`` and ``M`` is ``K +
    shift I`` itself. The dense inverse is never materialized. Immutable
    after fit, safe for concurrent queries.

    Readout weights are filled in lazily: ``memo_readout_weights`` keeps
    the weights of each output table it is asked for under the caller's
    key, so decoders built again on the same model solve against the
    factor, and fold, once per table. Two concurrent fills of one key
    compute the same array and the last store wins, so a race costs a
    duplicate solve, never a wrong entry.
    """

    path: _LambdaPath = field(repr=False)
    lam: float
    factor: tuple = field(repr=False)
    jitter: float = 0.0
    _readouts: dict = field(default_factory=dict, init=False, repr=False)

    inputs = property(lambda self: self.path.inputs)
    aux = property(lambda self: self.path.aux)
    kernel = property(lambda self: self.path.kernel)
    scheme = property(lambda self: self.path.scheme)
    prepared_anchors = property(lambda self: self.path.prepared)
    etas = property(lambda self: self.path.etas)
    features = property(lambda self: self.path.features)
    m = property(lambda self: self.path.m)

    @property
    def shift(self) -> float:
        return self.m * self.lam + self.jitter

    @cached_property
    def anchors(self) -> tuple:
        return tuple(zip(map(self.inputs.__getitem__, self.aux.chi.tolist()), self.aux.p.tolist()))

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        """Solve ``(K + m lambda I) u = v`` for a vector or stacked columns.

        With features this is the Woodbury form ``(v - F (F^T F + s I)^{-1}
        F^T v) / s``. Dense form: ``(v - expand(fold(v) / c)) / s +
        expand(W^{-1} M^{-1} W^{-1} fold(v))``, the part of ``v`` off the
        span of ``Q``, which ``K`` maps to zero, divided by the shift, plus
        the solve on that span. Nothing cancels as lambda goes to zero."""
        inner = self.path.lift(cho_solve(self.factor, self.path.anchor_side(v)))
        if self.features is not None:  # Woodbury: (F F^T + s I)^{-1} v = (v - inner) / s
            return (v - inner) / self.shift
        # inner solves on the span of Q only; the part of v off it is just divided by s
        prepared = self.prepared_anchors
        f = prepared.fold(v)
        return (v - prepared.expand(f / _rows(prepared.counts, f))) / self.shift + inner

    def alphas(self, xs, parts) -> np.ndarray:
        """Weight vectors ``alpha(x, p)`` for every ``x`` in ``xs`` and ``p``
        in ``parts`` as columns, input-major: shape (m, len(xs) * len(parts)).

        Dense form: ``expand(W^{-1} M^{-1} W C_u)`` for the u-row cross
        matrix ``C_u``. With features this is ``F (F^T F + s I)^{-1} B^T``
        for the query features ``B``, the push-through form of ``(K + s
        I)^{-1} F B^T``.
        """
        return self.path.lift(cho_solve(self.factor, self.path.query_side(xs, parts)))

    def readout_weights(self, E: np.ndarray) -> np.ndarray:
        """Weights ``R`` such that ``readout(R, xs, parts)`` gives
        ``sum_j alpha_j(x, p) E[j]`` per query; ``E`` has one row per anchor.

        Dual form: ``(K + s I)^{-1} E`` folded onto the rows of the prepared
        anchors' cross matrix (``PreparedAnchors.fold``), read out of the
        count-weighted system as ``W M^{-1} W^{-1} fold(E)``, shape (u, c)
        for u distinct anchor parts. With features the push-through
        identity ``E^T (F F^T + s I)^{-1} F = E^T F (F^T F + s I)^{-1}``
        gives ``R = (F^T F + s I)^{-1} F^T E``, shape (d, c); this also
        avoids the cancellation of a Woodbury solve contracted with F.
        """
        R = cho_solve(self.factor, self.path.anchor_side(E))
        if self.features is None:  # W R: readouts take the plain cross matrix, not W C_u
            R *= _rows(self.path.roots, R)
        return R

    def memo_readout_weights(self, key, table: Callable[[], np.ndarray]) -> np.ndarray:
        """``readout_weights(table())``, computed on the first call with
        ``key`` and kept for later ones; ``key`` must name the table."""
        R = self._readouts.get(key)
        if R is None:
            R = self.readout_weights(table())
            R.flags.writeable = False  # shared by every later caller
            self._readouts[key] = R
        return R

    def readout(self, R: np.ndarray, xs, parts) -> np.ndarray:
        """Alpha-weighted sums of the queries of ``alphas(xs, parts)``, one row
        per query, input-major: shape (len(xs) * len(parts), c), from weights
        made by ``readout_weights``. Row ``i * len(parts) + k`` is ``alphas(xs,
        parts)[:, i * len(parts) + k] @ E``; the caller may write into it.

        With features this is one product ``B R`` of the query features
        ``B``, which are gathered without a copy when the parts tile the
        inputs in order (``parts.gather_parts``). Without features the
        queries are read out in blocks of inputs whose cross matrix, u x
        (block * len(parts)) over the u distinct anchor parts, fits
        ``READOUT_BLOCK_BYTES`` (one input per block when a single one does
        not), each block's ``R.T @ cross`` written straight into a
        channel-major array whose transpose is returned. Every block's cross
        matrix is written into one buffer, made once per call
        (``PreparedAnchors.cross(..., out=)``): the memory of a decode does
        not grow with the number of queries, and a decode allocates one
        block, not one per block."""
        if self.features is not None:  # d < m query features: one product, no blocks
            return self.prepared_anchors.query_features(xs, parts) @ R
        prepared = self.prepared_anchors
        xs = list(xs)
        P, u = len(parts), prepared.rows
        block = max(1, READOUT_BLOCK_BYTES // (8 * u * P))
        S = np.empty((R.shape[1], len(xs) * P))
        buf = np.empty(u * min(block, len(xs)) * P)
        for i in range(0, len(xs), block):
            chunk = xs[i:i + block]
            w = len(chunk) * P
            C = prepared.cross(chunk, parts, out=buf[:u * w].reshape(u, w))
            np.matmul(R.T, C, out=S[:, i * P:i * P + w])
        return S.T


def _rows(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The vector ``v`` shaped to scale the rows of ``a``."""
    return v.reshape((-1,) + (1,) * (a.ndim - 1))


def _stack_etas(etas: list) -> np.ndarray:
    """Non-empty output parts stacked row-wise: character codes of shape
    (m, l) for strings, float64 of shape (m,) + part shape otherwise.
    Raises ``ShapeMismatchError`` when the parts do not share one shape and
    ``NonFiniteError`` when a numeric part is NaN or infinite."""
    if isinstance(etas[0], str):
        return stack_objects(etas, SequenceWindows(len(etas[0]), len(etas[0])))
    try:
        E = np.asarray(etas, dtype=float)
    except (TypeError, ValueError):
        raise ShapeMismatchError("anchor output parts do not share one numeric shape") from None
    if not np.isfinite(E).all():
        raise NonFiniteError("non-finite values in the anchor output parts")
    return E


def _factor_system(G: np.ndarray, shift: float, scale: float):
    """Cholesky of G + shift*I with diagonal jitter escalation on failure.

    Jitter starts at ``1e-12 * scale`` and grows tenfold up to ``1e-6 *
    scale``; both paths pass ``trace(K) / m`` of the m x m kernel matrix, so
    a jitter means the same on each.

    ``G`` must be exactly symmetric, and is left as it is: each attempt
    factors a fresh column-major copy of it in place, so a retry starts
    from the untouched system.
    """
    m = G.shape[0]
    base = 1e-12 * scale
    jitter = 0.0
    while True:
        A = np.array(G.T, order="F")  # G.T is column-major when G is row-major: a plain copy
        A[np.diag_indices(m)] += shift + jitter
        try:
            return cho_factor(A, lower=True, overwrite_a=True, check_finite=False), jitter
        except np.linalg.LinAlgError:
            if jitter == 0.0:
                jitter = base if base > 0 else 1e-12
            else:
                jitter *= 10.0
            if jitter > 1e-6 * scale:
                w = np.linalg.eigvalsh(G + shift * np.eye(m))
                cond = abs(w[-1] / w[0]) if w[0] != 0 else np.inf
                raise FactorizationError(
                    f"system of size {m} not factorizable after jitter escalation "
                    f"(condition estimate {cond:.3e})"
                )
            log.debug("factorization retry with jitter %.3e", jitter)


def _check_lambda(lam: float, m: int) -> None:
    """Refuse a ``lam`` that is not positive and finite, or whose shift ``m
    * lam`` overflows."""
    if not 0 < lam < np.inf:
        raise ValueError(f"lambda must be strictly positive and finite, got {lam!r}")
    if not m * lam < np.inf:
        raise ValueError(f"m * lambda overflows for m={m} and lambda={lam!r}")


def fit_alpha(
    inputs: Sequence,
    aux: Sequence[AuxiliarySample],
    kernel: KernelSpec,
    lam: float,
    scheme: PartScheme,
) -> AlphaModel:
    """Fit the weight model on an auxiliary sample set.

    Parameters
    ----------
    inputs : sequence
        Training inputs referenced by ``aux[j].chi_ref``; they are stacked
        once (``parts.stack_objects``), so all must share one shape.
    aux : sequence of AuxiliarySample
        Non-empty auxiliary dataset. An ``AuxiliarySet`` is read as its
        columns; any other sequence is stacked into one first.
    kernel : KernelSpec
        Pair kernel used for the Gram and all queries.
    lam : float
        Regularization, strictly positive and finite; the system matrix is
        ``K + len(aux) * lam * I``, so ``len(aux) * lam`` must be finite too.

    Raises
    ------
    ValueError
        If ``lam`` or ``len(aux) * lam`` is not positive and finite, or
        ``aux`` is empty.
    NonFiniteError
        If an input, a kernel value or a numeric anchor output part is NaN
        or infinite.
    ShapeMismatchError
        If the inputs do not stack or the anchor output parts do not share
        one shape.
    """
    _check_lambda(lam, len(aux))
    return _LambdaPath(inputs, aux, kernel, scheme)(lam)


class _LambdaPath:
    """Fits of one anchor set at any lambda: ``path(lam)`` is
    ``fit_alpha(inputs, aux, kernel, lam, scheme)``, this path plus one
    factor (``AlphaModel``). The anchors are prepared, their output parts
    stacked and the lambda-free system ``G`` built once: ``F^T F`` with
    features ``F`` of width ``d < m``, else the count-weighted ``W K_u W``
    over the distinct anchor parts. That choice of solve basis is made here
    only: every solve with ``G + s I`` takes ``anchor_side`` or
    ``query_side`` and maps its result back to one row per anchor with
    ``lift``. Every fit factors a fresh copy of ``G`` (Cholesky);
    ``readouts`` reads a whole lambda grid out of one eigendecomposition of
    it instead."""

    def __init__(self, inputs: Sequence, aux: Sequence[AuxiliarySample], kernel: KernelSpec,
                 scheme: PartScheme):
        if not len(aux):
            raise ValueError("auxiliary set must be non-empty")
        aux = _as_table(aux)
        self.inputs, self.aux, self.kernel, self.scheme = tuple(inputs), aux, kernel, scheme
        m = self.m = len(aux)
        self.etas = aux.etas
        prepared = PreparedAnchors(kernel, stack_objects(self.inputs, scheme), aux.chi, aux.p,
                                   scheme)
        F, roots = prepared.features, None
        if F is not None and F.shape[1] < m:
            G = F.T @ F
            scale = np.trace(G) / m
        else:
            F = None
            G = prepared.gram()
            if not np.isfinite(G).all():
                raise NonFiniteError("non-finite values in the kernel matrix; check the inputs")
            c = prepared.counts
            scale = (c * G.diagonal()).sum() / m  # trace(K) / m of the m x m Gram
            roots = np.sqrt(c)
            G *= np.outer(roots, roots)  # one product per entry keeps the system exactly symmetric
        self.prepared, self.features, self.roots = prepared, F, roots  # roots: W's diagonal
        self._system, self._scale = G, scale

    def anchor_side(self, E: np.ndarray) -> np.ndarray:
        """``F^T E``, or ``W^{-1} fold(E)``, for ``E`` with one row per anchor."""
        if self.features is not None:
            return self.features.T @ E
        f = self.prepared.fold(E)
        return f / _rows(self.roots, f)

    def query_side(self, xs, parts) -> np.ndarray:
        """The query features transposed, or ``W C_u`` for the u-row cross
        matrix ``C_u``: one column per query, input-major."""
        if self.features is not None:
            return self.prepared.query_features(xs, parts).T
        C = self.prepared.cross(xs, parts)
        C *= _rows(self.roots, C)
        return C

    def lift(self, Z: np.ndarray) -> np.ndarray:
        """``F Z``, or ``expand(W^{-1} Z)``: a solve's result, one row per anchor."""
        if self.features is not None:
            return self.features @ Z
        return self.prepared.expand(Z / _rows(self.roots, Z))

    def __call__(self, lam: float) -> AlphaModel:
        _check_lambda(lam, self.m)
        factor, jitter = _factor_system(self._system, self.m * lam, self._scale)
        if jitter:
            log.info("fit used diagonal jitter %.3e on a system of size %d", jitter, self.m)
        return AlphaModel(path=self, lam=float(lam), factor=factor, jitter=jitter)

    def readouts(self, E: np.ndarray, xs, parts) -> Callable[[float], np.ndarray]:
        """``lam -> model.readout(model.readout_weights(E), xs, parts)`` for
        ``model = path(lam)``, equal up to rounding, from one
        eigendecomposition ``G = Q diag(w) Q^T``: a new array per call with
        one row per query, shape (len(xs) * len(parts), c). Both readouts
        are ``query_side(xs, parts)^T (G + m lam I)^{-1} anchor_side(E)``,
        so ``Q^T`` times each side is formed once and each lambda is a
        diagonal rescale and one product. ``G`` is PSD, so rounding below
        zero is clipped from ``w``; no jitter is added. The queries are read
        out in one block, which suits the hold-out and test sets of
        ``bench``."""
        w, Q = np.linalg.eigh(self._system)
        w = np.clip(w, 0.0, None)
        anchor, query = Q.T @ self.anchor_side(E), Q.T @ self.query_side(xs, parts)

        def readout(lam: float) -> np.ndarray:
            _check_lambda(lam, self.m)
            return query.T @ (anchor / (w + self.m * lam)[:, None])
        return readout


def alpha_at(model: AlphaModel, x, p: int) -> np.ndarray:
    """Weight vector ``alpha(x, p)`` of length ``model.m`` for one query."""
    return model.alphas([x], [p])[:, 0]


def alpha_at_parts(model: AlphaModel, x, parts: Sequence[int]) -> np.ndarray:
    """Stacked weights for one input and several parts, shape (m, len(parts))."""
    return model.alphas([x], list(parts))
