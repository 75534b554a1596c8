"""Auxiliary dataset generation and the alpha-weight model fit.

Training draws ``m`` (input index, part) pairs from the training set, stores
the matching output parts, and factorizes ``K + m * lambda * I`` over the
sampled anchors. The fitted model maps any query ``(x, p)`` to the weight
vector ``alpha(x, p) = (K + m lambda I)^{-1} v(x, p)`` with
``v(x, p)_j = k((chi_j, p_j), (x, p))``.

The solve follows the kernel's structure. When the pair kernel has an
explicit feature map ``K = F F^T`` with ``F`` of shape (m, d) and ``d < m``
(a linear restriction kernel on fixed-shape numeric parts), only the d x d
system ``F^T F + m lambda I`` is factored and the m x m Gram is never
built; otherwise the dense m x m system is factored. A system matrix the
fit builds itself is factored in its own memory; a Gram passed in is copied.

On the dense path a restriction kernel is evaluated once per distinct anchor
part (``PreparedAnchors.cross``): weight vectors expand that matrix to one
row per anchor before the solve, and readout weights fold the dual weights
onto the distinct parts once per output table, ``R_u = U^T R`` for the
m x u indicator ``U`` of the anchors' parts, so a readout multiplies the
u-row cross matrix (``R^T U C_u = R_u^T C_u``). The dense readout of a
decode streams its queries in blocks of at most ``READOUT_BLOCK_BYTES`` of
that matrix, so its memory does not grow with the number of queries.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .kernels import KernelSpec, PreparedAnchors, gram_matrix, GramMatrix, has_feature_map
from .parts import (
    NonFiniteError,
    PartDistribution,
    PartScheme,
    SequenceWindows,
    ShapeMismatchError,
    part_cdf,
    part_values,
    part_weights,
    stack_objects,
)

log = logging.getLogger(__name__)


# bytes of one block of the dense readout's cross matrix: about one core's L2
READOUT_BLOCK_BYTES = 2 << 20


class FactorizationError(np.linalg.LinAlgError):
    """Raised when the regularized kernel system cannot be factorized."""


@dataclass(frozen=True)
class AuxiliarySample:
    """One subsampled triple: input reference, part index, stored output part."""

    chi_ref: int
    p: int
    eta: object


def generate_auxiliary(
    train: Sequence[tuple],
    m: int,
    scheme: PartScheme,
    pi: PartDistribution,
    rng: np.random.Generator,
) -> list[AuxiliarySample]:
    """Draw ``m`` auxiliary samples from ``train = [(x_1, y_1), ...]``.

    Each sample picks a training index uniformly with replacement, a part
    from ``pi``, and stores the selected output part. Per sample the stream
    gives ``rng.integers(n)`` and then one ``rng.random()`` for the part, as
    ``sample_part`` draws it, so a fixed generator state reproduces the
    samples. The output parts come from one gather over all outputs
    (``parts.part_values``), so every output must stack.
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
    return _samples(train, scheme, rows, parts)


def enumerate_auxiliary(train: Sequence[tuple], scheme: PartScheme) -> list[AuxiliarySample]:
    """The full part expansion of the training set, all (i, p) pairs in order."""
    if not train:
        return []
    P = scheme.num_parts
    return _samples(train, scheme, np.repeat(np.arange(len(train)), P),
                    np.tile(np.arange(P), len(train)))


def _samples(train, scheme: PartScheme, rows: np.ndarray, parts: np.ndarray) -> list[AuxiliarySample]:
    """Samples ``(rows[j], parts[j])`` with their output parts."""
    etas = part_values([y for _, y in train], scheme, rows, parts)
    return list(map(AuxiliarySample, rows.tolist(), parts.tolist(), etas))


@dataclass(frozen=True, eq=False)
class AlphaModel:
    """Fitted estimator: anchors plus a factorization of ``K + m lambda I``.

    With ``features`` unset, ``factor`` is the Cholesky factor of the m x m
    system ``K + shift I``. With ``features = F`` (m x d, ``K = F F^T``) it
    is the factor of the d x d system ``F^T F + shift I``: ``apply_inverse``
    then uses the Woodbury identity, and weights and readouts use the
    push-through identity ``(F F^T + s I)^{-1} F = F (F^T F + s I)^{-1}``.
    ``shift`` is ``m * lam + jitter`` either way. The dense inverse is never
    materialized. Immutable after fit, safe for concurrent queries.

    Like ``prepared_anchors`` and ``etas``, readout weights are filled in
    lazily: ``memo_readout_weights`` keeps the weights of each output table
    it is asked for under the caller's key, so decoders built again on the
    same model solve against the factor, and fold, once per table. Two
    concurrent fills of one key compute the same array and the last store
    wins, so a race costs a duplicate solve, never a wrong entry.
    """

    inputs: tuple
    aux: tuple
    kernel: KernelSpec
    lam: float
    scheme: PartScheme
    factor: tuple = field(repr=False)
    jitter: float = 0.0
    features: Optional[np.ndarray] = field(default=None, repr=False)
    _prepared: Optional[PreparedAnchors] = field(default=None, repr=False)
    _etas: Optional[np.ndarray] = field(default=None, repr=False)
    _readouts: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def m(self) -> int:
        return len(self.aux)

    @property
    def shift(self) -> float:
        return self.m * self.lam + self.jitter

    @cached_property
    def anchors(self) -> tuple:
        return tuple((self.inputs[s.chi_ref], s.p) for s in self.aux)

    @cached_property
    def etas(self) -> np.ndarray:
        """Anchor output parts stacked row-wise (``_stack_etas``)."""
        return self._etas if self._etas is not None else _stack_etas(self.aux)

    @cached_property
    def prepared_anchors(self) -> PreparedAnchors:
        if self._prepared is not None:
            return self._prepared
        return _prepare(self.kernel, self.inputs, self.aux, self.scheme)

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        """Solve ``(K + m lambda I) u = v`` for a vector or stacked columns."""
        if self.features is None:
            return cho_solve(self.factor, v)
        F = self.features
        return (v - F @ cho_solve(self.factor, F.T @ v)) / self.shift

    def alphas(self, xs, parts) -> np.ndarray:
        """Weight vectors ``alpha(x, p)`` for every ``x`` in ``xs`` and ``p``
        in ``parts`` as columns, input-major: shape (m, len(xs) * len(parts)).

        With features this is ``F (F^T F + s I)^{-1} B^T`` for the query
        features ``B``, the push-through form of ``(K + s I)^{-1} F B^T``.
        """
        if self.features is None:
            prepared = self.prepared_anchors
            return self.apply_inverse(prepared.expand(prepared.cross(xs, parts)))
        B = self.prepared_anchors.query_features(xs, parts)
        return self.features @ cho_solve(self.factor, B.T)

    def readout_weights(self, E: np.ndarray) -> np.ndarray:
        """Weights ``R`` such that ``readout(R, xs, parts)`` gives
        ``sum_j alpha_j(x, p) E[j]`` per query; ``E`` has one row per anchor.

        Dual form: ``(K + s I)^{-1} E`` folded onto the rows of the prepared
        anchors' cross matrix (``PreparedAnchors.fold``), shape (u, c) for u
        distinct anchor parts. With features the push-through identity ``E^T
        (F F^T + s I)^{-1} F = E^T F (F^T F + s I)^{-1}`` gives ``R = (F^T F +
        s I)^{-1} F^T E``, shape (d, c); this also avoids the cancellation of
        a Woodbury solve contracted with F.
        """
        if self.features is None:
            return self.prepared_anchors.fold(self.apply_inverse(E))
        return cho_solve(self.factor, self.features.T @ E)

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
        """Alpha-weighted sums in the columns of ``alphas(xs, parts)``, shape
        (c, len(xs) * len(parts)), from weights made by ``readout_weights``.

        Without features the queries are read out in blocks of inputs whose
        cross matrix, u x (block * len(parts)) over the u distinct anchor
        parts, fits ``READOUT_BLOCK_BYTES`` (one input per block when a single
        one does not), each block's ``R.T @ cross`` written straight into the
        output: the memory of a decode does not grow with the number of
        queries."""
        if self.features is not None:
            return R.T @ self.prepared_anchors.query_features(xs, parts).T
        xs = list(xs)
        P = len(parts)
        block = max(1, READOUT_BLOCK_BYTES // (8 * self.prepared_anchors.rows * P))
        S = np.empty((R.shape[1], len(xs) * P))
        for i in range(0, len(xs), block):
            C = self.prepared_anchors.cross(xs[i:i + block], parts)
            np.matmul(R.T, C, out=S[:, i * P:i * P + C.shape[1]])
        return S


def _prepare(kernel: KernelSpec, inputs: tuple, aux: tuple, scheme: PartScheme) -> PreparedAnchors:
    """The anchors ``(inputs[s.chi_ref], s.p)`` of ``aux``, with the inputs
    stacked once and indexed by ``chi_ref``."""
    rows = np.fromiter((s.chi_ref for s in aux), dtype=np.intp, count=len(aux))
    parts = np.fromiter((s.p for s in aux), dtype=np.intp, count=len(aux))
    return PreparedAnchors.from_rows(kernel, stack_objects(inputs, scheme), rows, parts, scheme)


def _stack_etas(aux: Sequence[AuxiliarySample]) -> np.ndarray:
    """Output parts of non-empty ``aux`` stacked row-wise: character codes
    of shape (m, l) for strings, float64 of shape (m,) + part shape
    otherwise. Raises ``ShapeMismatchError`` when the parts do not share
    one shape and ``NonFiniteError`` when a numeric part is NaN or infinite."""
    etas = [s.eta for s in aux]
    if isinstance(etas[0], str):
        return stack_objects(etas, SequenceWindows(len(etas[0]), len(etas[0])))
    try:
        E = np.asarray(etas, dtype=float)
    except (TypeError, ValueError):
        raise ShapeMismatchError("anchor output parts do not share one numeric shape") from None
    if not np.isfinite(E).all():
        raise NonFiniteError("non-finite values in the anchor output parts")
    return E


def _factor_system(K: np.ndarray, shift: float, scale: Optional[float] = None,
                   overwrite: bool = False):
    """Cholesky of K + shift*I with diagonal jitter escalation on failure.

    Jitter starts at ``1e-12 * scale`` and grows tenfold up to ``1e-6 *
    scale``. ``scale`` defaults to the mean diagonal of ``K``; the
    feature-space solve passes ``trace(K) / m`` of the full kernel matrix so
    that a jitter means the same on both paths.

    The factor is computed in a column-major copy of ``K``, or with
    ``overwrite`` in the memory of ``K`` itself, which must then be exactly
    symmetric: ``K.T`` is factored, so LAPACK writes the factor over the
    upper triangle of a row-major ``K`` and leaves its lower one intact.
    A failed attempt is undone from that intact triangle and a saved
    diagonal, so every attempt, and the factor, equals the copying path's.
    """
    m = K.shape[0]
    if scale is None:
        scale = np.trace(K) / m
    base = 1e-12 * scale
    A = K.T if overwrite else K.copy(order="F")
    diag = K.diagonal().copy()
    on_diag = np.diag_indices(m)
    jitter = 0.0
    while True:
        A[on_diag] = diag + (shift + jitter)
        try:
            return cho_factor(A, lower=True, overwrite_a=True, check_finite=False), jitter
        except np.linalg.LinAlgError:
            below = np.tril_indices(m, -1)
            A[below] = K[below]  # never written by the factor
            A[on_diag] = diag
            if jitter == 0.0:
                jitter = base if base > 0 else 1e-12
            else:
                jitter *= 10.0
            if jitter > 1e-6 * scale:
                w = np.linalg.eigvalsh(K + shift * np.eye(m))
                cond = abs(w[-1] / w[0]) if w[0] != 0 else np.inf
                raise FactorizationError(
                    f"system of size {m} not factorizable after jitter escalation "
                    f"(condition estimate {cond:.3e})"
                )
            log.debug("factorization retry with jitter %.3e", jitter)


def fit_alpha(
    inputs: Sequence,
    aux: Sequence[AuxiliarySample],
    kernel: KernelSpec,
    lam: float,
    scheme: PartScheme,
    gram: GramMatrix | None = None,
) -> AlphaModel:
    """Fit the weight model on an auxiliary sample set.

    Parameters
    ----------
    inputs : sequence
        Training inputs referenced by ``aux[j].chi_ref``; they are stacked
        once (``parts.stack_objects``), so all must share one shape.
    aux : sequence of AuxiliarySample
        Non-empty auxiliary dataset.
    kernel : KernelSpec
        Pair kernel used for the Gram and all queries.
    lam : float
        Regularization, strictly positive; the system matrix is
        ``K + len(aux) * lam * I``.
    gram : GramMatrix, optional
        Precomputed Gram over the anchors, factored in a copy, so one Gram
        can serve fits at several lambdas. Passing one forces the dense
        m x m solve.

    Raises
    ------
    NonFiniteError
        If an input, a kernel value or a numeric anchor output part is NaN
        or infinite.
    ShapeMismatchError
        If the inputs do not stack or the anchor output parts do not share
        one shape.
    """
    if lam <= 0:
        raise ValueError("lambda must be strictly positive")
    aux = tuple(aux)
    if not aux:
        raise ValueError("auxiliary set must be non-empty")
    inputs = tuple(inputs)
    m = len(aux)
    if gram is not None and gram.entries.shape[0] != m:
        raise ValueError("precomputed Gram size does not match the auxiliary set")
    etas = _stack_etas(aux)
    prepared = _prepare(kernel, inputs, aux, scheme)
    F = prepared.features if gram is None else None
    if F is not None and F.shape[1] < m:
        G = F.T @ F
        factor, jitter = _factor_system(G, m * lam, scale=np.trace(G) / m, overwrite=True)
    else:
        F = None
        own = gram is None
        if own:
            gram = gram_matrix(kernel, prepared, scheme)
        K = np.asarray(gram.entries, dtype=float)
        if not np.isfinite(K).all():
            raise NonFiniteError("non-finite values in the kernel matrix; check the inputs")
        factor, jitter = _factor_system(K, m * lam, overwrite=own)
    if jitter:
        log.info("fit used diagonal jitter %.3e on a system of size %d", jitter, m)
    return AlphaModel(
        inputs=inputs, aux=aux, kernel=kernel, lam=float(lam), scheme=scheme,
        factor=factor, jitter=jitter, features=F, _prepared=prepared, _etas=etas,
    )


def alpha_at(model: AlphaModel, x, p: int) -> np.ndarray:
    """Weight vector ``alpha(x, p)`` of length ``model.m`` for one query."""
    return model.alphas([x], [p])[:, 0]


def alpha_at_parts(model: AlphaModel, x, parts: Sequence[int]) -> np.ndarray:
    """Stacked weights for one input and several parts, shape (m, len(parts))."""
    return model.alphas([x], list(parts))
