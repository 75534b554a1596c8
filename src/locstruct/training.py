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
built; otherwise the dense m x m system is factored.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .kernels import KernelSpec, PreparedAnchors, gram_matrix, GramMatrix, has_feature_map
from .parts import PartDistribution, PartScheme, extract_part, sample_part

log = logging.getLogger(__name__)


class FactorizationError(np.linalg.LinAlgError):
    """Raised when the regularized kernel system cannot be factorized."""


class NonFiniteError(ValueError):
    """Raised when kernel values or anchor output parts are NaN or infinite."""


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
    from ``pi``, and stores the selected output part. Reproducible for a
    fixed generator state.
    """
    if not train:
        raise ValueError("training set must be non-empty")
    if m < 1:
        raise ValueError("m must be >= 1")
    n = len(train)
    out = []
    for _ in range(m):
        i = int(rng.integers(n))
        p = sample_part(pi, rng)
        eta = extract_part(train[i][1], scheme, p)
        out.append(AuxiliarySample(chi_ref=i, p=p, eta=eta))
    return out


def enumerate_auxiliary(train: Sequence[tuple], scheme: PartScheme) -> list[AuxiliarySample]:
    """The full part expansion of the training set, all (i, p) pairs in order."""
    out = []
    for i, (_, y) in enumerate(train):
        for p in range(scheme.num_parts):
            out.append(AuxiliarySample(chi_ref=i, p=p, eta=extract_part(y, scheme, p)))
    return out


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
    def prepared_anchors(self) -> PreparedAnchors:
        if self._prepared is not None:
            return self._prepared
        return PreparedAnchors(self.kernel, self.anchors, self.scheme)

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        """Solve ``(K + m lambda I) u = v`` for a vector or stacked columns."""
        if self.features is None:
            return cho_solve(self.factor, v)
        F = self.features
        return (v - F @ cho_solve(self.factor, F.T @ v)) / self.shift

    def alphas(self, queries) -> np.ndarray:
        """Weight vectors ``alpha(q)`` stacked as columns, shape (m, len(queries)).

        With features this is ``F (F^T F + s I)^{-1} B^T`` for the query
        features ``B``, the push-through form of ``(K + s I)^{-1} F B^T``.
        """
        if self.features is None:
            return self.apply_inverse(self.prepared_anchors.cross(queries))
        B = self.prepared_anchors.query_features(queries)
        return self.features @ cho_solve(self.factor, B.T)

    def readout_weights(self, E: np.ndarray) -> np.ndarray:
        """Weights ``R`` such that ``readout(R, queries)`` gives
        ``sum_j alpha_j(q) E[j]`` per query; ``E`` has one row per anchor.

        Dual form: ``R = (K + s I)^{-1} E``, shape (m, c). With features the
        push-through identity ``E^T (F F^T + s I)^{-1} F = E^T F (F^T F +
        s I)^{-1}`` gives ``R = (F^T F + s I)^{-1} F^T E``, shape (d, c); this
        also avoids the cancellation of a Woodbury solve contracted with F.
        """
        if self.features is None:
            return self.apply_inverse(E)
        return cho_solve(self.factor, self.features.T @ E)

    def readout(self, R: np.ndarray, queries) -> np.ndarray:
        """Alpha-weighted sums for ``queries``, shape (c, len(queries)), from
        weights made by ``readout_weights``."""
        if self.features is None:
            return R.T @ self.prepared_anchors.cross(queries)
        return R.T @ self.prepared_anchors.query_features(queries).T


def _factor_system(K: np.ndarray, shift: float, scale: Optional[float] = None):
    """Cholesky of K + shift*I with diagonal jitter escalation on failure.

    Jitter starts at ``1e-12 * scale`` and grows tenfold up to ``1e-6 *
    scale``. ``scale`` defaults to the mean diagonal of ``K``; the
    feature-space solve passes ``trace(K) / m`` of the full kernel matrix so
    that a jitter means the same on both paths.
    """
    m = K.shape[0]
    if scale is None:
        scale = np.trace(K) / m
    base = 1e-12 * scale
    jitter = 0.0
    while True:
        A = K.copy()
        A.flat[:: m + 1] += shift + jitter
        try:
            return cho_factor(A, lower=True, overwrite_a=True, check_finite=False), jitter
        except np.linalg.LinAlgError:
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
        Training inputs referenced by ``aux[j].chi_ref``.
    aux : sequence of AuxiliarySample
        Non-empty auxiliary dataset.
    kernel : KernelSpec
        Pair kernel used for the Gram and all queries.
    lam : float
        Regularization, strictly positive; the system matrix is
        ``K + len(aux) * lam * I``.
    gram : GramMatrix, optional
        Precomputed Gram over the anchors. Passing one forces the dense
        m x m solve.

    Raises
    ------
    NonFiniteError
        If a kernel value or a numeric anchor output part is NaN or infinite.
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
    _check_finite_outputs(aux)
    anchors = [(inputs[s.chi_ref], s.p) for s in aux]
    prepared = None
    if gram is None and has_feature_map(kernel):
        prepared = PreparedAnchors(kernel, anchors, scheme)
    F = prepared.features if prepared is not None else None
    if F is not None and F.shape[1] < m:
        _check_finite(F, "anchor features")
        G = F.T @ F
        factor, jitter = _factor_system(G, m * lam, scale=np.trace(G) / m)
    else:
        F = None
        if gram is None:
            gram = gram_matrix(kernel, anchors, scheme)
        K = np.asarray(gram.entries, dtype=float)
        _check_finite(K, "kernel matrix")
        factor, jitter = _factor_system(K, m * lam)
    if jitter:
        log.info("fit used diagonal jitter %.3e on a system of size %d", jitter, m)
    return AlphaModel(
        inputs=inputs, aux=aux, kernel=kernel, lam=float(lam), scheme=scheme,
        factor=factor, jitter=jitter, features=F, _prepared=prepared,
    )


def _check_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise NonFiniteError(f"non-finite values in the {what}; check the inputs for NaN or inf")


def _check_finite_outputs(aux: tuple) -> None:
    """Reject NaN or infinite values in numeric anchor output parts."""
    etas = [s.eta for s in aux if not isinstance(s.eta, str)]
    if not etas:
        return
    try:
        stacked = [np.asarray(etas)]  # one array when the parts share a shape
    except ValueError:
        stacked = [np.asarray(e) for e in etas]
    for a in stacked:
        if a.dtype.kind in "fc" and not np.isfinite(a).all():
            raise NonFiniteError("non-finite values in the anchor output parts")


def alpha_at(model: AlphaModel, x, p: int) -> np.ndarray:
    """Weight vector ``alpha(x, p)`` of length ``model.m`` for one query."""
    return model.alphas([(x, int(p))])[:, 0]


def alpha_at_parts(model: AlphaModel, x, parts: Sequence[int]) -> np.ndarray:
    """Stacked weights for one input and several parts, shape (m, len(parts))."""
    return model.alphas([(x, int(p)) for p in parts])
