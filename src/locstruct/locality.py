"""Empirical locality diagnostics.

For parts p, q of the same input, the within-locality covariance

    C[p, q] = E_x S(x_p, x_q) - E_{x, x'} S(x_p, x'_q)

measures how much more similar two parts of one input are than parts of two
independent inputs; it vanishes when the parts are independent. The map is
estimated from a sample together with jackknife standard errors, and
summarized by the constants (r^2, s, q) and an exponential decay rate fitted
against the part distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .kernels import LinearParts, PartKernel, part_kernel_matrix
from .parts import PartScheme, Uniform, Weighted, gather_parts, part_distance, stack_objects


class InsufficientDataError(ValueError):
    """Fewer samples than the estimator needs."""


class UnsupportedConfigurationError(ValueError):
    """A diagnostic was requested in a configuration it does not support."""


@dataclass(frozen=True)
class RawInner:
    """Similarity S(a, b) = <a, b> between raw part vectors."""


@dataclass(frozen=True)
class SquaredKernel:
    """Similarity S(a, b) = k(a, b)^2 for a base part kernel."""

    base: PartKernel


Similarity = Union[RawInner, SquaredKernel]


@dataclass(frozen=True, eq=False)
class LocalityReport:
    """Within-locality covariance map with standard errors and constants.

    ``cov_map[p, q]`` estimates C[p, q]; ``std_err`` holds matching jackknife
    standard errors; ``r_sq`` is the largest observed absolute similarity.
    The aggregate constants and the fitted decay rate are filled in by
    ``locality_constants`` and stay None until then.
    """

    cov_map: np.ndarray
    std_err: np.ndarray
    r_sq: float
    n_samples: int
    similarity: Similarity
    s_hat: Optional[float] = None
    q_hat: Optional[float] = None
    gamma_hat: Optional[float] = None


def _similarity_matrix(sim: Similarity, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    if isinstance(sim, RawInner):
        return part_kernel_matrix(LinearParts(), A, B)
    if isinstance(sim, SquaredKernel):
        return part_kernel_matrix(sim.base, A, B) ** 2
    raise TypeError(f"unknown similarity {sim!r}")


def _jackknife(diag: np.ndarray, t2: float, pair_count, rest: np.ndarray,
               rest_count) -> tuple[float, float]:
    """Covariance estimate and jackknife standard error of one cell from
    each sample's similarity with itself (``diag``), the cross sum ``t2``
    over ``pair_count`` ordered pairs of distinct samples and, per sample,
    the cross sum ``rest`` over the ``rest_count`` of those pairs that do
    not touch it."""
    n = diag.size
    t1 = diag.sum()
    est = t1 / n - t2 / pair_count
    loo = (t1 - diag) / (n - 1) - rest / rest_count  # the leave-one-out estimates
    se = math.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2))
    return float(est), se


def _cell_estimate(S: np.ndarray) -> tuple[float, float]:
    """Covariance estimate and jackknife standard error from one n x n
    similarity matrix (rows: first argument's sample, cols: second's)."""
    n = S.shape[0]
    diag = np.diag(S)
    row = S.sum(axis=1) - diag
    col = S.sum(axis=0) - diag
    t2 = row.sum()
    return _jackknife(diag, t2, n * (n - 1), t2 - row - col, (n - 1) * (n - 2))


def _cell_estimate_subsampled(S: np.ndarray, pairs: tuple) -> tuple[float, float]:
    """Like ``_cell_estimate`` but with the cross term averaged over a fixed
    subset of ordered distinct sample pairs."""
    n = S.shape[0]
    rows_idx, cols_idx = pairs
    diag = np.diag(S)
    vals = S[rows_idx, cols_idx]
    t2 = vals.sum()
    M = vals.size
    # per sample, the drawn pairs it is in: row ends first, then column ends
    touch = np.concatenate([rows_idx, cols_idx])
    touch_sum = np.bincount(touch, weights=np.concatenate([vals, vals]), minlength=n)
    touch_cnt = np.bincount(touch, minlength=n).astype(float)
    cnt_left = M - touch_cnt
    if np.any(cnt_left <= 0):
        # a sample touches every drawn pair; fall back to a crude error bar
        est = diag.sum() / n - t2 / M
        return float(est), float(abs(est))
    return _jackknife(diag, t2, M, t2 - touch_sum, cnt_left)


def empirical_cov_map(samples, scheme: PartScheme, similarity: Similarity,
                      pair_subsample: Optional[int] = None,
                      rng: Optional[np.random.Generator] = None) -> LocalityReport:
    """Estimate the within-locality covariance map from a sample of inputs.

    The first expectation is the mean over the sample, the second the mean
    over all ordered pairs of distinct samples. Standard errors come from a
    leave-one-out jackknife over the samples, which needs at least 3 of
    them, so that every leave-one-out set still has a pair; fewer raise
    ``InsufficientDataError``. Invariant to permuting the sample list.

    The pair loop is O(n^2) per cell; for data beyond desk scale pass
    ``pair_subsample`` to average the cross term over that many randomly
    drawn ordered pairs instead (one shared draw for all cells, so the map
    stays symmetric), with ``rng`` owning the draw; fewer pairs than samples
    raise ``UnsupportedConfigurationError``. Parts must be fixed-shape
    numeric arrays; strings raise ``UnsupportedConfigurationError`` too.
    """
    samples = list(samples)
    n = len(samples)
    if n < 3:
        raise InsufficientDataError(f"need at least 3 samples, got {n}")
    pairs = None
    if pair_subsample is not None and pair_subsample < n * (n - 1):
        if pair_subsample < n:
            raise UnsupportedConfigurationError(
                f"pair_subsample must be at least the sample count {n}, got {pair_subsample}")
        if rng is None:
            raise ValueError("pair subsampling needs an rng")
        flat = rng.choice(n * (n - 1), size=pair_subsample, replace=False)
        rows_idx = flat // (n - 1)
        cols_idx = flat % (n - 1)
        cols_idx = cols_idx + (cols_idx >= rows_idx)  # skip the diagonal
        pairs = (rows_idx, cols_idx)
    P = scheme.num_parts
    X = stack_objects(samples, scheme)
    if X.dtype.kind != "f":
        raise UnsupportedConfigurationError("the covariance map needs fixed-shape numeric parts")
    # (P, n, d): one column gather, made part-major
    mats = np.ascontiguousarray(gather_parts(X, scheme, None, np.arange(P)).transpose(1, 0, 2))
    cov = np.zeros((P, P))
    se = np.zeros((P, P))
    r_sq = 0.0
    for p in range(P):
        for q in range(p, P):
            S = _similarity_matrix(similarity, mats[p], mats[q])
            r_sq = max(r_sq, float(np.max(np.abs(S))))
            if pairs is None:
                est, err = _cell_estimate(S)
            else:
                est, err = _cell_estimate_subsampled(S, pairs)
            cov[p, q] = cov[q, p] = est
            se[p, q] = se[q, p] = err
    return LocalityReport(cov_map=cov, std_err=se, r_sq=r_sq, n_samples=n,
                          similarity=similarity)


def locality_constants(report: LocalityReport, scheme: PartScheme, pi=None):
    """Aggregate constants (s_hat, q_hat, gamma_hat) from a covariance map.

    Requires a map computed with a squared-kernel similarity and a uniform
    part distribution. ``q_hat`` averages the map, ``s_hat = |P| * q_hat``,
    and ``gamma_hat`` is the decay rate of a least-squares line fitted to
    ``log(C / r^2)`` against the negated part distance over off-diagonal
    cells that clear three standard errors; it is None unless at least
    three cells at two or more distinct distances qualify, since a line
    through a single distance has no slope.
    """
    if not isinstance(report.similarity, SquaredKernel):
        raise UnsupportedConfigurationError(
            "locality constants require a squared-kernel similarity map"
        )
    if pi is not None:
        if isinstance(pi, Weighted):
            probs = pi.probabilities()
            if not np.allclose(probs, probs[0]):
                raise UnsupportedConfigurationError("locality constants require a uniform part distribution")
        elif not isinstance(pi, Uniform):
            raise UnsupportedConfigurationError(f"unsupported part distribution {pi!r}")
    P = report.cov_map.shape[0]
    q_hat = float(report.cov_map.sum() / P**2)
    s_hat = float(P * q_hat)

    floor = 1e-12 * max(report.r_sq, 1e-300)
    us, ds = [], []
    for p in range(P):
        for q in range(P):
            if p == q:
                continue
            c = report.cov_map[p, q]
            if c > 3.0 * report.std_err[p, q]:
                us.append(math.log(max(c, floor) / report.r_sq))
                ds.append(-part_distance(scheme, p, q))
    gamma_hat = None
    if len(us) >= 3 and len(set(ds)) >= 2:
        slope, _ = np.polyfit(np.asarray(ds), np.asarray(us), 1)
        gamma_hat = float(slope)
    return s_hat, q_hat, gamma_hat


@dataclass(frozen=True)
class SequenceBound:
    s_exact: float
    s_bound: float
    holds: bool


def sequence_bound_check(r_sq: float, gamma: float, num_parts: int) -> SequenceBound:
    """Compare the exact line-metric locality constant against its
    geometric-series bound.

    ``s_exact = (r^2 / |P|) sum_{p,q} exp(-gamma |p - q|)`` by direct
    summation, ``s_bound = 2 r^2 / (1 - exp(-gamma))``. Requires a finite
    gamma > 0 and a finite r^2 >= 0; NaN fails both checks.
    """
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if not 0 <= r_sq < math.inf:
        raise ValueError(f"r_sq must be >= 0 and finite, got {r_sq}")
    if num_parts < 1:
        raise ValueError("num_parts must be positive")
    idx = np.arange(num_parts)
    total = np.exp(-gamma * np.abs(idx[:, None] - idx[None, :])).sum()
    s_exact = float(r_sq / num_parts * total)
    s_bound = float(2.0 * r_sq / (1.0 - math.exp(-gamma)))
    return SequenceBound(s_exact=s_exact, s_bound=s_bound, holds=s_exact <= s_bound + 1e-12)
