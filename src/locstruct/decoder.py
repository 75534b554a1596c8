"""Decoding: turn fitted alpha weights into structured outputs.

Given a fitted model, a prediction for input ``x`` minimizes the weighted
part-loss objective

    sum_p sum_j alpha_j(x, p) * pi(p) * L_p(z_p, eta_j | x_p)

over the output space. Depending on the loss this is done by exact
enumeration over a finite alphabet, by a closed form (weighted means for the
squared loss, a resultant-angle formula for the angular loss), or by a
projected stochastic subgradient loop.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .kernels import kernel_sup
from .losses import LossSpec, part_loss
from .parts import SequenceWindows, index_map, part_weights, scatter_parts
from .training import AlphaModel, alpha_at_parts


class CapacityError(RuntimeError):
    """Enumeration would exceed the configured candidate budget."""


class DegenerateDecodeWarning(UserWarning):
    """A decode fell back to a flagged degenerate branch."""


# ---------------------------------------------------------------------------
# Methods
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactEnumeration:
    """Enumerate every candidate output over a finite per-coordinate alphabet."""

    budget: int
    alphabet: tuple


@dataclass(frozen=True)
class ClosedForm:
    """Loss-specific closed form (squared or angular loss)."""

    normalize: bool = True


@dataclass(frozen=True)
class BoxProjection:
    lo: float
    hi: float


@dataclass(frozen=True)
class AngleWrap:
    """Wrap every coordinate to [-pi, pi)."""


Projection = Union[BoxProjection, AngleWrap, None]


@dataclass(frozen=True, eq=False)
class SGM:
    """Stochastic subgradient decoding with step sizes c / sqrt(t).

    ``average_tail=True`` returns the projected average of the last
    ceil(T/2) iterates; set it to False for the plain last iterate.
    When ``step_c`` is None it defaults to 1 / (kernel sup bound), or 1
    for unbounded kernels.
    """

    iterations: int
    rng: np.random.Generator
    step_c: Optional[float] = None
    projection: Projection = None
    average_tail: bool = True


@dataclass(frozen=True, eq=False)
class DecodeRequest:
    model: AlphaModel
    x: object
    loss: LossSpec
    pi: object
    method: object


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _project(z: np.ndarray, proj: Projection) -> np.ndarray:
    if proj is None:
        return z
    if isinstance(proj, BoxProjection):
        return np.clip(z, proj.lo, proj.hi)
    if isinstance(proj, AngleWrap):
        return (z + np.pi) % (2.0 * np.pi) - np.pi
    raise TypeError(f"unknown projection {proj!r}")


def _eta_matrix(model: AlphaModel) -> tuple[np.ndarray, tuple]:
    """Anchor output parts stacked row-wise, plus the shape of the output
    canvas: the parts' leading channel axes and the scheme's object axes."""
    etas = [np.asarray(s.eta, dtype=float) for s in model.aux]
    shape = etas[0].shape
    if any(e.shape != shape for e in etas):
        raise ValueError("anchor output parts must share one shape for closed-form decoding")
    lead = shape[: len(shape) - len(model.scheme.shape)]
    if math.prod(shape) != math.prod(lead) * index_map(model.scheme).shape[1]:
        raise ValueError(f"anchor parts of shape {shape} do not fit the parts of the scheme")
    return np.stack([e.ravel() for e in etas]), lead + model.scheme.shape


def _active_parts(weights: np.ndarray) -> np.ndarray:
    return np.flatnonzero(weights > 0)


def _read_parts(model: AlphaModel, R: np.ndarray, xs, active: np.ndarray) -> np.ndarray:
    """Alpha-weighted sums ``sum_j alpha_j(x, p) E[j]`` from the readout weights
    ``R`` of ``E``, for every input and active part: (channels, n, len(active))."""
    S = model.readout(R, xs, active)
    return S.reshape(S.shape[0], -1, len(active))


def _scatter(model: AlphaModel, weights: np.ndarray, active: np.ndarray,
             channel: np.ndarray, canvas: tuple) -> np.ndarray:
    """Sum one channel of flat part values, shape (d, n, len(active)),
    weighted by pi, into outputs of shape (n,) + ``canvas``."""
    V = np.multiply(np.moveaxis(channel, 0, -1), weights[active][:, None], order="C")
    return scatter_parts(V, model.scheme, active).reshape((V.shape[0],) + canvas)


# ---------------------------------------------------------------------------
# Exact enumeration
# ---------------------------------------------------------------------------

EXACT_TIE_RTOL = 1e-9


def decode_exact(req: DecodeRequest):
    """Minimize the decoding objective by enumerating every candidate output.

    Candidates are sequences over ``method.alphabet`` in lexicographic order
    (sorted alphabet), and ties resolve to the lexicographically smallest
    output. Tie detection allows a relative slack of ``EXACT_TIE_RTOL`` so
    that mathematically equal objectives still tie when different summation
    orders round them a few ulps apart (repeated part contents over a finite
    alphabet make such exact ties routine). Raises ``CapacityError`` when
    the candidate count exceeds the budget.
    """
    method = req.method
    if not isinstance(method, ExactEnumeration):
        raise TypeError("decode_exact requires an ExactEnumeration method")
    scheme = req.model.scheme
    if not isinstance(scheme, SequenceWindows):
        raise TypeError("exact enumeration is defined for sequence schemes")
    alphabet = sorted(method.alphabet)
    count = len(alphabet) ** scheme.seq_len
    if count > method.budget:
        raise CapacityError(f"{count} candidates exceed budget {method.budget}")

    weights = part_weights(req.pi, scheme.num_parts)
    parts = list(range(scheme.num_parts))
    A = alpha_at_parts(req.model, req.x, parts)  # (m, |P|)
    etas = [s.eta for s in req.model.aux]
    x_parts = [req.x[p : p + scheme.window_len] for p in parts]

    best = None
    best_obj = math.inf
    for symbols in itertools.product(alphabet, repeat=scheme.seq_len):
        z = "".join(symbols) if isinstance(alphabet[0], str) else symbols
        obj = 0.0
        for p in parts:
            if weights[p] == 0.0:
                continue
            z_p = z[p : p + scheme.window_len]
            acc = 0.0
            for j, eta in enumerate(etas):
                a = A[j, p]
                if a != 0.0:
                    acc += a * part_loss(req.loss, z_p, eta, x_parts[p])
            obj += weights[p] * acc
        if best is None or obj < best_obj - EXACT_TIE_RTOL * (1.0 + abs(best_obj)):
            best_obj = obj
            best = z
    return best


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

class LeastSquaresDecoder:
    """Reusable closed-form decoder for the squared part loss.

    Per part the minimizer of ``sum_j w_j ||z_p - eta_j||^2`` is the weighted
    mean ``sum_j w_j eta_j / sum_j w_j`` whenever the weight total is
    positive; otherwise the unnormalized weighted sum is returned and the
    decode is flagged. Overlapping parts are combined per coordinate by
    pi-weighted averaging of the per-part solutions.

    With ``normalize=False`` every part uses the unnormalized weighted sum,
    which is the conditional-mean readout of the underlying ridge fit.
    """

    def __init__(self, model: AlphaModel, pi, normalize: bool = True):
        self.model = model
        self.weights = part_weights(pi, model.scheme.num_parts)
        self.normalize = normalize
        H, self.canvas = _eta_matrix(model)
        ones = np.ones((model.m, 1))
        # the readout yields (sum_j alpha_j eta_j, sum_j alpha_j) per query
        self._readout = model.readout_weights(np.hstack([H, ones]))

    def decode(self, x) -> np.ndarray:
        return self.decode_batch([x])[0]

    def decode_batch(self, xs) -> np.ndarray:
        """Decode several inputs with one batched kernel evaluation."""
        active = _active_parts(self.weights)
        S = _read_parts(self.model, self._readout, xs, active)
        wy, wsum = S[:-1], S[-1]
        if self.normalize:
            ok = wsum > 1e-10
            if not np.all(ok):
                warnings.warn(
                    "near-zero weight total in a least-squares decode, using the "
                    "unnormalized weighted sum",
                    DegenerateDecodeWarning,
                )
            wy = wy / np.where(ok, wsum, 1.0)
        num = _scatter(self.model, self.weights, active, wy, self.canvas)
        den = _scatter(self.model, self.weights, active, np.ones(wy[:, :1].shape), self.canvas)
        out = np.zeros_like(num)
        np.divide(num, den, out=out, where=den > 0)
        return out


def decode_least_squares(req: DecodeRequest) -> np.ndarray:
    """Closed-form decode for the squared vector loss."""
    if req.loss.kind != "squared_vector":
        raise ValueError("decode_least_squares requires the squared_vector loss")
    normalize = req.method.normalize if isinstance(req.method, ClosedForm) else True
    return LeastSquaresDecoder(req.model, req.pi, normalize=normalize).decode(req.x)


class AngularDecoder:
    """Reusable closed-form decoder for the angular sin^2 loss.

    Per output coordinate the weights ``w = alpha_j(x, p) * pi(p)`` of all
    covering parts and anchors accumulate into ``c = sum w cos 2 theta_j`` and
    ``s = sum w sin 2 theta_j``; the minimizer of ``sum w sin^2(theta -
    theta_j)`` is ``0.5 * atan2(s, c)``. Coordinates with ``c = s = 0`` fall
    back to 0 and the decode is flagged.
    """

    def __init__(self, model: AlphaModel, pi):
        self.model = model
        self.weights = part_weights(pi, model.scheme.num_parts)
        H, self.canvas = _eta_matrix(model)
        self._readout = model.readout_weights(np.hstack([np.cos(2.0 * H), np.sin(2.0 * H)]))

    def decode(self, x) -> np.ndarray:
        return self.decode_batch([x])[0]

    def decode_batch(self, xs) -> np.ndarray:
        active = _active_parts(self.weights)
        S = _read_parts(self.model, self._readout, xs, active)
        d = S.shape[0] // 2
        c = _scatter(self.model, self.weights, active, S[:d], self.canvas)
        s = _scatter(self.model, self.weights, active, S[d:], self.canvas)
        theta = 0.5 * np.arctan2(s, c)
        dead = (c == 0.0) & (s == 0.0)
        if np.any(dead):
            theta = np.where(dead, 0.0, theta)
            warnings.warn(
                "zero resultant in an angular decode, returning 0 there",
                DegenerateDecodeWarning,
            )
        return theta


def decode_angular(req: DecodeRequest) -> np.ndarray:
    """Closed-form decode for the angular loss; entries lie in [-pi, pi)."""
    if req.loss.kind != "angular_sin_sq":
        raise ValueError("decode_angular requires the angular_sin_sq loss")
    return AngularDecoder(req.model, req.pi).decode(req.x)


# ---------------------------------------------------------------------------
# Stochastic subgradient meta-algorithm
# ---------------------------------------------------------------------------

def _part_subgradient(loss: LossSpec, z_part: np.ndarray, eta: np.ndarray) -> np.ndarray:
    if loss.kind == "squared_vector":
        return 2.0 * (z_part - eta)
    if loss.kind == "angular_sin_sq":
        return np.sin(2.0 * (z_part - eta)) / z_part.size
    raise ValueError(f"no subgradient rule for loss {loss.kind!r}")


def decode_sgm(req: DecodeRequest) -> np.ndarray:
    """Stochastic subgradient decode.

    Starting from ``z = 0``, each iteration samples a part ``p`` from ``pi``
    and an anchor ``j`` with probability proportional to ``|alpha_j(x, p)|``,
    then steps along a subgradient of ``sign(alpha_j) * A(x, p) * L_p(., eta_j)``
    with step size ``c / sqrt(t)`` followed by projection. Iterations whose
    total weight ``A(x, p)`` vanishes carry no information and are skipped;
    if every iteration skips, the start point is returned and flagged.

    A run is sequential and owns ``method.rng``; decode distinct inputs with
    distinct generators to run them in parallel.
    """
    method = req.method
    if not isinstance(method, SGM):
        raise TypeError("decode_sgm requires an SGM method")
    if not req.loss.is_subdifferentiable:
        raise ValueError(f"loss {req.loss.kind!r} is not subdifferentiable")
    model = req.model
    scheme = model.scheme
    weights = part_weights(req.pi, scheme.num_parts)
    total = weights.sum()
    if total <= 0:
        raise ValueError("part weights must have positive total")
    probs = weights / total

    projection = method.projection
    if projection is None and req.loss.kind == "angular_sin_sq":
        projection = AngleWrap()
    if method.step_c is not None:
        c = float(method.step_c)
    else:
        sup = kernel_sup(model.kernel)
        c = 1.0 / sup if sup else 1.0

    etas, canvas = _eta_matrix(model)
    J = index_map(scheme, math.prod(canvas) // math.prod(scheme.shape))
    z = np.zeros(math.prod(canvas))  # flat, shaped as the canvas on return

    # alpha depends on (x, p) only, so cache per part
    active = _active_parts(probs)
    alphas = alpha_at_parts(model, req.x, active)  # (m, n_active)
    col_of = {int(p): i for i, p in enumerate(active)}
    totals = np.abs(alphas).sum(axis=0)
    cums = np.cumsum(np.abs(alphas), axis=0)

    T = int(method.iterations)
    rng = method.rng
    part_draws = rng.choice(len(probs), size=T, p=probs)
    anchor_u = rng.random(T)

    tail_from = T - math.ceil(T / 2)
    tail_sum = np.zeros_like(z)
    stepped = False
    for t in range(1, T + 1):
        p = int(part_draws[t - 1])
        col = col_of[p]
        A_xp = totals[col]
        if A_xp > 0.0:
            j = min(int(np.searchsorted(cums[:, col], anchor_u[t - 1] * A_xp)), model.m - 1)
            g = _part_subgradient(req.loss, z[J[p]], etas[j])
            u = math.copysign(1.0, alphas[j, col]) * A_xp * g
            step = c / math.sqrt(t)
            z[J[p]] += -step * u
            z = _project(z, projection)
            stepped = True
        if t > tail_from:
            tail_sum += z

    if not stepped:
        warnings.warn("every subgradient iteration skipped, returning the start point",
                      DegenerateDecodeWarning)
    elif method.average_tail:
        z = _project(tail_sum / (T - tail_from), projection)
    return z.reshape(canvas)
