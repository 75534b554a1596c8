"""Decoding: turn fitted alpha weights into structured outputs.

Given a fitted model, a prediction for input ``x`` minimizes the weighted
part-loss objective

    sum_p sum_j alpha_j(x, p) * pi(p) * L_p(z_p, eta_j | x_p)

over the output space. Depending on the loss this is done exactly over a
finite alphabet by dynamic programming over windows, by a closed form
(weighted means for the squared loss, a resultant-angle formula for the
angular loss), or by projected stochastic subgradient steps, run as one
recurrence per output coordinate. The exact and closed-form decoders read
their alpha-weighted sums out of readout weights ``(K + m lambda I)^{-1} E``
that the model keeps per output table ``E``, folded onto the distinct anchor
parts, so no query solves the m x m system and a restriction kernel is
evaluated once per distinct anchor part.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .kernels import kernel_sup
from .losses import ANGULAR_SIN_SQ, SQUARED_VECTOR, LossSpec, part_losses
from .parts import (
    PartScheme,
    SequenceWindows,
    ShapeMismatchError,
    _sum_parts,
    index_map,
    part_weights,
    stack_objects,
)
from .training import AlphaModel, _LambdaPath, alpha_at_parts


class CapacityError(RuntimeError):
    """An exact decode would exceed the configured table budget."""


class DegenerateDecodeWarning(UserWarning):
    """A decode fell back to a flagged degenerate branch."""


# ---------------------------------------------------------------------------
# Methods
# ---------------------------------------------------------------------------

def _check_count(name: str, value) -> None:
    """Refuse a count that is not a positive integer: a float such as 2.5
    would be truncated and a bool counted as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class ExactEnumeration:
    """Exact decoding over a finite per-coordinate alphabet.

    ``alphabet`` holds distinct symbols, either single characters or numbers.
    ``budget`` bounds the cost table of ``decode_exact``, ``num_parts *
    len(alphabet) ** window_len`` entries. The output is the
    lexicographically smallest one within ``EXACT_TIE_RTOL`` of the minimum.
    """

    budget: int
    alphabet: tuple

    def __post_init__(self):
        alphabet = tuple(self.alphabet)
        _check_count("budget", self.budget)
        if not alphabet:
            raise ValueError("alphabet must not be empty")
        if len(set(alphabet)) != len(alphabet):
            raise ValueError(f"alphabet {alphabet!r} repeats a symbol")
        if any(isinstance(a, str) for a in alphabet) and not all(
                isinstance(a, str) and len(a) == 1 for a in alphabet):
            raise ValueError(f"string symbols must be single characters, got {alphabet!r}")
        object.__setattr__(self, "alphabet", alphabet)


@dataclass(frozen=True)
class ClosedForm:
    """Loss-specific closed form (squared or angular loss)."""

    normalize: bool = True


@dataclass(frozen=True)
class BoxProjection:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"box projection needs lo <= hi, got {self.lo!r} and {self.hi!r}")


@dataclass(frozen=True)
class AngleWrap:
    """Wrap every coordinate to [-pi, pi); a value just below -pi, which
    rounds to 2 pi - pi, is put on the seam at -pi."""


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

    def __post_init__(self):
        _check_count("iterations", self.iterations)
        if self.step_c is not None and not (self.step_c > 0 and math.isfinite(self.step_c)):
            raise ValueError(f"step_c must be positive and finite, got {self.step_c!r}")


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

def _project(z: np.ndarray, proj: Projection, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``z`` projected, into ``out`` when given. Every projection is a bitwise
    fixed point on its own outputs, so projecting again changes nothing."""
    if proj is None:
        return z
    if isinstance(proj, BoxProjection):
        return np.clip(z, proj.lo, proj.hi, out=out)
    if isinstance(proj, AngleWrap):
        w = np.add(z, np.pi, out=out)
        np.remainder(w, 2.0 * np.pi, out=w)
        w -= np.pi
        # a value just below -pi wraps to 2 pi - pi by rounding: the seam is -pi
        w[w >= np.pi] = -np.pi
        return w
    raise TypeError(f"unknown projection {proj!r}")


def _eta_matrix(path: _LambdaPath) -> tuple[np.ndarray, tuple]:
    """Anchor output parts of a lambda path (``model.path`` for a model),
    stacked row-wise and flattened, plus the shape of the output canvas: the
    parts' leading channel axes and the scheme's object axes."""
    E, scheme = path.etas, path.scheme
    if E.dtype.kind != "f":
        raise ValueError("closed-form decoding needs numeric anchor output parts")
    shape = E.shape[1:]
    lead = shape[: len(shape) - len(scheme.shape)]
    if math.prod(shape) != math.prod(lead) * index_map(scheme).shape[1]:
        raise ValueError(f"anchor parts of shape {shape} do not fit the parts of the scheme")
    return E.reshape(len(E), -1), lead + scheme.shape


def _positive_weights(pi, num_parts: int) -> np.ndarray:
    """``part_weights``, refused when their total is not positive."""
    weights = part_weights(pi, num_parts)
    if not weights.sum() > 0:  # NaN fails too
        raise ValueError("part weights must have positive total")
    return weights


def _active_parts(weights: np.ndarray) -> np.ndarray:
    return np.flatnonzero(weights > 0)


def _read_parts(model: AlphaModel, R: np.ndarray, xs, active: np.ndarray) -> np.ndarray:
    """Alpha-weighted sums ``sum_j alpha_j(x, p) E[j]`` from the readout weights
    ``R`` of ``E``, for every input and active part: (n, len(active), channels),
    a reshape of ``AlphaModel.readout``'s rows, which the caller may write into."""
    S = model.readout(R, xs, active)
    return S.reshape(-1, len(active), S.shape[1])


def _scatter(scheme: PartScheme, weights: np.ndarray, active: np.ndarray, values: np.ndarray,
             canvas: tuple) -> np.ndarray:
    """Sum flat part values, shape (n, len(active), d), weighted by pi, into
    outputs of shape (n,) + ``canvas``. The weighted values are one new
    array, which the scatter adds into in place when the active parts tile
    the canvas in order."""
    V = np.multiply(values, weights[active][:, None], order="C")
    return _sum_parts(V, scheme, active, reuse=True).reshape((len(V),) + canvas)


# ---------------------------------------------------------------------------
# Exact decoding over a finite alphabet
# ---------------------------------------------------------------------------

EXACT_TIE_RTOL = 1e-9


def _first_within(totals: np.ndarray, bound: float) -> int:
    """Index of the first entry of ``totals`` at most ``bound``, or of its
    minimum when rounding leaves every entry a few ulps above."""
    return int(np.argmax(totals <= max(bound, totals.min())))


def decode_exact(req: DecodeRequest):
    """Minimize the decoding objective exactly over outputs on ``method.alphabet``.

    With window length ``l`` the objective is ``sum_p w_p c_p(z[p:p+l])``,
    where the cost table ``c_p(u) = sum_j alpha_j(x, p) L(u, eta_j)`` holds
    every window value ``u``. The table is a readout: with ``R = (K + m
    lambda I)^{-1} L`` for the m x |alphabet|^l table ``L`` of window losses
    against the anchors, ``c_p(u) = k(x, p)^T R[:, u]``. ``R`` depends on the
    model, the loss and the alphabet only, so it is solved once per model,
    folded onto the u distinct anchor windows (u x |alphabet|^l floats) and
    kept there (``AlphaModel.memo_readout_weights``); a query costs one
    cross-kernel readout against the u distinct windows. A min-sum dynamic
    program over the last ``l - 1`` symbols (the Viterbi recursion) adds
    the parts in order, so its minimum equals, bit for bit, the least
    running sum over all |alphabet|^k outputs of that cost table, in
    O(num_parts * |alphabet|^l) time.

    Tie rule: the result is the lexicographically smallest output (over the
    sorted alphabet) whose objective lies within ``EXACT_TIE_RTOL * (1 +
    |min|)`` of the minimum. The slack lets mathematically equal objectives
    tie when different summation orders round them a few ulps apart
    (repeated part contents over a finite alphabet make such ties routine).
    A backward cost-to-go pass lets a forward pick take, position by
    position, the smallest symbol that can still finish within the slack.
    Where ties are exact this is the first minimizer in lexicographic order.

    Returns a string for string alphabets and a tuple otherwise. Raises
    ``CapacityError`` when the cost table, ``num_parts * |alphabet|^l``
    entries, exceeds ``method.budget``.
    """
    method = req.method
    if not isinstance(method, ExactEnumeration):
        raise TypeError("decode_exact requires an ExactEnumeration method")
    model = req.model
    scheme = model.scheme
    if not isinstance(scheme, SequenceWindows):
        raise TypeError("exact decoding is defined for sequence schemes")
    alphabet = sorted(method.alphabet)
    s, l, P = len(alphabet), scheme.window_len, scheme.num_parts
    U, q = s**l, s ** (l - 1)
    if P * U > method.budget:
        raise CapacityError(f"a cost table of {P * U} entries exceeds budget {method.budget}")
    text = isinstance(alphabet[0], str)
    if text and req.loss.kind != "zero_one_window":
        raise ValueError(f"loss {req.loss.kind!r} needs a numeric alphabet")
    if model.etas.shape[1:] != (l,):
        raise ShapeMismatchError(f"anchor output parts of shape {model.etas.shape[1:]} are "
                                 f"not windows of length {l}")
    weights = part_weights(req.pi, P)

    def losses() -> np.ndarray:
        """Window values in lexicographic order against every anchor: (m, U)."""
        codes = stack_objects(["".join(alphabet) if text else alphabet],
                              SequenceWindows(s, s))[0]
        windows = codes[np.indices((s,) * l).reshape(l, U).T]  # (U, l)
        return part_losses(req.loss, windows[None], model.etas[:, None])

    R = model.memo_readout_weights((req.loss.kind, tuple(alphabet)), losses)
    cost = weights[:, None] * model.readout(R, [req.x], np.arange(P))  # (P, U)

    # window u = (prefix of l - 1 symbols) * s + last symbol; the next window
    # keeps the last l - 1 symbols, so u's successors are (u % q) * s + b
    # sums start from 0.0 like the loop's; a part of zero weight adds +-0.0,
    # which leaves every sum as skipping the part would
    head = 0.0 + cost[0]
    ahead = head  # least running sum of parts 0..p that ends in window u
    for p in range(1, P):
        ahead = np.repeat(ahead.reshape(s, q).min(axis=0), s) + cost[p]
    togo = np.zeros((P, U))  # least cost of parts p + 1, ... given window p
    for p in range(P - 1, 0, -1):
        togo[p - 1].reshape(s, q)[:] = (togo[p] + cost[p]).reshape(q, s).min(axis=1)

    low = ahead.min()
    bound = low + EXACT_TIE_RTOL * (1.0 + abs(low))
    u = _first_within(head + togo[0], bound)
    run = head[u]
    out = [int(d) for d in np.unravel_index(u, (s,) * l)]
    for p in range(1, P):
        succ = (u % q) * s + np.arange(s)
        runs = run + cost[p, succ]
        b = _first_within(runs + togo[p, succ], bound)
        u, run = int(succ[b]), runs[b]
        out.append(b)
    symbols = [alphabet[i] for i in out]
    return "".join(symbols) if text else tuple(symbols)


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
        self.weights = _positive_weights(pi, model.scheme.num_parts)
        self.normalize = normalize
        H, self.canvas = _eta_matrix(model.path)
        self._readout = model.memo_readout_weights(
            (SQUARED_VECTOR.kind,), lambda: _with_totals(H))

    def decode(self, x) -> np.ndarray:
        return self.decode_batch([x])[0]

    def decode_batch(self, xs) -> np.ndarray:
        """Decode several inputs with one batched kernel evaluation."""
        active = _active_parts(self.weights)
        S = _read_parts(self.model, self._readout, xs, active)
        return _finish_least_squares(self.model.scheme, S, self.weights, active, self.canvas,
                                     self.normalize)


def _with_totals(H: np.ndarray) -> np.ndarray:
    """The output table ``[H, 1]``, whose readout yields ``(sum_j alpha_j
    eta_j, sum_j alpha_j)`` per query."""
    return np.hstack([H, np.ones((len(H), 1))])


def _finish_least_squares(scheme: PartScheme, S: np.ndarray, weights: np.ndarray,
                          active: np.ndarray, canvas: tuple, normalize: bool) -> np.ndarray:
    """Least-squares outputs, shape (n,) + ``canvas``, from the readout ``S``
    of ``_with_totals``, shape (n, len(active), channels + 1), which the
    normalizing divide overwrites."""
    wy, wsum = S[..., :-1], S[..., -1:]
    if normalize:
        ok = wsum > 1e-10
        if not np.all(ok):
            warnings.warn(
                "near-zero weight total in a least-squares decode, using the "
                "unnormalized weighted sum",
                DegenerateDecodeWarning,
            )
        wy /= np.where(ok, wsum, 1.0)
    num = _scatter(scheme, weights, active, wy, canvas)
    den = _scatter(scheme, weights, active, np.ones(wy[:1].shape), canvas)
    # a coordinate that no active part covers sums to +0.0 in both and stays
    # 0; when every one is covered, the divide needs no mask
    return np.divide(num, den, out=num, where=True if den.all() else den > 0)


def _least_squares_path(path: _LambdaPath, pi, xs, normalize: bool = True):
    """``lam -> LeastSquaresDecoder(path(lam), pi, normalize).decode_batch(xs)``
    at any lambda of a lambda path, equal up to rounding: the weighted sums
    are read out of one eigendecomposition of the path's lambda-free system
    (``_LambdaPath.readouts``) and finished as ``decode_batch`` finishes."""
    weights = _positive_weights(pi, path.scheme.num_parts)
    active = _active_parts(weights)
    H, canvas = _eta_matrix(path)
    readout = path.readouts(_with_totals(H), xs, active)

    def decode(lam: float) -> np.ndarray:
        S = readout(lam)
        return _finish_least_squares(path.scheme, S.reshape(-1, len(active), S.shape[1]),
                                     weights, active, canvas, normalize)
    return decode


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
        self.weights = _positive_weights(pi, model.scheme.num_parts)
        H, self.canvas = _eta_matrix(model.path)
        self._readout = model.memo_readout_weights(
            (ANGULAR_SIN_SQ.kind,), lambda: np.hstack([np.cos(2.0 * H), np.sin(2.0 * H)]))

    def decode(self, x) -> np.ndarray:
        return self.decode_batch([x])[0]

    def decode_batch(self, xs) -> np.ndarray:
        active = _active_parts(self.weights)
        S = _read_parts(self.model, self._readout, xs, active)
        d = S.shape[-1] // 2
        c = _scatter(self.model.scheme, self.weights, active, S[..., :d], self.canvas)
        s = _scatter(self.model.scheme, self.weights, active, S[..., d:], self.canvas)
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

def _part_subgradient(loss: LossSpec, z: np.ndarray, eta: np.ndarray,
                      part_size: int) -> np.ndarray:
    """Subgradient of ``L(., eta)`` at the coordinates ``z`` of parts of
    ``part_size`` entries, entry by entry, as a new array."""
    out = np.subtract(z, eta)
    if loss.kind == "squared_vector":
        out *= 2.0
    elif loss.kind == "angular_sin_sq":
        out *= 2.0
        np.sin(out, out=out)
        out /= part_size
    else:
        raise ValueError(f"no subgradient rule for loss {loss.kind!r}")
    return out


def _small_keys(keys: np.ndarray) -> np.ndarray:
    """Non-negative integer ``keys`` in the narrowest type that holds them,
    so that a stable sort of small keys is a radix sort."""
    return keys.astype(np.min_scalar_type(keys.max()))


def decode_sgm(req: DecodeRequest) -> np.ndarray:
    """Stochastic subgradient decode.

    Starting from ``z = 0``, each iteration samples a part ``p`` from ``pi``
    and an anchor ``j`` with probability proportional to ``|alpha_j(x, p)|``,
    then steps along a subgradient of ``sign(alpha_j) * A(x, p) * L_p(., eta_j)``
    with step size ``c / sqrt(t)`` followed by projection. Iterations whose
    total weight ``A(x, p)`` vanishes carry no information and are skipped;
    if every iteration skips, the start point is returned and flagged.

    The iterations are not run one at a time. Both subgradient rules and
    every projection act coordinate by coordinate, and a part never lists a
    coordinate twice, so each coordinate of the field follows its own
    recurrence: it changes only at the iterations whose part covers it, and
    each change reads only its own previous value. After all draws are
    made, every (stepping iteration, coordinate of its part) event is ranked
    among its coordinate's events, and the r-th events of all coordinates
    are stepped together: as many wide steps as the most-covered coordinate
    has events (about 150 steps of up to 256 entries for 2,000 iterations
    over 4 x 4 patches at stride 2 on a 16 x 16 grid), not one narrow step
    per iteration. Each coordinate still sees the same operations in the
    same order (subtract, x2, [sin, / part size], x scale, x step, add,
    project), so the output is bitwise that of the one-at-a-time loop. The
    tail average is then replayed in iteration order as a running sum from
    +0.0. Two edge rules keep the loop's start: the coordinates of the first
    stepping iteration's part start from unprojected zeros and all others
    from the projected start, and tail iterations before the first step add
    unprojected zeros, which leave the +0.0 sum as it is. The sweep keeps a
    few numbers per event, so its memory grows with T x part size.

    This separability is an invariant of the decoder: a loss whose
    subgradient, or a projection whose map, couples coordinates cannot use
    the sweep and needs its own iteration loop.

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
    weights = _positive_weights(req.pi, scheme.num_parts)
    probs = weights / weights.sum()

    projection = method.projection
    if projection is None and req.loss.kind == "angular_sin_sq":
        projection = AngleWrap()
    if method.step_c is not None:
        c = float(method.step_c)
    else:
        sup = kernel_sup(model.kernel)
        c = 1.0 / sup if sup else 1.0

    etas, canvas = _eta_matrix(model.path)
    J = index_map(scheme, math.prod(canvas) // math.prod(scheme.shape))
    N, w = math.prod(canvas), J.shape[1]
    z = np.zeros(N)  # flat, shaped as the canvas on return

    # alpha depends on (x, p) only, so cache per part
    active = _active_parts(probs)
    alphas = alpha_at_parts(model, req.x, active)  # (m, n_active)
    totals = np.abs(alphas).sum(axis=0)
    cums = np.cumsum(np.abs(alphas), axis=0)

    T = int(method.iterations)
    rng = method.rng
    part_draws = rng.choice(len(probs), size=T, p=probs)
    anchor_u = rng.random(T)
    # every iteration's anchor, drawn per part from |alpha(x, p)|
    cols = np.searchsorted(active, part_draws)
    anchors = np.zeros(T, dtype=np.intp)
    for col in range(len(active)):
        drawn = cols == col
        anchors[drawn] = np.searchsorted(cums[:, col], anchor_u[drawn] * totals[col])
    np.minimum(anchors, model.m - 1, out=anchors)

    live = np.flatnonzero(totals[cols] > 0.0)  # the iterations that step, from 0
    if not len(live):
        warnings.warn("every subgradient iteration skipped, returning the start point",
                      DegenerateDecodeWarning)
        return z.reshape(canvas)

    # one event per (stepping iteration, coordinate of its part), in
    # iteration order; a stable sort by coordinate lists each coordinate's
    # events in iteration order, which ranks them
    rows = J[part_draws[live]]
    coord = rows.ravel()
    n = coord.size
    counts = np.bincount(coord, minlength=N)
    by_coord = np.argsort(_small_keys(coord), kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[by_coord] = np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts)
    # step r moves the coordinates with more than r events: listed by falling
    # event count, they are the first widths[r], so step r reads the first
    # widths[r] results of step r - 1 and every slice below is contiguous
    order = np.argsort(-counts, kind="stable")
    place = np.empty(N, dtype=np.intp)
    place[order] = np.arange(N)
    widths = np.bincount(rank)
    ends = np.cumsum(widths)
    offsets = ends - widths
    slot = offsets[rank] + place[coord]  # an event's place in step order
    # per event: its eta entry, sign(alpha_j) * A(x, p) and -c / sqrt(t)
    eta, scale, step = np.empty(n), np.empty(n), np.empty(n)
    eta[slot] = etas[anchors[live]].ravel()
    scale[slot] = np.repeat(np.copysign(totals[cols[live]], alphas[anchors[live], cols[live]]), w)
    step[slot] = np.repeat(-(c / np.sqrt(live + 1.0)), w)

    # the start values of the W touched coordinates, then every step's results
    W = int(widths[0])
    start = _project(z, projection)
    vals = np.empty(W + n)
    vals[:W] = start[order[:W]]
    vals[place[rows[0]]] = 0.0  # the first step starts from unprojected zeros
    read = 0
    for a, b in zip(offsets.tolist(), ends.tolist()):
        x = vals[read : read + b - a]
        g = _part_subgradient(req.loss, x, eta[a:b], w)
        g *= scale[a:b]
        g *= step[a:b]
        read = W + a
        new = np.add(x, g, out=vals[read : W + b])
        _project(new, projection, out=new)
    results = vals[W:]

    def field_after(k: int) -> np.ndarray:
        """The field after the first ``k`` events in iteration order."""
        seen = np.bincount(coord[:k], minlength=N)
        hit = np.flatnonzero(seen)
        field = start.copy()
        field[hit] = results[offsets[seen[hit] - 1] + place[hit]]
        return field

    if not method.average_tail:
        return field_after(n).reshape(canvas)
    # replay the tail in iteration order: a running sum of the fields from
    # +0.0; tail iterations before the first step would add unprojected
    # zeros, which leave it +0.0, so the replay starts at the first step
    tail_from = T - math.ceil(T / 2)
    head = int(np.searchsorted(live, tail_from))  # stepping iterations before the tail
    z = field_after(head * w)
    tail_sum = np.zeros(N)
    t = max(tail_from, int(live[0]))
    for s, idx, v in zip(live[head:].tolist(), rows[head:],
                         results[slot[head * w:]].reshape(-1, w)):
        for _ in range(s - t):  # iterations that do not step
            tail_sum += z
        z[idx] = v
        tail_sum += z
        t = s + 1
    for _ in range(T - t):
        tail_sum += z
    return _project(tail_sum / (T - tail_from), projection).reshape(canvas)
