"""Test-side helpers shared by several test modules."""

import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
from scipy.linalg import cho_factor

from locstruct.decoder import (
    SGM,
    AngleWrap,
    DegenerateDecodeWarning,
    _eta_matrix,
    _positive_weights,
    _project,
)
from locstruct.kernels import LinearParts, PreparedAnchors, Restriction, kernel_sup
from locstruct.parts import VectorBlocks, index_map
from locstruct.training import AuxiliarySample, alpha_at_parts, fit_alpha

SCALAR = VectorBlocks(block_dim=1, num_blocks=1)


def dense_fit(inputs, aux, kernel, lam, scheme):
    """``fit_alpha`` with the anchors' feature map hidden, so a linear
    restriction kernel takes the dense count-weighted solve over the
    distinct anchor parts: the oracle of the feature-space solve."""
    with mock.patch.object(PreparedAnchors, "features", property(lambda self: None)):
        return fit_alpha(inputs, aux, kernel, lam, scheme)


def block_ridge(X, Y, Xt, lam, blocks):
    """Predictions at ``Xt`` of a dual linear ridge regression at ``lam``
    fitted on ``(X, Y)``, with the inputs and targets cut into ``blocks``
    equal column slices and one plain ``np.linalg.solve`` per slice: the
    oracle of the baselines of ``bench``."""
    n = X.shape[0]
    return np.hstack([(xt @ x.T) @ np.linalg.solve(x @ x.T + n * lam * np.eye(n), y)
                      for x, y, xt in zip(*(np.hsplit(a, blocks) for a in (X, Y, Xt)))])


def unit_factor_model(inputs, etas, scheme=SCALAR, scale=1.0):
    """Linear restriction model with anchor j at ``(inputs[j], part 0)`` and
    output part ``etas[j]``, whose weights at any query are ``scale`` times
    the raw linear kernel values: ``dense_fit`` with its u x u factor over
    the distinct anchor parts swapped for that of ``I / scale``. Numbers
    stand for one-element vectors, the inputs and outputs of ``SCALAR``;
    strings are taken as they are."""
    def value(v):
        return v if isinstance(v, str) else np.array([float(v)])

    aux = [AuxiliarySample(j, 0, value(e)) for j, e in enumerate(etas)]
    model = dense_fit([value(x) for x in inputs], aux, Restriction(LinearParts()), 1.0, scheme)
    factor = cho_factor(np.eye(model.prepared_anchors.rows) / scale, lower=True)
    return replace(model, factor=factor)


def scatter_loop(V, scheme, parts):
    """``parts.scatter_parts`` one part at a time: a zero array, then one
    fancy-index add per part through the index map, in the order of
    ``parts``: the oracle of the layered column takes."""
    n, _, width = V.shape
    channels = width // index_map(scheme).shape[1]
    J = index_map(scheme, channels)
    out = np.zeros((n, channels * math.prod(scheme.shape)))
    for k, p in enumerate(parts):
        out[:, J[p]] += V[:, k]
    return out


def least_squares_loop(sums, scheme, weights, parts, canvas, normalize):
    """The least-squares finish one part at a time: the oracle of
    ``decoder._finish_least_squares``. ``sums`` holds, per input and part
    of ``parts``, the alpha-weighted sum of the anchor output parts, flat,
    and with ``normalize`` their weight total as a last entry, shape (n,
    len(parts), width). Each part's value, divided by its total where that
    exceeds 1e-10 when normalizing, is weighted by its pi weight in
    ``weights`` and added into a zero field (``scatter_loop``); the field is
    then divided by the pi-weighted coverage where that is positive."""
    values = sums[..., :-1] / np.where(sums[..., -1:] > 1e-10, sums[..., -1:], 1.0) \
        if normalize else sums
    w = weights[list(parts)][:, None]
    num = scatter_loop(values * w, scheme, parts)
    den = scatter_loop(np.ones((1,) + values.shape[1:]) * w, scheme, parts)
    out = np.divide(num, den, out=num, where=den > 0)
    return out.reshape((len(sums),) + canvas)


def sgm_loop(req):
    """The subgradient decode one iteration at a time, on any scheme: the
    oracle of ``decode_sgm``'s per-coordinate sweep.

    Each iteration that steps gathers its part's coordinates, steps them
    (subtract, x2, [sin, / part size], x scale, x step, add), projects them
    and scatters them back; the first step also projects the rest of the
    field. Every iteration in the tail adds the whole field to a sum that
    starts from +0.0."""
    method, model, loss = req.method, req.model, req.loss
    assert isinstance(method, SGM)
    scheme = model.scheme
    weights = _positive_weights(req.pi, scheme.num_parts)
    probs = weights / weights.sum()
    projection = method.projection
    if projection is None and loss.kind == "angular_sin_sq":
        projection = AngleWrap()
    if method.step_c is not None:
        c = float(method.step_c)
    else:
        sup = kernel_sup(model.kernel)
        c = 1.0 / sup if sup else 1.0

    etas, canvas = _eta_matrix(model.path)
    J = index_map(scheme, math.prod(canvas) // math.prod(scheme.shape))
    z = np.zeros(math.prod(canvas))

    active = np.flatnonzero(probs > 0)
    alphas = alpha_at_parts(model, req.x, active)
    totals = np.abs(alphas).sum(axis=0)
    cums = np.cumsum(np.abs(alphas), axis=0)

    T = method.iterations
    part_draws = method.rng.choice(len(probs), size=T, p=probs)
    anchor_u = method.rng.random(T)
    cols = np.searchsorted(active, part_draws)
    anchors = np.zeros(T, dtype=np.intp)
    for col in range(len(active)):
        drawn = cols == col
        anchors[drawn] = np.searchsorted(cums[:, col], anchor_u[drawn] * totals[col])
    np.minimum(anchors, model.m - 1, out=anchors)

    tail_from = T - math.ceil(T / 2)
    tail_sum = np.zeros_like(z)
    patch, grad = np.empty(J.shape[1]), np.empty(J.shape[1])
    stepped = False
    for t in range(1, T + 1):
        p, j, col = int(part_draws[t - 1]), int(anchors[t - 1]), int(cols[t - 1])
        if totals[col] > 0.0:
            Jp = J[p]
            z.take(Jp, out=patch)
            np.subtract(patch, etas[j], out=grad)
            grad *= 2.0
            if loss.kind == "angular_sin_sq":
                np.sin(grad, out=grad)
                grad /= patch.size
            grad *= float(np.copysign(totals[col], alphas[j, col]))
            grad *= -(c / math.sqrt(t))
            patch += grad
            z[Jp] = _project(patch, projection, out=patch)
            if not stepped:
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
