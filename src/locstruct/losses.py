"""Per-part loss functions and their weighted aggregate over a part scheme.

The aggregate loss of a prediction ``z`` against a label ``y`` is the
part-weighted sum ``sum_p pi(p) * L_p(z_p, y_p | x_p)``. Every built-in part
loss accepts the input part ``x_p`` so input-dependent losses can be added
later, but none of the three implemented ones uses it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .parts import PartScheme, ShapeMismatchError, gather_parts, part_weights, stack_objects


@dataclass(frozen=True)
class LossSpec:
    """A named part loss plus the capability flags decoders dispatch on."""

    kind: str
    has_closed_form: bool
    is_subdifferentiable: bool
    parts_enumerable: bool


ZERO_ONE_WINDOW = LossSpec(
    kind="zero_one_window",
    has_closed_form=False,
    is_subdifferentiable=False,
    parts_enumerable=True,
)

SQUARED_VECTOR = LossSpec(
    kind="squared_vector",
    has_closed_form=True,
    is_subdifferentiable=True,
    parts_enumerable=False,
)

ANGULAR_SIN_SQ = LossSpec(
    kind="angular_sin_sq",
    has_closed_form=True,
    is_subdifferentiable=True,
    parts_enumerable=False,
)

BY_NAME = {spec.kind: spec for spec in (ZERO_ONE_WINDOW, SQUARED_VECTOR, ANGULAR_SIN_SQ)}


def _as_float_pair(z_p, y_p):
    z = np.asarray(z_p, dtype=float)
    y = np.asarray(y_p, dtype=float)
    if z.shape != y.shape:
        raise ShapeMismatchError(f"parts of shapes {z.shape} and {y.shape}")
    return z, y


def part_loss(spec: LossSpec, z_p, y_p, x_p=None) -> float:
    """Loss of predicted part ``z_p`` against label part ``y_p``.

    * ``zero_one_window``: 0 if the parts are identical, else 1.
    * ``squared_vector``: squared Euclidean distance.
    * ``angular_sin_sq``: mean over entries of sin^2(z - y); zero iff the
      angles agree modulo pi.
    """
    if spec.kind == "zero_one_window":
        if isinstance(z_p, str) or isinstance(y_p, str):
            if len(z_p) != len(y_p):
                raise ShapeMismatchError(f"parts of lengths {len(z_p)} and {len(y_p)}")
            return 0.0 if z_p == y_p else 1.0
        z, y = _as_float_pair(z_p, y_p)
        return 0.0 if np.array_equal(z, y) else 1.0
    if spec.kind == "squared_vector":
        z, y = _as_float_pair(z_p, y_p)
        d = (z - y).ravel()
        return float(np.dot(d, d))
    if spec.kind == "angular_sin_sq":
        z, y = _as_float_pair(z_p, y_p)
        return float(np.mean(np.sin(z - y) ** 2))
    raise ValueError(f"unknown loss kind {spec.kind!r}")


def structured_loss(spec: LossSpec, z, y, x, scheme: PartScheme, pi) -> float:
    """Part-weighted aggregate loss ``sum_p pi(p) * L_p(z_p, y_p | x_p)``.

    ``pi`` is a part distribution or a raw nonnegative weight vector; raw
    weights need not sum to one, which is how cover-multiplicity constants
    are folded in. Parts of zero weight are skipped; ``x`` is only checked
    against the scheme, since no built-in loss reads it.
    """
    w = part_weights(pi, scheme.num_parts)
    if x is not None:
        stack_objects([x], scheme)
    active = np.flatnonzero(w != 0.0)
    Z, Y = gather_parts(stack_objects([z, y], scheme), scheme, [[0], [1]], active)
    losses = part_losses(spec, Z, Y)
    # a running sum adds the parts in order, as a loop over part_loss would
    return float(np.cumsum(w[active] * losses)[-1]) if active.size else 0.0


def part_losses(spec: LossSpec, Z: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``part_loss`` of flat parts ``Z`` against ``Y`` (character codes or
    floats), broadcast over all leading axes: one array op per loss kind,
    equal to the scalar loss entry by entry."""
    if spec.kind == "zero_one_window":
        return np.any(Z != Y, axis=-1).astype(float)
    if spec.kind == "squared_vector":
        d = Z - Y
        return (d[..., None, :] @ d[..., :, None])[..., 0, 0]  # the dot of ``part_loss``
    if spec.kind == "angular_sin_sq":
        return np.mean(np.sin(Z - Y) ** 2, axis=-1)
    raise ValueError(f"unknown loss kind {spec.kind!r}")
