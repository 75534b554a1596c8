"""Test-side helpers shared by several test modules."""

from unittest import mock

from locstruct.kernels import PreparedAnchors
from locstruct.training import fit_alpha


def dense_fit(inputs, aux, kernel, lam, scheme):
    """``fit_alpha`` with the anchors' feature map hidden, so a linear
    restriction kernel takes the dense count-weighted solve over the
    distinct anchor parts: the oracle of the feature-space solve."""
    with mock.patch.object(PreparedAnchors, "features", property(lambda self: None)):
        return fit_alpha(inputs, aux, kernel, lam, scheme)
