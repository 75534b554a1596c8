"""The benchmark's traced mode still finds every layer it times.

``perfbench/spans.py`` wraps named entry points of the library
(``gram_matrix``, ``PreparedAnchors.cross``, ``fit_alpha``,
``training.cho_factor``, ...). ``Tracer.install`` raises ``LookupError`` for
a hook point that no longer resolves, so renaming one of them fails here,
not only in a traced benchmark run.
"""

from pathlib import Path

import locstruct  # noqa: F401  binds every module the hooks patch
import locstruct.kernels

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    gram_matrix = locstruct.kernels.gram_matrix
    tracer = spans.Tracer()
    try:
        tracer.install()  # raises LookupError for a hook point that is gone
        assert locstruct.kernels.gram_matrix is not gram_matrix
    finally:
        tracer.uninstall()
    assert locstruct.kernels.gram_matrix is gram_matrix
