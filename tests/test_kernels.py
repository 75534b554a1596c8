import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from locstruct.kernels import (
    _matrix,
    GaussianGlobal,
    GaussianParts,
    LinearParts,
    PreparedAnchors,
    Restriction,
    SumKernel,
    cross_matrix,
    gram_matrix,
    kernel_eval,
    kernel_sup,
    part_kernel_eval,
    part_kernel_matrix,
)
from locstruct.parts import (
    GridPatches,
    SequenceWindows,
    ShapeMismatchError,
    VectorBlocks,
    extract_part,
    stack_objects,
)


SCHEME = VectorBlocks(block_dim=2, num_blocks=3)


def _vec(parts):
    return np.concatenate([np.asarray(p, dtype=float) for p in parts])


class TestKernelEval:
    def test_restriction_linear_dot_product(self):
        x = _vec([(1, 2), (0, 0), (0, 0)])
        y = _vec([(0, 0), (3, -1), (0, 0)])
        k = kernel_eval(Restriction(LinearParts()), (x, 0), (y, 1), SCHEME)
        assert k == 1.0  # 1*3 + 2*(-1)

    def test_restriction_gaussian_identical_parts(self):
        x = _vec([(0.3, -1.2), (5, 5), (0, 0)])
        y = _vec([(9, 9), (0.3, -1.2), (1, 1)])
        k = kernel_eval(Restriction(GaussianParts(1.0)), (x, 0), (y, 1), SCHEME)
        assert k == 1.0

    def test_sum_universal_plus_local_at_identical_pair(self):
        x = _vec([(1, 2), (3, 4), (5, 6)])
        spec = SumKernel(GaussianGlobal(1.0), Restriction(GaussianParts(1.0)))
        assert kernel_eval(spec, (x, 0), (x, 0), SCHEME) == 2.0

    def test_gaussian_global_part_gate(self):
        x = _vec([(1, 2), (3, 4), (5, 6)])
        spec = GaussianGlobal(1.0)
        assert kernel_eval(spec, (x, 0), (x, 1), SCHEME) == 0.0
        assert kernel_eval(spec, (x, 2), (x, 2), SCHEME) == 1.0

    def test_incompatible_part_dimensions(self):
        seq = SequenceWindows(4, 2)
        with pytest.raises(ShapeMismatchError):
            part_kernel_eval(LinearParts(), "ab", "abc")
        k = kernel_eval(Restriction(LinearParts()), ("abcd", 0), ("abcd", 1), seq)
        assert k == 0.0  # "ab" vs "bc": no matching positions

    def test_string_kernels_via_one_hot(self):
        assert part_kernel_eval(LinearParts(), "abc", "abd") == 2.0
        g = part_kernel_eval(GaussianParts(1.0), "abc", "abd")
        assert g == pytest.approx(np.exp(-1.0))  # squared distance is 2 per mismatch


class TestRestrictionLocality:
    def test_equal_parts_give_exactly_equal_values(self):
        rng = np.random.default_rng(3)
        spec = Restriction(GaussianParts(0.7))
        for _ in range(200):
            shared = rng.standard_normal(2)
            x = rng.standard_normal(6)
            y = rng.standard_normal(6)
            p, q = rng.integers(3, size=2)
            x[2 * p : 2 * p + 2] = shared
            y[2 * q : 2 * q + 2] = shared
            anchor = (rng.standard_normal(6), int(rng.integers(3)))
            a = kernel_eval(spec, (x, int(p)), anchor, SCHEME)
            b = kernel_eval(spec, (y, int(q)), anchor, SCHEME)
            assert a == b  # bitwise: the kernel sees the parts only


class TestGram:
    def test_single_anchor_gaussian(self):
        x = np.zeros(6)
        g = gram_matrix(Restriction(GaussianParts(1.0)), [(x, 0)], SCHEME)
        assert g.entries.shape == (1, 1)
        assert g.entries[0, 0] == 1.0

    def test_duplicate_anchors_rank_one(self):
        x = np.arange(6.0)
        for spec in (Restriction(GaussianParts(1.0)), Restriction(LinearParts())):
            g = gram_matrix(spec, [(x, 1), (x, 1)], SCHEME).entries
            assert np.allclose(g, g[0, 0] * np.ones((2, 2)), rtol=1e-12, atol=1e-12)
            assert np.linalg.matrix_rank(g, tol=1e-10) == 1

    def test_five_random_anchors_psd(self):
        rng = np.random.default_rng(8)
        anchors = [(rng.standard_normal(6), int(rng.integers(3))) for _ in range(5)]
        g = gram_matrix(Restriction(GaussianParts(1.0)), anchors, SCHEME).entries
        eigs = np.linalg.eigvalsh(g)
        assert eigs.min() >= -1e-10

    @pytest.mark.parametrize("spec", [
        Restriction(LinearParts()),
        Restriction(GaussianParts(0.5)),
        GaussianGlobal(2.0),
        SumKernel(GaussianGlobal(1.0), Restriction(GaussianParts(1.0))),
    ])
    def test_builtin_kernels_psd_on_many_anchors(self, spec):
        rng = np.random.default_rng(21)
        anchors = [(rng.standard_normal(6), int(rng.integers(3))) for _ in range(50)]
        g = gram_matrix(spec, anchors, SCHEME).entries
        eigs = np.linalg.eigvalsh(g)
        assert eigs.min() >= -1e-8 * np.trace(g)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        anchors = [(rng.standard_normal(6), int(rng.integers(3))) for _ in range(20)]
        g = gram_matrix(Restriction(GaussianParts(1.0)), anchors, SCHEME).entries
        assert np.max(np.abs(g - g.T)) <= 1e-12

    @pytest.mark.parametrize("spec", [
        Restriction(LinearParts()),
        Restriction(GaussianParts(0.8)),
        GaussianGlobal(1.5),
        SumKernel(GaussianGlobal(1.0), Restriction(LinearParts())),
    ])
    def test_vectorized_gram_matches_per_entry_eval(self, spec):
        rng = np.random.default_rng(13)
        anchors = [(rng.standard_normal(6), int(rng.integers(3))) for _ in range(8)]
        g = gram_matrix(spec, anchors, SCHEME).entries
        for i in range(8):
            for j in range(8):
                assert g[i, j] == pytest.approx(
                    kernel_eval(spec, anchors[i], anchors[j], SCHEME), abs=1e-12)

    def test_string_gram_fallback(self):
        seq = SequenceWindows(4, 2)
        anchors = [("abab", 0), ("abab", 2), ("bbaa", 1)]
        g = gram_matrix(Restriction(LinearParts()), anchors, seq).entries
        assert g[0, 1] == 2.0  # "ab" vs "ab"
        assert g[0, 2] == 0.0  # "ab" vs "ba": no position matches
        # direct oracle
        for i in range(3):
            for j in range(3):
                assert g[i, j] == kernel_eval(Restriction(LinearParts()), anchors[i], anchors[j], seq)


class TestSumAdditivity:
    def test_sum_equals_components_exactly(self):
        rng = np.random.default_rng(4)
        u = GaussianGlobal(1.3)
        l = Restriction(GaussianParts(0.6))
        spec = SumKernel(u, l)
        for _ in range(50):
            a = (rng.standard_normal(6), int(rng.integers(3)))
            b = (rng.standard_normal(6), int(rng.integers(3)))
            total = kernel_eval(spec, a, b, SCHEME)
            assert total == kernel_eval(u, a, b, SCHEME) + kernel_eval(l, a, b, SCHEME)


class TestPreparedAnchors:
    def test_cross_matches_cross_matrix(self):
        rng = np.random.default_rng(6)
        anchors = [(rng.standard_normal(6), int(rng.integers(3))) for _ in range(7)]
        xs = [rng.standard_normal(6) for _ in range(2)]
        parts = [2, 0]
        queries = [(x, p) for x in xs for p in parts]
        for spec in (Restriction(GaussianParts(1.0)), GaussianGlobal(1.0),
                     SumKernel(GaussianGlobal(1.0), Restriction(LinearParts()))):
            prepared = PreparedAnchors(spec, anchors, SCHEME)
            assert np.allclose(prepared.cross(xs, parts),
                               cross_matrix(spec, anchors, queries, SCHEME),
                               rtol=0, atol=1e-13)


    def test_anchor_iterator_accepted(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(6)
        anchors = [(x, 0), (x, 2), (rng.standard_normal(6), 1)]
        spec = Restriction(GaussianParts(1.0))
        from_list = PreparedAnchors(spec, anchors, SCHEME).cross([x], [0, 1])
        from_iter = PreparedAnchors(spec, iter(anchors), SCHEME).cross([x], [0, 1])
        assert np.array_equal(from_iter, from_list)

    def test_rows_of_one_stack_equal_pairs(self):
        rng = np.random.default_rng(8)
        inputs = [rng.standard_normal(6) for _ in range(3)]
        rows, parts = np.array([2, 0, 2, 1]), np.array([1, 1, 0, 2])
        anchors = [(inputs[r], p) for r, p in zip(rows, parts)]
        for spec in ORACLE_KERNELS.values():
            prepared = PreparedAnchors.from_rows(spec, stack_objects(inputs, SCHEME), rows,
                                                 parts, SCHEME)
            assert np.array_equal(prepared.cross(inputs, [0, 2]),
                                  PreparedAnchors(spec, anchors, SCHEME).cross(inputs, [0, 2]))
            assert np.array_equal(gram_matrix(spec, prepared, SCHEME).entries,
                                  gram_matrix(spec, anchors, SCHEME).entries)


ORACLE_KERNELS = {
    "linear": Restriction(LinearParts()),
    "gaussian": Restriction(GaussianParts(0.8)),
    "global": GaussianGlobal(1.5),
    "sum": SumKernel(GaussianGlobal(1.0), Restriction(GaussianParts(1.2))),
}
_COORD = st.floats(-2.0, 2.0, allow_nan=False)
ORACLE_SCHEMES = {
    "vector_blocks": (SCHEME, arrays(float, (6,), elements=_COORD)),
    "grid_patches": (GridPatches(width=4, height=4, patch_w=2, patch_h=2, stride=2),
                     arrays(float, (4, 4), elements=_COORD)),
    "circular_grid_channels": (
        GridPatches(width=4, height=3, patch_w=2, patch_h=2, stride=1, circular=True),
        arrays(float, (2, 3, 4), elements=_COORD)),
    "numeric_windows": (SequenceWindows(5, 2), arrays(float, (5,), elements=_COORD)),
    "strings": (SequenceWindows(5, 2), st.text(alphabet="abc", min_size=5, max_size=5)),
}


@pytest.mark.parametrize("scheme_name", sorted(ORACLE_SCHEMES))
@pytest.mark.parametrize("kernel_name", sorted(ORACLE_KERNELS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_kernel_matrices_match_scalar_oracle(kernel_name, scheme_name, data):
    """Gram, cross and prepared cross matrices agree with the scalar
    ``kernel_eval`` on every entry, and the Gram is exactly symmetric. The
    prepared cross takes the product of some inputs and some parts, and is
    expanded from its distinct rows to one row per anchor."""
    spec = ORACLE_KERNELS[kernel_name]
    scheme, inputs = ORACLE_SCHEMES[scheme_name]
    part = st.integers(0, scheme.num_parts - 1)
    anchors = data.draw(st.lists(st.tuples(inputs, part), min_size=1, max_size=7))
    xs = data.draw(st.lists(inputs, min_size=1, max_size=2))
    parts = data.draw(st.lists(part, min_size=1, max_size=2))
    queries = [(x, p) for x in xs for p in parts]

    def oracle(rows, cols):
        return np.array([[kernel_eval(spec, a, b, scheme) for b in cols] for a in rows])

    def assert_close(got, want):
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    gram = gram_matrix(spec, anchors, scheme).entries
    assert np.array_equal(gram, gram.T)
    assert_close(gram, oracle(anchors, anchors))
    want = oracle(anchors, queries)
    assert_close(cross_matrix(spec, anchors, queries, scheme), want)
    prepared = PreparedAnchors(spec, anchors, scheme)
    assert_close(prepared.expand(prepared.cross(xs, parts)), want)


# Anchors over few, small part values, so that draws repeat parts both as
# repeated (input, part) pairs and as equal parts of different inputs.
_REPEAT_SCHEMES = {
    "vector_blocks": (SCHEME, arrays(float, (6,), elements=st.integers(0, 1))),
    "strings": (SequenceWindows(4, 2), st.text(alphabet="ab", min_size=4, max_size=4)),
}


def _part_key(part):
    return part if isinstance(part, str) else tuple(np.ravel(part))


@st.composite
def repeated_anchors(draw, scheme, inputs):
    """Anchors drawn with replacement from a few inputs: m may exceed the
    number of (input, part) pairs, one distinct anchor and all-distinct
    anchors included."""
    xs = draw(st.lists(inputs, min_size=1, max_size=3))
    shape = draw(st.sampled_from(["drawn", "one", "distinct"]))
    if shape == "one":
        x, p = draw(st.sampled_from(xs)), draw(st.integers(0, 2))
        return [(x, p)] * draw(st.integers(1, 8))
    pairs = draw(st.lists(st.tuples(st.sampled_from(xs), st.integers(0, 2)),
                          min_size=1, max_size=12))
    if shape == "distinct":
        keys = [_part_key(extract_part(x, scheme, p)) for x, p in pairs]
        pairs = [pair for i, pair in enumerate(pairs) if keys[i] not in keys[:i]]
    return pairs


class TestDistinctAnchorParts:
    """A restriction kernel is evaluated once per distinct anchor part; the
    per-anchor matrices come back through ``index`` and stay those of the
    scalar ``kernel_eval`` oracle."""

    @pytest.mark.parametrize("scheme_name", sorted(_REPEAT_SCHEMES))
    @pytest.mark.parametrize("kernel_name", ["linear", "gaussian"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_rows_are_the_distinct_parts(self, kernel_name, scheme_name, data):
        spec = ORACLE_KERNELS[kernel_name]
        scheme, inputs = _REPEAT_SCHEMES[scheme_name]
        anchors = data.draw(repeated_anchors(scheme, inputs))
        xs = data.draw(st.lists(inputs, min_size=1, max_size=2))
        parts = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
        prepared = PreparedAnchors(spec, anchors, scheme)

        keys = [_part_key(extract_part(x, scheme, p)) for x, p in anchors]
        distinct = list(dict.fromkeys(keys))  # in order of first appearance
        assert prepared.rows == len(distinct)
        assert prepared.index.tolist() == [distinct.index(k) for k in keys]

        queries = [(x, p) for x in xs for p in parts]
        want = np.array([[kernel_eval(spec, a, q, scheme) for q in queries] for a in anchors])
        C = prepared.cross(xs, parts)
        assert C.shape == (len(distinct), len(queries))
        assert np.all(np.abs(prepared.expand(C) - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
        gram = gram_matrix(spec, prepared, scheme).entries
        assert np.array_equal(gram, gram.T)
        want = np.array([[kernel_eval(spec, a, b, scheme) for b in anchors] for a in anchors])
        assert np.all(np.abs(gram - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
        if prepared.rows == len(anchors):  # every anchor its own row: the per-anchor matrices
            assert prepared.index.tolist() == list(range(len(anchors)))
            assert np.array_equal(C, _matrix(spec, prepared._stack,
                                             prepared._query_stack(xs, parts)))
            assert np.array_equal(gram, _matrix(spec, prepared._stack, prepared._stack))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_fold_is_the_adjoint_of_expand(self, data):
        anchors = data.draw(repeated_anchors(*_REPEAT_SCHEMES["vector_blocks"]))
        prepared = PreparedAnchors(ORACLE_KERNELS["gaussian"], anchors, SCHEME)
        m, u = prepared.size, prepared.rows
        # integers keep every sum exact, whatever its order
        R = data.draw(arrays(float, (m, 3), elements=st.integers(-9, 9)))
        C = data.draw(arrays(float, (u, 4), elements=st.integers(-9, 9)))
        folded = prepared.fold(R)
        assert np.array_equal(folded, [R[prepared.index == r].sum(axis=0) for r in range(u)])
        assert np.array_equal(folded.T @ C, R.T @ prepared.expand(C))

    @pytest.mark.parametrize("spec", [GaussianGlobal(1.0),
                                      SumKernel(GaussianGlobal(1.0), Restriction(LinearParts()))])
    def test_other_kernels_keep_one_row_per_anchor(self, spec):
        x = np.arange(6.0)
        prepared = PreparedAnchors(spec, [(x, 1), (x, 1), (x, 0)], SCHEME)
        assert prepared.rows == 3 and prepared.index.tolist() == [0, 1, 2]
        assert prepared.cross([x], [0, 1]).shape == (3, 2)


def _gaussian_formula(A, B, sigma):
    """The Gaussian written out: exp(-clip(na + nb - 2 A B^T, 0) / (2 sigma^2))."""
    na = np.einsum("ij,ij->i", A, A)
    nb = np.einsum("ij,ij->i", B, B)
    return np.exp(-np.clip(na[:, None] + nb[None, :] - 2.0 * (A @ B.T), 0.0, None)
                  / (2.0 * sigma**2))


class TestGaussianMatrix:
    """The in-place Gaussian equals the written-out formula bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), sigma=st.floats(0.1, 10.0), gram=st.booleans())
    def test_floats(self, data, sigma, gram):
        d = data.draw(st.integers(1, 5))
        rows = lambda: data.draw(arrays(float, (data.draw(st.integers(1, 6)), d),
                                        elements=st.floats(-1e3, 1e3, allow_nan=False)))
        A = rows()
        B = A if gram else rows()
        got = part_kernel_matrix(GaussianParts(sigma), A, B)
        assert np.array_equal(got, _gaussian_formula(A, B, sigma))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), sigma=st.floats(0.1, 10.0))
    def test_string_codes_compare_as_one_hot(self, data, sigma):
        l = data.draw(st.integers(1, 5))
        text = st.text(alphabet="ab\u03b2\x00", min_size=l, max_size=l)
        a = data.draw(st.lists(text, min_size=1, max_size=5))
        b = data.draw(st.lists(text, min_size=1, max_size=5))
        scheme = SequenceWindows(l, l)
        symbols = sorted(set("".join(a + b)))
        hot = lambda ss: np.array([[float(c == s) for c in x for s in symbols] for x in ss])
        A, B = stack_objects(a, scheme), stack_objects(b, scheme)
        # match counts, position by position, are the one-hot inner products
        assert np.array_equal(part_kernel_matrix(LinearParts(), A, B), hot(a) @ hot(b).T)
        got = part_kernel_matrix(GaussianParts(sigma), A, B)
        assert np.array_equal(got, _gaussian_formula(hot(a), hot(b), sigma))


def test_gram_diagonal_within_kernel_sup():
    rng = np.random.default_rng(17)
    anchors = [(rng.standard_normal(6), int(rng.integers(3))) for _ in range(25)]
    for spec in (Restriction(GaussianParts(0.9)), GaussianGlobal(1.2),
                 SumKernel(GaussianGlobal(1.0), Restriction(GaussianParts(1.0)))):
        g = gram_matrix(spec, anchors, SCHEME).entries
        d = np.diag(g)
        assert np.all(d >= 0.0)
        assert np.all(d <= kernel_sup(spec) + 1e-12)


def test_bandwidths_must_be_positive():
    with pytest.raises(ValueError):
        GaussianParts(0.0)
    with pytest.raises(ValueError):
        GaussianGlobal(-1.0)


def test_kernel_sup_bounds():
    assert kernel_sup(Restriction(GaussianParts(2.0))) == 1.0
    assert kernel_sup(GaussianGlobal(1.0)) == 1.0
    assert kernel_sup(SumKernel(GaussianGlobal(1.0), Restriction(GaussianParts(1.0)))) == 2.0
    assert kernel_sup(Restriction(LinearParts())) is None
