import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from locstruct.kernels import (
    _matrix,
    _pair_anchors,
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
            prepared = _pair_anchors(spec, anchors, SCHEME)
            assert np.allclose(prepared.cross(xs, parts),
                               cross_matrix(spec, anchors, queries, SCHEME),
                               rtol=0, atol=1e-13)

    def test_only_cross_builds_the_exponent_half(self):
        """The anchor half of the Gaussian product is built on the first
        ``cross``, never by the Gram a fit needs, and kept for later calls."""
        rng = np.random.default_rng(9)
        anchors = [(rng.standard_normal(6), int(rng.integers(3))) for _ in range(5)]
        prepared = _pair_anchors(Restriction(GaussianParts(1.0)), anchors, SCHEME)
        prepared.gram()
        assert "_exponent_rows" not in vars(prepared)
        prepared.cross([anchors[0][0]], [0])
        H = vars(prepared)["_exponent_rows"]
        prepared.cross([anchors[1][0]], [1, 2])
        assert prepared._exponent_rows is H and H.shape == (prepared.rows, 4)


    def test_anchor_iterator_accepted(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(6)
        anchors = [(x, 0), (x, 2), (rng.standard_normal(6), 1)]
        queries = [(x, 0), (x, 1)]
        spec = Restriction(GaussianParts(1.0))
        assert np.array_equal(gram_matrix(spec, iter(anchors), SCHEME).entries,
                              gram_matrix(spec, anchors, SCHEME).entries)
        assert np.array_equal(cross_matrix(spec, iter(anchors), iter(queries), SCHEME),
                              cross_matrix(spec, anchors, queries, SCHEME))

    def test_rows_of_one_stack_equal_pairs(self):
        """Anchors of inputs stacked once are the anchors of their pairs."""
        rng = np.random.default_rng(8)
        inputs = [rng.standard_normal(6) for _ in range(3)]
        rows, parts = np.array([2, 0, 2, 1]), np.array([1, 1, 0, 2])
        anchors = [(inputs[r], p) for r, p in zip(rows, parts)]
        queries = [(x, p) for x in inputs for p in [0, 2]]
        for spec in ORACLE_KERNELS.values():
            prepared = PreparedAnchors(spec, stack_objects(inputs, SCHEME), rows, parts, SCHEME)
            assert np.array_equal(_matrix(spec, prepared._stack,
                                          prepared._query_stack(inputs, [0, 2])),
                                  cross_matrix(spec, anchors, queries, SCHEME))
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
    prepared = _pair_anchors(spec, anchors, scheme)
    assert_close(prepared.expand(prepared.cross(xs, parts)), want)


def _outside_part(x, scheme, p):
    """Mask over ``x`` (a string's characters or an array's entries) of the
    positions that part ``p`` does not read."""
    if isinstance(x, str):
        labels = np.arange(len(x))
    else:
        labels = np.arange(np.size(x)).reshape(np.shape(x))
    mask = np.ones(labels.size, dtype=bool)
    mask[np.ravel(extract_part(labels, scheme, p))] = False
    return mask


@pytest.mark.parametrize("scheme_name", sorted(ORACLE_SCHEMES))
@pytest.mark.parametrize("kernel_name", ["linear", "gaussian"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_restriction_kernels_are_local(kernel_name, scheme_name, data):
    """A restriction kernel reads part ``p`` of an input and nothing else:
    rewriting the input outside part ``p`` leaves ``kernel_eval`` and
    ``PreparedAnchors.cross`` at ``(x, p)`` bitwise unchanged."""
    spec = ORACLE_KERNELS[kernel_name]
    scheme, inputs = ORACLE_SCHEMES[scheme_name]
    part = st.integers(0, scheme.num_parts - 1)
    anchors = data.draw(st.lists(st.tuples(inputs, part), min_size=1, max_size=7))
    x, other = data.draw(inputs), data.draw(inputs)
    p = data.draw(part)
    outside = _outside_part(x, scheme, p)
    if isinstance(x, str):
        y = "".join(o if out else c for c, o, out in zip(x, other, outside))
    else:
        y = np.where(outside.reshape(np.shape(x)), other, x)
    for anchor in anchors:
        assert kernel_eval(spec, (x, p), anchor, scheme) == kernel_eval(spec, (y, p), anchor, scheme)
        assert kernel_eval(spec, anchor, (x, p), scheme) == kernel_eval(spec, anchor, (y, p), scheme)
    prepared = _pair_anchors(spec, anchors, scheme)
    assert np.array_equal(prepared.cross([x], [p]), prepared.cross([y], [p]))


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
        prepared = _pair_anchors(spec, anchors, scheme)

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
        prepared = _pair_anchors(ORACLE_KERNELS["gaussian"], anchors, SCHEME)
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
        prepared = _pair_anchors(spec, [(x, 1), (x, 1), (x, 0)], SCHEME)
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


# Schemes of the Gaussian product path, each with the shape of its inputs
# and the size d of its parts.
_PRODUCT_SCHEMES = {
    "vector_blocks": (VectorBlocks(block_dim=3, num_blocks=2), (6,), 3),
    "grid_one_channel": (GridPatches(width=4, height=4, patch_w=2, patch_h=2, stride=2),
                         (4, 4), 4),
    "grid_two_channels": (GridPatches(width=4, height=3, patch_w=2, patch_h=2, stride=1,
                                      circular=True), (2, 3, 4), 8),
}
_MAX_NORM = 1e3


@pytest.mark.parametrize("values", ["exact", "floats"])
@pytest.mark.parametrize("scheme_name", sorted(_PRODUCT_SCHEMES))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), sigma=st.floats(0.3, 10.0))
def test_gaussian_product_matches_scalar_oracle(scheme_name, values, data, sigma):
    """``PreparedAnchors.cross`` of a Gaussian restriction kernel, one matrix
    product of the anchor and query halves, against the scalar
    ``kernel_eval``, with part norms up to 1e3. Every entry lies in [0, 1],
    and a query part equal to an anchor part reads 1.

    ``exact`` inputs are multiples of 1/8 small enough that every inner
    product and norm is exact, as in ``kernel_eval``: then the entries agree
    within 1e-12 and equal parts read 1 within 1e-15. Over ``floats`` the
    exponent ``2 a.b - |a|^2 - |b|^2`` loses up to (d + 2) * 2^-52 * (|a| +
    |b|)^2 to rounding in any summation order (the norms and the d + 2 term
    product), which the division by 2 sigma^2 carries into the kernel: the
    tolerance adds that bound. ``part_kernel_matrix`` has the same
    cancellation, about 4e-9 on equal parts of norm 1e3 at sigma 0.3."""
    scheme, shape, d = _PRODUCT_SCHEMES[scheme_name]
    spec = Restriction(GaussianParts(sigma))
    bound = _MAX_NORM / np.sqrt(d)  # every part of norm at most 1e3
    if values == "exact":
        steps = int(bound * 8)
        coord = st.integers(-steps, steps).map(lambda k: k / 8.0)
    else:
        scale = data.draw(st.sampled_from([1.0, 10.0, bound]))
        coord = st.floats(-scale, scale, allow_nan=False)
    inputs = arrays(float, shape, elements=coord)
    part = st.integers(0, scheme.num_parts - 1)
    anchors = data.draw(st.lists(st.tuples(inputs, part), min_size=1, max_size=6))
    x0, p0 = data.draw(st.sampled_from(anchors))  # an anchor among the queries
    xs = data.draw(st.lists(inputs, max_size=2)) + [x0]
    parts = list(dict.fromkeys(data.draw(st.lists(part, max_size=2)) + [p0]))
    queries = [(x, p) for x in xs for p in parts]

    prepared = _pair_anchors(spec, anchors, scheme)
    got = prepared.expand(prepared.cross(xs, parts))
    assert np.all((got >= 0.0) & (got <= 1.0))
    want = np.array([[kernel_eval(spec, a, q, scheme) for q in queries] for a in anchors])
    norms = lambda pairs: np.array([np.linalg.norm(extract_part(x, scheme, p)) for x, p in pairs])
    rounding = 0.0
    if values == "floats":
        reach = norms(anchors)[:, None] + norms(queries)[None, :]
        rounding = (d + 2) * 2.0**-52 * reach**2 / (2.0 * sigma**2)
    assert np.all(np.abs(got - want) <= 1e-12 + rounding)
    equal = np.array([[np.array_equal(extract_part(a[0], scheme, a[1]),
                                      extract_part(q[0], scheme, q[1])) for q in queries]
                      for a in anchors])
    assert equal.any()
    assert np.all((np.abs(got - 1.0) <= 1e-15 + rounding)[equal])


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
