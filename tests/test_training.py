from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import cho_factor

from locstruct.kernels import (
    GaussianGlobal,
    GaussianParts,
    LinearParts,
    PreparedAnchors,
    Restriction,
    SumKernel,
    gram_matrix,
)
from locstruct import training
from locstruct.parts import (
    GridPatches,
    SequenceWindows,
    ShapeMismatchError,
    Uniform,
    VectorBlocks,
    Weighted,
    extract_part,
)
from locstruct.training import (
    AuxiliarySample,
    FactorizationError,
    NonFiniteError,
    _factor_system,
    alpha_at,
    alpha_at_parts,
    enumerate_auxiliary,
    fit_alpha,
    generate_auxiliary,
)

SCHEME = VectorBlocks(block_dim=2, num_blocks=3)
GAUSS = Restriction(GaussianParts(1.0))
LINEAR = Restriction(LinearParts())


def _train_set(rng, n):
    out = []
    for _ in range(n):
        x = rng.standard_normal(6)
        out.append((x, 2.0 * x))
    return out


_VALUE = st.floats(-3.0, 3.0, allow_nan=False).map(lambda v: round(v, 1))


@st.composite
def training_sets(draw):
    """A scheme, a training set on it and a part distribution: vector
    blocks, numeric and string windows (with a non-ASCII symbol and a NUL),
    and 2-channel circular grid patches; uniform or weighted with zeros."""
    kind = draw(st.sampled_from(["blocks", "windows", "strings", "grid"]))
    if kind == "blocks":
        scheme = VectorBlocks(draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    elif kind == "grid":
        stride = draw(st.integers(1, 2))
        height, width = stride * draw(st.integers(1, 3)), stride * draw(st.integers(1, 3))
        scheme = GridPatches(width=width, height=height, patch_w=draw(st.integers(1, width)),
                             patch_h=draw(st.integers(1, height)), stride=stride, circular=True)
    else:
        k = draw(st.integers(1, 6))
        scheme = SequenceWindows(k, draw(st.integers(1, k)))
    if kind == "strings":
        outputs = st.text(alphabet="ab\u03b2\x00", min_size=scheme.seq_len, max_size=scheme.seq_len)
    else:
        lead = (2,) if kind == "grid" else ()
        outputs = arrays(float, lead + scheme.shape, elements=_VALUE)
    ys = draw(st.lists(outputs, min_size=1, max_size=5))
    P = scheme.num_parts
    if draw(st.booleans()):
        pi = Uniform(P)
    else:
        w = np.asarray(draw(st.lists(st.sampled_from([0, 0, 1, 3]), min_size=P, max_size=P)
                            .filter(any)), dtype=float)
        pi = Weighted(tuple(w / w.sum()))
    return scheme, [(None, y) for y in ys], pi


def _assert_same_samples(aux, want):
    """``aux`` against (chi_ref, p, eta) triples by value, type and shape."""
    assert len(aux) == len(want)
    for s, (i, p, eta) in zip(aux, want):
        assert (s.chi_ref, s.p) == (i, p)
        assert type(s.chi_ref) is int and type(s.p) is int
        assert type(s.eta) is type(eta)
        if isinstance(eta, str):
            assert s.eta == eta
        else:
            assert s.eta.dtype == eta.dtype and s.eta.shape == eta.shape
            assert np.array_equal(s.eta, eta)


class TestAgainstLoops:
    @settings(max_examples=200, deadline=None)
    @given(case=training_sets(), m=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    def test_generate_equals_per_draw_loop(self, case, m, seed):
        scheme, train, pi = case
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        probs = pi.probabilities()
        want = []
        for _ in range(m):
            i = int(slow.integers(len(train)))
            p = int(slow.choice(len(probs), p=probs))
            want.append((i, p, extract_part(train[i][1], scheme, p)))
        _assert_same_samples(generate_auxiliary(train, m, scheme, pi, fast), want)
        assert fast.random() == slow.random()  # the same share of the stream

    @settings(max_examples=100, deadline=None)
    @given(case=training_sets())
    def test_enumerate_equals_nested_loop(self, case):
        scheme, train, _ = case
        want = [(i, p, extract_part(y, scheme, p))
                for i, (_, y) in enumerate(train) for p in range(scheme.num_parts)]
        _assert_same_samples(enumerate_auxiliary(train, scheme), want)

    def test_nan_in_an_output_no_anchor_draws_is_rejected(self):
        scheme = VectorBlocks(1, 2)
        train = [(None, np.zeros(2)), (None, np.array([np.nan, 0.0]))]
        # every draw takes part 1 of some output, never the NaN
        with pytest.raises(NonFiniteError):
            generate_auxiliary(train, 5, scheme, Weighted((0.0, 1.0)), np.random.default_rng(0))
        with pytest.raises(NonFiniteError):
            enumerate_auxiliary(train, scheme)

    def test_outputs_that_do_not_stack_are_rejected(self):
        train = [(None, np.zeros(4)), (None, np.zeros(3))]
        with pytest.raises(ShapeMismatchError):
            generate_auxiliary(train, 3, VectorBlocks(2, 2), Uniform(2), np.random.default_rng(0))
        with pytest.raises(ShapeMismatchError):
            generate_auxiliary([(None, "abc"), (None, "ab")], 3, SequenceWindows(3, 2),
                               Uniform(2), np.random.default_rng(0))


class TestGenerateAuxiliary:
    def test_single_training_point(self):
        rng = np.random.default_rng(0)
        train = _train_set(rng, 1)
        aux = generate_auxiliary(train, 25, SCHEME, Uniform(3), rng)
        assert all(s.chi_ref == 0 for s in aux)

    def test_requested_size(self):
        rng = np.random.default_rng(1)
        train = _train_set(rng, 5)
        aux = generate_auxiliary(train, 30000, SCHEME, Uniform(3), rng)
        assert len(aux) == 30000

    def test_eta_matches_selected_output_part(self):
        rng = np.random.default_rng(2)
        train = _train_set(rng, 4)
        for s in generate_auxiliary(train, 200, SCHEME, Uniform(3), rng):
            expect = extract_part(train[s.chi_ref][1], SCHEME, s.p)
            assert np.array_equal(np.asarray(s.eta), expect)

    def test_with_replacement_multinomial_marginal(self):
        rng = np.random.default_rng(4)
        n, P, m = 10, 4, 40000
        scheme = VectorBlocks(block_dim=1, num_blocks=P)
        train = [(rng.standard_normal(P), rng.standard_normal(P)) for _ in range(n)]
        aux = generate_auxiliary(train, m, scheme, Uniform(P), rng)
        counts = np.zeros((n, P))
        for s in aux:
            counts[s.chi_ref, s.p] += 1
        p_cell = 1.0 / (n * P)
        sigma = np.sqrt(p_cell * (1 - p_cell) / m)
        assert np.all(np.abs(counts / m - p_cell) <= 3 * sigma)

    def test_reproducible_under_fixed_seed(self):
        train = _train_set(np.random.default_rng(4), 3)
        a1 = generate_auxiliary(train, 50, SCHEME, Uniform(3), np.random.default_rng(9))
        a2 = generate_auxiliary(train, 50, SCHEME, Uniform(3), np.random.default_rng(9))
        assert [(s.chi_ref, s.p) for s in a1] == [(s.chi_ref, s.p) for s in a2]

    def test_distribution_over_another_part_count_rejected(self):
        train = _train_set(np.random.default_rng(5), 3)
        with pytest.raises(ShapeMismatchError):
            generate_auxiliary(train, 10, SCHEME, Weighted((0.5, 0.5)), np.random.default_rng(0))


class TestFitAlpha:
    def test_unit_system(self):
        # single anchor, k(a, a) = 1, lambda = 1: (1 + 1) u = 1
        x = np.zeros(6)
        aux = [AuxiliarySample(0, 0, np.zeros(2))]
        model = fit_alpha([x], aux, GAUSS, 1.0, SCHEME)
        assert model.apply_inverse(np.ones(1))[0] == pytest.approx(0.5)

    def test_duplicate_anchor_system_hand_solved(self):
        # K = [[1, 1], [1, 1]], m lambda = 1: solve [[2, 1], [1, 2]] a = [1, 1]
        # by hand: 2a + b = 1 and a + 2b = 1 give a = b = 1/3
        x = np.arange(6.0)
        aux = [AuxiliarySample(0, 1, extract_part(2 * x, SCHEME, 1))] * 2
        model = fit_alpha([x], aux, GAUSS, 0.5, SCHEME)
        out = model.apply_inverse(np.ones(2))
        assert out == pytest.approx([1.0 / 3.0, 1.0 / 3.0], abs=1e-8)

    @pytest.mark.parametrize("kernel,m,lam", [
        pytest.param(GAUSS, 5, 0.3, id="5-0.3"),
        pytest.param(GAUSS, 40, 1e-3, id="40-0.001"),
        pytest.param(GAUSS, 40, 1e-6, id="40-1e-06"),
        pytest.param(LINEAR, 5, 0.3, id="linear-5-0.3"),
        pytest.param(LINEAR, 40, 1e-3, id="linear-40-0.001"),
        pytest.param(LINEAR, 40, 1e-6, id="linear-40-1e-06"),
    ])
    def test_inverse_residual(self, kernel, m, lam):
        rng = np.random.default_rng(m)
        train = _train_set(rng, 6)
        aux = generate_auxiliary(train, m, SCHEME, Uniform(3), rng)
        model = fit_alpha([x for x, _ in train], aux, kernel, lam, SCHEME)
        # parts of dimension 2 < m: the linear kernel takes the feature-space solve
        assert (model.features is not None) == (kernel is LINEAR)
        K = gram_matrix(kernel, model.anchors, SCHEME).entries
        A = K + m * lam * np.eye(m)
        for _ in range(10):
            v = rng.standard_normal(m)
            res = np.linalg.norm(A @ model.apply_inverse(v) - v)
            assert res <= 1e-8 * np.linalg.norm(v)

    def test_lambda_must_be_positive(self):
        x = np.zeros(6)
        aux = [AuxiliarySample(0, 0, np.zeros(2))]
        with pytest.raises(ValueError):
            fit_alpha([x], aux, GAUSS, 0.0, SCHEME)

    def test_empty_aux_rejected(self):
        with pytest.raises(ValueError):
            fit_alpha([np.zeros(6)], [], GAUSS, 1.0, SCHEME)

    @pytest.mark.parametrize("case", ["d_ge_m", "string_parts", "gaussian_restriction",
                                      "gaussian_global", "sum_kernel", "supplied_gram"])
    def test_dual_path_kept(self, case):
        rng = np.random.default_rng(11)
        train = _train_set(rng, 4)
        inputs = [x for x, _ in train]
        aux = generate_auxiliary(train, 12, SCHEME, Uniform(3), rng)
        scheme, kernel, gram = SCHEME, LINEAR, None
        if case == "d_ge_m":
            aux = aux[:2]  # parts of dimension 2, two anchors
        elif case == "string_parts":
            scheme = SequenceWindows(4, 2)
            train = [("abab", "baba"), ("aabb", "bbaa"), ("abba", "baab")]
            inputs = [x for x, _ in train]
            aux = enumerate_auxiliary(train, scheme)
        elif case == "gaussian_restriction":
            kernel = GAUSS
        elif case == "gaussian_global":
            kernel = GaussianGlobal(1.0)
        elif case == "sum_kernel":
            kernel = SumKernel(GaussianGlobal(1.0), LINEAR)
        else:
            gram = gram_matrix(LINEAR, [(inputs[s.chi_ref], s.p) for s in aux], SCHEME)
        model = fit_alpha(inputs, aux, kernel, 0.1, scheme, gram=gram)
        assert model.features is None
        assert model.factor[0].shape == (model.m, model.m)

    def test_linear_kernel_takes_feature_space_solve(self):
        rng = np.random.default_rng(12)
        train = _train_set(rng, 4)
        aux = generate_auxiliary(train, 12, SCHEME, Uniform(3), rng)
        model = fit_alpha([x for x, _ in train], aux, LINEAR, 0.1, SCHEME)
        assert model.features.shape == (12, 2)
        assert model.factor[0].shape == (2, 2)

    @pytest.mark.parametrize("kernel", [LINEAR, GAUSS], ids=["feature_space", "dual"])
    def test_non_finite_input_rejected(self, kernel):
        rng = np.random.default_rng(13)
        train = _train_set(rng, 4)
        aux = enumerate_auxiliary(train, SCHEME)
        inputs = [x.copy() for x, _ in train]
        inputs[2][3] = np.nan
        with pytest.raises(NonFiniteError):
            fit_alpha(inputs, aux, kernel, 0.1, SCHEME)

    @pytest.mark.parametrize("kernel", [LINEAR, GAUSS], ids=["feature_space", "dual"])
    def test_non_finite_input_no_anchor_references_rejected(self, kernel):
        # the inputs are stacked once, all of them
        rng = np.random.default_rng(15)
        train = _train_set(rng, 4)
        aux = [s for s in enumerate_auxiliary(train, SCHEME) if s.chi_ref != 2]
        inputs = [x.copy() for x, _ in train]
        inputs[2][0] = np.inf
        with pytest.raises(NonFiniteError):
            fit_alpha(inputs, aux, kernel, 0.1, SCHEME)

    def test_output_parts_of_two_shapes_rejected(self):
        train = _train_set(np.random.default_rng(16), 2)
        aux = [AuxiliarySample(0, 0, np.zeros(2)), AuxiliarySample(1, 1, np.zeros(3))]
        with pytest.raises(ShapeMismatchError):
            fit_alpha([x for x, _ in train], aux, GAUSS, 0.1, SCHEME)

    @pytest.mark.parametrize("kernel", [LINEAR, GAUSS], ids=["feature_space", "dual"])
    def test_non_finite_output_part_rejected(self, kernel):
        rng = np.random.default_rng(14)
        train = _train_set(rng, 4)
        aux = enumerate_auxiliary(train, SCHEME)
        aux[5] = AuxiliarySample(aux[5].chi_ref, aux[5].p, np.array([1.0, np.inf]))
        with pytest.raises(NonFiniteError):
            fit_alpha([x for x, _ in train], aux, kernel, 0.1, SCHEME)
        assert issubclass(NonFiniteError, ValueError)

    def test_jitter_rescues_singular_system(self):
        K = np.ones((4, 4))  # rank one, plain Cholesky fails at shift 0
        factor, jitter = _factor_system(K, 0.0)
        assert jitter > 0

    def test_indefinite_system_raises_with_condition_estimate(self):
        with pytest.raises(FactorizationError, match="condition"):
            _factor_system(-np.eye(3), 0.0)
        K = -np.eye(3) + 0.5 * np.ones((3, 3))
        before = K.copy()
        with pytest.raises(FactorizationError, match="condition"):
            _factor_system(K, 0.0, overwrite=True)
        assert np.array_equal(K, before)  # every failed attempt is undone

    @settings(max_examples=50, deadline=None)
    @given(m=st.integers(2, 12), dip=st.floats(1e-14, 1e-10), seed=st.integers(0, 2**16))
    def test_retries_equal_fresh_copies(self, m, dip, seed):
        """An exactly symmetric K with a slightly negative eigenvalue needs
        one or more jitter retries. In place or on a copy, the factor and
        the jitter are those of factoring a fresh copy at each attempt."""
        Q = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, m)))[0]
        w = np.linspace(1.0, 2.0, m)
        w[0] = -dip
        K = (Q * w) @ Q.T
        K = K + K.T  # exactly symmetric
        want = _escalate_on_copies(K, 0.0)
        for overwrite in (False, True):
            if want is None:
                with pytest.raises(FactorizationError):
                    _factor_system(K, 0.0, overwrite=overwrite)
                continue
            (c, lower), jitter = _factor_system(K.copy(), 0.0, overwrite=overwrite)
            assert jitter > 0 and jitter == want[1]
            assert lower and np.array_equal(c, want[0])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), m=st.integers(2, 20))
    def test_own_gram_retry_equals_passed_gram(self, seed, m):
        """Anchors 0 and 1 coincide, so at a negligible lambda the Gram is
        singular and the fit retries with jitter: the fit that factors its
        own Gram in place equals the one that copies a passed Gram, and
        both equal factoring fresh copies."""
        rng = np.random.default_rng(seed)
        train = _train_set(rng, 3)
        aux = generate_auxiliary(train, m, SCHEME, Uniform(3), rng)
        aux[1] = aux[0]
        inputs = [x for x, _ in train]
        lam = 1e-30
        own = fit_alpha(inputs, aux, GAUSS, lam, SCHEME)
        gram = gram_matrix(GAUSS, [(inputs[s.chi_ref], s.p) for s in aux], SCHEME)
        want = _escalate_on_copies(gram.entries, m * lam)
        passed = fit_alpha(inputs, aux, GAUSS, lam, SCHEME, gram=gram)
        assert np.array_equal(gram.entries, gram.entries.T)  # a passed Gram is not written
        assert own.jitter > 0 and own.jitter == passed.jitter == want[1]
        assert np.array_equal(own.factor[0], want[0])
        assert np.array_equal(passed.factor[0], want[0])


def _escalate_on_copies(K, shift):
    """``_factor_system``'s jitter escalation with a fresh ``K + (shift +
    jitter) I`` per attempt: (factor, jitter), or None when it gives up."""
    m = K.shape[0]
    scale = np.trace(K) / m
    jitter = 0.0
    while jitter <= 1e-6 * scale:
        try:
            return cho_factor(K + (shift + jitter) * np.eye(m), lower=True)[0], jitter
        except np.linalg.LinAlgError:
            jitter = jitter * 10.0 if jitter else 1e-12 * scale
    return None


class TestBlockedReadout:
    """The dense readout in blocks of queries against one ``R.T @ cross``
    over the distinct anchor parts. Integer parts and weights keep every sum
    exact, so any summation order gives the same bits and the test sees
    only the blocking."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_blocks_equal_one_product(self, data):
        m = data.draw(st.integers(1, 12))
        parts = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=4))
        ints = arrays(float, (6,), elements=st.integers(-3, 3))
        inputs = data.draw(st.lists(ints, min_size=1, max_size=4))
        aux = [AuxiliarySample(data.draw(st.integers(0, len(inputs) - 1)),
                               data.draw(st.integers(0, 2)), np.zeros(2)) for _ in range(m)]
        # a passed Gram forces the dense path a linear kernel would skip
        gram = gram_matrix(LINEAR, [(inputs[s.chi_ref], s.p) for s in aux], SCHEME)
        model = fit_alpha(inputs, aux, LINEAR, 1.0, SCHEME, gram=gram)
        # the budget counts one row per distinct anchor part, not per anchor
        u = model.prepared_anchors.rows
        per_input = 8 * u * len(parts)
        block = data.draw(st.integers(1, 4))
        n = data.draw(st.sampled_from(sorted({1, max(1, block - 1), block, block + 1,
                                              2 * block + 1})))
        # a budget under one input's cross matrix reads one input per block
        budget = data.draw(st.one_of(st.just(per_input * block),
                                     st.integers(1, per_input - 1)))
        R = data.draw(arrays(float, (u, data.draw(st.integers(1, 3))),
                             elements=st.integers(-5, 5)))
        xs = data.draw(st.lists(ints, min_size=n, max_size=n))

        cross = PreparedAnchors.cross
        widths = []

        def spy(self, block_xs, block_parts):
            widths.append(len(block_xs))
            return cross(self, block_xs, block_parts)

        with mock.patch.object(training, "READOUT_BLOCK_BYTES", budget), \
                mock.patch.object(PreparedAnchors, "cross", spy):
            got = model.readout(R, xs, parts)
        assert np.array_equal(got, R.T @ model.prepared_anchors.cross(xs, parts))
        assert sum(widths) == n
        assert max(widths) == min(n, max(1, budget // per_input))


class TestAlphaAt:
    def test_query_at_unique_anchor(self):
        x = np.zeros(6)
        aux = [AuxiliarySample(0, 0, np.zeros(2))]
        model = fit_alpha([x], aux, GAUSS, 1.0, SCHEME)
        assert alpha_at(model, x, 0) == pytest.approx([0.5])

    def test_part_gate_gives_exact_zero_weights(self):
        # global kernel gated on the part index: querying an unused part
        # index zeroes the right-hand side, hence the weights
        rng = np.random.default_rng(5)
        train = _train_set(rng, 3)
        aux = [AuxiliarySample(i, 0, extract_part(train[i][1], SCHEME, 0)) for i in range(3)]
        model = fit_alpha([x for x, _ in train], aux, GaussianGlobal(1.0), 0.1, SCHEME)
        a = alpha_at(model, rng.standard_normal(6), 2)
        assert np.array_equal(a, np.zeros(3))

    def test_large_lambda_weight_bound(self):
        # with a bounded kernel the weights shrink like max|v| / (m lambda)
        rng = np.random.default_rng(6)
        train = _train_set(rng, 4)
        m, lam = 12, 1e6
        aux = generate_auxiliary(train, m, SCHEME, Uniform(3), rng)
        model = fit_alpha([x for x, _ in train], aux, GAUSS, lam, SCHEME)
        for _ in range(5):
            q = rng.standard_normal(6)
            p = int(rng.integers(3))
            v = model.prepared_anchors.cross([q], [p])[:, 0]
            a = alpha_at(model, q, p)
            assert np.max(np.abs(a)) <= np.max(np.abs(v)) / (m * lam) + 1e-9

    def test_permuting_auxiliary_set_permutes_weights(self):
        rng = np.random.default_rng(7)
        train = _train_set(rng, 5)
        aux = generate_auxiliary(train, 20, SCHEME, Uniform(3), rng)
        inputs = [x for x, _ in train]
        model = fit_alpha(inputs, aux, GAUSS, 0.05, SCHEME)
        perm = rng.permutation(20)
        model_p = fit_alpha(inputs, [aux[i] for i in perm], GAUSS, 0.05, SCHEME)
        q = rng.standard_normal(6)
        a = alpha_at(model, q, 1)
        a_p = alpha_at(model_p, q, 1)
        assert a_p == pytest.approx(a[perm], abs=1e-8)

    def test_restriction_weights_depend_on_part_content_only(self):
        rng = np.random.default_rng(8)
        train = _train_set(rng, 4)
        aux = generate_auxiliary(train, 15, SCHEME, Uniform(3), rng)
        model = fit_alpha([x for x, _ in train], aux, GAUSS, 0.1, SCHEME)
        for _ in range(20):
            shared = rng.standard_normal(2)
            x1 = rng.standard_normal(6)
            x2 = rng.standard_normal(6)
            p1, p2 = (int(v) for v in rng.integers(3, size=2))
            x1[2 * p1 : 2 * p1 + 2] = shared
            x2[2 * p2 : 2 * p2 + 2] = shared
            d = alpha_at(model, x1, p1) - alpha_at(model, x2, p2)
            assert np.max(np.abs(d)) <= 1e-12

    def test_alpha_at_parts_stacks_single_queries(self):
        rng = np.random.default_rng(9)
        train = _train_set(rng, 3)
        aux = generate_auxiliary(train, 10, SCHEME, Uniform(3), rng)
        model = fit_alpha([x for x, _ in train], aux, GAUSS, 0.2, SCHEME)
        q = rng.standard_normal(6)
        A = alpha_at_parts(model, q, [0, 1, 2])
        for p in range(3):
            assert np.allclose(A[:, p], alpha_at(model, q, p), atol=1e-14)


def test_enumerate_auxiliary_orders_pairs():
    rng = np.random.default_rng(10)
    train = _train_set(rng, 2)
    aux = enumerate_auxiliary(train, SCHEME)
    assert [(s.chi_ref, s.p) for s in aux] == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    for s in aux:
        assert np.array_equal(s.eta, extract_part(train[s.chi_ref][1], SCHEME, s.p))


def test_string_scheme_round_trip():
    scheme = SequenceWindows(4, 2)
    train = [("abab", "baba"), ("aabb", "bbaa")]
    aux = enumerate_auxiliary(train, scheme)
    model = fit_alpha([x for x, _ in train], aux, Restriction(GaussianParts(1.0)), 0.1, scheme)
    a = alpha_at(model, "abab", 0)
    assert a.shape == (6,)
    assert np.all(np.isfinite(a))
