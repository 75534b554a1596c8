import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import cho_factor, cho_solve

from locstruct.kernels import (
    GaussianGlobal,
    GaussianParts,
    LinearParts,
    PreparedAnchors,
    Restriction,
    SumKernel,
    cross_matrix,
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
    _LambdaPath,
    alpha_at,
    alpha_at_parts,
    enumerate_auxiliary,
    fit_alpha,
    generate_auxiliary,
)

from helpers import dense_fit

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
        path = _LambdaPath([x], aux, GAUSS, SCHEME)
        for lam in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                fit_alpha([x], aux, GAUSS, lam, SCHEME)
            with pytest.raises(ValueError, match="finite"):
                path(lam)

    def test_lambda_whose_shift_overflows_rejected(self):
        """A finite lambda with ``m * lambda`` infinite would factor an
        infinite system; before it was refused, the fit kept it and the
        model's later refit failed."""
        x = np.zeros(6)
        aux = [AuxiliarySample(0, 0, np.zeros(2)), AuxiliarySample(0, 1, np.zeros(2))]
        path = _LambdaPath([x], aux, GAUSS, SCHEME)
        readout = path.readouts(path.etas.reshape(2, -1), [x], [0])
        for fit in (lambda lam: fit_alpha([x], aux, GAUSS, lam, SCHEME), path, readout):
            with pytest.raises(ValueError, match="overflows"):
                fit(1e308)
        fit_alpha([x], aux, GAUSS, 1e307, SCHEME)  # 2e307 is finite

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
        scheme, kernel, fit = SCHEME, LINEAR, fit_alpha
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
            fit = dense_fit  # the feature map hidden: the dense oracle
        model = fit(inputs, aux, kernel, 0.1, scheme)
        assert model.features is None
        # the dense factor is over the distinct anchor parts
        u = model.prepared_anchors.rows
        assert u <= model.m and model.factor[0].shape == (u, u)

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
        factor, jitter = _factor_system(K, 0.0, 1.0)
        assert jitter > 0

    def test_indefinite_system_raises_with_condition_estimate(self):
        with pytest.raises(FactorizationError, match="condition"):
            _factor_system(-np.eye(3), 0.0, -1.0)
        K = -np.eye(3) + 0.5 * np.ones((3, 3))
        before = K.copy()
        with pytest.raises(FactorizationError, match="condition"):
            _factor_system(K, 0.0, np.trace(K) / 3)
        assert np.array_equal(K, before)  # the shared system is never written

    @settings(max_examples=50, deadline=None)
    @given(m=st.integers(2, 12), dip=st.floats(1e-14, 1e-10), seed=st.integers(0, 2**16))
    def test_retries_equal_fresh_copies(self, m, dip, seed):
        """An exactly symmetric K with a slightly negative eigenvalue needs
        one or more jitter retries. The factor and the jitter are those of
        factoring ``K + (shift + jitter) I`` afresh at each attempt."""
        Q = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, m)))[0]
        w = np.linspace(1.0, 2.0, m)
        w[0] = -dip
        K = (Q * w) @ Q.T
        K = K + K.T  # exactly symmetric
        want = _escalate_on_copies(K, 0.0)
        scale = np.trace(K) / m
        if want is None:
            with pytest.raises(FactorizationError):
                _factor_system(K.copy(), 0.0, scale)
            return
        (c, lower), jitter = _factor_system(K.copy(), 0.0, scale)
        assert jitter > 0 and jitter == want[1]
        assert lower and np.array_equal(c, want[0])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), m=st.integers(1, 20))
    def test_own_gram_retry_equals_passed_gram(self, seed, m):
        """Anchors 0 and 1 hold the parts (0, 1) and (1e-9, 1): two rows of
        the distinct-part system whose Gaussian kernel value rounds to 1,
        the value on its diagonal, so their 2 x 2 block is singular in
        floating point. At a negligible lambda the fit retries with jitter,
        and its factor and jitter equal factoring fresh copies of the
        count-weighted system."""
        rng = np.random.default_rng(seed)
        train = _train_set(rng, 3)
        inputs = [x for x, _ in train] + [np.array([0.0, 1.0] * 3), np.array([1e-9, 1.0] * 3)]
        aux = [AuxiliarySample(3, 0, np.zeros(2)), AuxiliarySample(4, 0, np.zeros(2))]
        aux += generate_auxiliary(train, m, SCHEME, Uniform(3), rng)
        lam = 1e-30
        own = fit_alpha(inputs, aux, GAUSS, lam, SCHEME)
        gram = gram_matrix(GAUSS, [(inputs[s.chi_ref], s.p) for s in aux], SCHEME)
        M, scale = _distinct_system(own.prepared_anchors, gram.entries)
        want = _escalate_on_copies(M, own.m * lam, scale)
        assert own.jitter > 0 and own.jitter == want[1]
        assert np.array_equal(own.factor[0], want[0])


def _distinct_system(prepared, K):
    """The count-weighted system ``W K_u W`` of the m x m Gram ``K``, read at
    the first anchor of each distinct part, and the scale of its jitter,
    ``c . diag(K_u) / m``, which is ``trace(K) / m``."""
    first = np.unique(prepared.index, return_index=True)[1]
    K_u = K[np.ix_(first, first)]
    c = prepared.counts
    w = np.sqrt(c)
    scale = (c * K_u.diagonal()).sum() / prepared.size
    assert scale == pytest.approx(np.trace(K) / prepared.size, rel=1e-14)
    return K_u * np.outer(w, w), scale


def _escalate_on_copies(K, shift, scale=None):
    """``_factor_system``'s jitter escalation with a fresh ``K + (shift +
    jitter) I`` per attempt: (factor, jitter), or None when it gives up."""
    m = K.shape[0]
    if scale is None:
        scale = np.trace(K) / m
    jitter = 0.0
    while jitter <= 1e-6 * scale:
        try:
            return cho_factor(K + (shift + jitter) * np.eye(m), lower=True)[0], jitter
        except np.linalg.LinAlgError:
            jitter = jitter * 10.0 if jitter else 1e-12 * scale
    return None


@st.composite
def distinct_part_fits(draw):
    """(inputs, aux, kernel, scheme, lam, queries) for a dense fit whose
    anchors repeat in four ways: drawn with replacement from inputs of few
    distinct values, m past the number of (input, part) pairs; string
    windows over two symbols; every (input, part) pair once with
    continuous inputs, so no two parts are equal; one sample m times."""
    kind = draw(st.sampled_from(["repeated", "strings", "all_distinct", "single"]))
    lam = 10.0 ** draw(st.integers(-6, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    if kind == "strings":
        scheme = SequenceWindows(4, draw(st.integers(1, 2)))
        word = lambda: "".join(rng.choice(list("ab"), 4))
        train = [(word(), word()) for _ in range(n)]
        queries = [word() for _ in range(2)]
        kernel = draw(st.sampled_from([GAUSS, LINEAR]))  # strings: always dense
    else:
        scheme = SCHEME
        if kind == "all_distinct":
            train = _train_set(rng, n)
        else:
            train = [(x, 2.0 * x) for x in rng.integers(-1, 2, (n, 6)).astype(float)]
        queries = list(rng.standard_normal((2, 6)))
        kernel = GAUSS
    pairs = n * scheme.num_parts
    if kind == "all_distinct":
        aux = enumerate_auxiliary(train, scheme)
    elif kind == "single":
        aux = generate_auxiliary(train, 1, scheme, Uniform(scheme.num_parts), rng)
        aux = aux * draw(st.integers(1, 12))
    else:
        m = draw(st.integers(1, 3 * pairs))
        aux = generate_auxiliary(train, m, scheme, Uniform(scheme.num_parts), rng)
    return [x for x, _ in train], aux, kernel, scheme, lam, queries


class TestDistinctPartSystem:
    """The dense fit factors the u x u count-weighted system over the
    distinct anchor parts; its solves must equal those of the m x m system
    ``K + s I`` on the per-anchor Gram."""

    @staticmethod
    def _bound(A):
        """The rounding bound of a backward-stable solve with ``A``, relative
        to the norm of the exact solution: ``64 m eps cond(A)``."""
        w = np.linalg.eigvalsh(A)
        return 64 * len(A) * np.finfo(float).eps * w[-1] / w[0]

    @settings(max_examples=80, deadline=None)
    @given(case=distinct_part_fits())
    def test_solves_equal_the_per_anchor_system(self, case):
        inputs, aux, kernel, scheme, lam, queries = case
        model = fit_alpha(inputs, aux, kernel, lam, scheme)
        assert model.features is None
        m, u = model.m, model.prepared_anchors.rows
        assert model.factor[0].shape == (u, u)
        K = gram_matrix(kernel, model.anchors, scheme).entries
        A = K + model.shift * np.eye(m)
        tol = self._bound(A)
        rng = np.random.default_rng(m)

        def close(got, want):
            assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)

        V = rng.standard_normal((m, 3))
        close(model.apply_inverse(V), np.linalg.solve(A, V))
        close(model.apply_inverse(V[:, 0]), np.linalg.solve(A, V[:, 0]))
        parts = list(range(scheme.num_parts))
        C = cross_matrix(kernel, model.anchors, [(x, p) for x in queries for p in parts], scheme)
        close(model.alphas(queries, parts), np.linalg.solve(A, C))
        E = rng.standard_normal((m, 2))
        close(model.readout_weights(E), model.prepared_anchors.fold(np.linalg.solve(A, E)))
        # one shared preparation gives the same fit at every lambda, on the
        # dense path and on the feature-space path of a linear kernel
        assert np.array_equal(_LambdaPath(inputs, aux, kernel, scheme)(lam).factor[0],
                              model.factor[0])
        linear = fit_alpha(inputs, aux, LINEAR, lam, scheme)
        assert np.array_equal(_LambdaPath(inputs, aux, LINEAR, scheme)(lam).factor[0],
                              linear.factor[0])

        if u == m:
            # W = I: the m x m factor, weights and readout weights, bit for bit
            factor = _factor_system(K.copy(), m * lam, np.trace(K) / m)[0]
            assert np.array_equal(model.factor[0], factor[0])
            Cq = model.prepared_anchors.cross(queries, parts)
            assert np.array_equal(model.alphas(queries, parts), cho_solve(factor, Cq))
            assert np.array_equal(model.readout_weights(E), cho_solve(factor, E))

    @pytest.mark.parametrize("after_another_lambda", [False, True])
    def test_all_distinct_decodes_equal_the_per_anchor_fit(self, after_another_lambda):
        # every anchor part distinct: the closed-form decodes of the m x m
        # system, bit for bit, also from a path that has fitted another
        # lambda first
        rng = np.random.default_rng(21)
        train = _train_set(rng, 4)
        inputs = [x for x, _ in train]
        aux = enumerate_auxiliary(train, SCHEME)
        K = gram_matrix(GAUSS, [(inputs[s.chi_ref], s.p) for s in aux], SCHEME).entries
        path = _LambdaPath(inputs, aux, GAUSS, SCHEME)
        if after_another_lambda:
            path(10.0)
        model = path(1e-3)
        assert model.prepared_anchors.rows == model.m
        factor = _factor_system(K, model.m * 1e-3, np.trace(K) / model.m)[0]
        Q = list(rng.standard_normal((3, 6)))
        C = model.prepared_anchors.cross(Q, range(3))
        E = np.column_stack([model.etas.reshape(model.m, -1), np.ones(model.m)])
        want = cho_solve(factor, E).T @ C
        assert np.array_equal(model.readout(model.readout_weights(E), Q, range(3)), want)

    def test_jitter_on_a_singular_distinct_system(self):
        """Parts (1, 0), (0, 1) and (1, 1) under the linear kernel, seen 1, 4
        and 9 times: the third is the sum of the other two, so the
        distinct-part system is singular, and with integer weights its
        Cholesky meets an exact zero pivot. The fit retries with jitter at
        the scale trace(K) / m of the per-anchor Gram, and solves that
        system with the jitter added to a backward error of rounding size,
        ``64 m eps (|A| |x| + |v|)``."""
        scheme = VectorBlocks(block_dim=2, num_blocks=1)
        inputs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])]
        aux = [AuxiliarySample(i, 0, np.array([float(i), 0.0])) for i in range(3)]
        aux += [aux[1]] * 3 + [aux[2]] * 8
        gram = gram_matrix(LINEAR, [(inputs[s.chi_ref], 0) for s in aux], scheme)
        lam = 1e-30
        model = dense_fit(inputs, aux, LINEAR, lam, scheme)
        m = model.m
        assert (m, model.prepared_anchors.rows) == (14, 3)
        M, scale = _distinct_system(model.prepared_anchors, gram.entries)
        assert np.array_equal(M, [[1, 0, 3], [0, 4, 6], [3, 6, 18]]) and scale == 23 / 14
        want = _escalate_on_copies(M, m * lam, scale)
        assert model.jitter == want[1] == 1e-12 * scale
        assert np.array_equal(model.factor[0], want[0])
        A = gram.entries + model.shift * np.eye(m)
        v = np.random.default_rng(0).standard_normal(m)
        x = model.apply_inverse(v)
        norm = np.linalg.norm
        bound = 64 * m * np.finfo(float).eps * (norm(A, 2) * norm(x) + norm(v))
        assert norm(A @ x - v) <= bound


class TestLambdaPath:
    """Every fit of a path factors a copy of one lambda-free system, so the
    system is never written and a lambda fitted again gives the same bits."""

    @pytest.mark.parametrize("case", ["feature_space", "dense", "string_windows"])
    def test_shared_system_never_written(self, case):
        rng = np.random.default_rng(31)
        scheme, kernel = SCHEME, GAUSS
        if case == "string_windows":
            scheme = SequenceWindows(4, 2)
            train = [("abab", "baba"), ("aabb", "bbaa"), ("abba", "baab")]
            queries = ["abba", "bbbb"]
            aux = generate_auxiliary(train, 20, scheme, Uniform(scheme.num_parts), rng)
        else:
            train = _train_set(rng, 4)
            queries = list(rng.standard_normal((2, 6)))
            aux = generate_auxiliary(train, 20, scheme, Uniform(3), rng)
            if case == "feature_space":
                kernel = LINEAR
        inputs = [x for x, _ in train]
        parts = list(range(scheme.num_parts))
        path = _LambdaPath(inputs, aux, kernel, scheme)
        first, _, again = path(1e-3), path(10.0), path(1e-3)
        alone = fit_alpha(inputs, aux, kernel, 1e-3, scheme)
        assert (first.features is not None) == (case == "feature_space")
        E = rng.standard_normal((first.m, 2))
        for model in (again, alone):
            assert np.array_equal(model.factor[0], first.factor[0])
            assert np.array_equal(model.alphas(queries, parts), first.alphas(queries, parts))
            assert np.array_equal(model.readout_weights(E), first.readout_weights(E))

    @pytest.mark.parametrize("case", ["feature_space", "dense", "string_windows"])
    def test_readouts_equal_the_fitted_readout(self, case):
        """The grid readout from one eigendecomposition agrees with each
        lambda's factored fit within the rounding that the conditioning
        kappa = (w_max + m lam) / (m lam) of the system allows."""
        rng = np.random.default_rng(37)
        scheme, kernel = SCHEME, GAUSS if case == "dense" else LINEAR
        if case == "string_windows":
            scheme, kernel = SequenceWindows(4, 2), GAUSS
            train = [("abab", "baba"), ("aabb", "bbaa"), ("abba", "baab")]
            queries = ["abba", "bbbb"]
            aux = generate_auxiliary(train, 20, scheme, Uniform(scheme.num_parts), rng)
        else:
            train = _train_set(rng, 4)
            queries = list(rng.standard_normal((2, 6)))
            aux = generate_auxiliary(train, 20, scheme, Uniform(3), rng)
        parts = list(range(scheme.num_parts))
        path = _LambdaPath([x for x, _ in train], aux, kernel, scheme)
        assert (path.features is not None) == (case == "feature_space")
        assert case == "feature_space" or path.prepared.counts.max() > 1
        E = rng.standard_normal((path.m, 3))
        readouts = path.readouts(E, queries, parts)
        w_max = np.linalg.eigvalsh(path._system)[-1]
        for lam in (1e-4, 1e-2, 1.0):
            model = path(lam)
            slow = model.readout(model.readout_weights(E), queries, parts)
            kappa = (w_max + model.shift) / model.shift
            bound = 64 * len(path._system) * kappa * np.finfo(float).eps * np.abs(slow).max()
            assert np.abs(readouts(lam) - slow).max() <= bound

    @pytest.mark.parametrize("case", ["feature_space", "dense", "string_windows"])
    def test_solve_basis_sides(self, case):
        """The two sides of the solve basis meet in the plain cross kernel,
        ``anchor_side(E)^T query_side(xs, parts) = E^T k(anchors, queries)``,
        and ``lift`` is the adjoint of ``anchor_side``: ``E^T lift(Z) =
        anchor_side(E)^T Z``. Every model of the path reads its anchors
        from it, also after its factor is replaced."""
        rng = np.random.default_rng(41)
        if case == "string_windows":
            scheme, kernel = SequenceWindows(4, 2), GAUSS
            train = [("abab", "baba"), ("aabb", "bbaa"), ("abba", "baab")]
            queries = ["abba", "bbbb"]
        else:
            scheme, kernel = SCHEME, LINEAR if case == "feature_space" else GAUSS
            train = _train_set(rng, 4)
            queries = list(rng.standard_normal((2, 6)))
        aux = generate_auxiliary(train, 20, scheme, Uniform(scheme.num_parts), rng)
        parts = list(range(scheme.num_parts))
        path = _LambdaPath([x for x, _ in train], aux, kernel, scheme)
        assert (path.features is not None) == (case == "feature_space")
        assert case == "feature_space" or path.prepared.counts.max() > 1
        model = path(1e-2)
        E = rng.standard_normal((path.m, 3))
        C = cross_matrix(kernel, model.anchors, [(x, p) for x in queries for p in parts], scheme)
        met = path.anchor_side(E).T @ path.query_side(queries, parts)
        assert np.allclose(met, E.T @ C, rtol=1e-12, atol=1e-12 * np.abs(E.T @ C).max())
        Z = rng.standard_normal((len(path._system), 2))
        got, want = E.T @ path.lift(Z), path.anchor_side(E).T @ Z
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

        other = dataclasses.replace(model, factor=path(1.0).factor)
        for name in ("inputs", "aux", "kernel", "scheme", "etas", "features", "m"):
            assert getattr(model, name) is getattr(path, name) is getattr(other, name)
        assert model.prepared_anchors is path.prepared is other.prepared_anchors
        assert (other.path, other.lam, other.jitter) == (path, model.lam, model.jitter)


class TestBlockedReadout:
    """The dense readout in blocks of queries, every block's cross matrix
    written into one buffer, against ``R.T @ cross``."""

    @staticmethod
    def _case(data, kernel):
        """A dense fit of integer inputs, weights ``R``, queries and a
        readout budget of about a few inputs per block, with the cross calls
        of ``readout`` recorded as (inputs, out) pairs."""
        m = data.draw(st.integers(1, 12))
        parts = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=4))
        ints = arrays(float, (6,), elements=st.integers(-3, 3))
        inputs = data.draw(st.lists(ints, min_size=1, max_size=4))
        aux = [AuxiliarySample(data.draw(st.integers(0, len(inputs) - 1)),
                               data.draw(st.integers(0, 2)), np.zeros(2)) for _ in range(m)]
        # the dense path a linear kernel would skip
        model = dense_fit(inputs, aux, kernel, 1.0, SCHEME)
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
        calls = []

        def spy(self, block_xs, block_parts, out=None):
            calls.append((block_xs, out))
            return cross(self, block_xs, block_parts, out=out)

        with mock.patch.object(training, "READOUT_BLOCK_BYTES", budget), \
                mock.patch.object(PreparedAnchors, "cross", spy):
            got = model.readout(R, xs, parts)
        widths = [len(block_xs) for block_xs, _ in calls]
        assert sum(widths) == n
        assert max(widths) == min(n, max(1, budget // per_input))
        return model, R, xs, parts, got, calls

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_blocks_equal_one_product(self, data):
        """Integer parts and weights keep every sum of the linear kernel
        exact, so any summation order gives the same bits and the test sees
        only the blocking."""
        model, R, xs, parts, got, _ = self._case(data, LINEAR)
        assert np.array_equal(got, R.T @ model.prepared_anchors.cross(xs, parts))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_gaussian_blocks_share_one_buffer(self, data):
        """Every block of the Gaussian product path writes its cross matrix
        into one buffer, and reads out as ``R.T @ cross`` of that block into
        a fresh array: bitwise, so no block sees another's entries."""
        model, R, xs, parts, got, calls = self._case(data, GAUSS)
        prepared = model.prepared_anchors
        base = calls[0][1].base
        col = 0
        for block_xs, out in calls:
            assert out.base is base and out.flags.c_contiguous
            want = R.T @ prepared.cross(block_xs, parts)
            assert np.array_equal(got[:, col:col + want.shape[1]], want)
            col += want.shape[1]


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
