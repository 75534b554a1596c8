import itertools
import math
import sys
import tempfile
import threading
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from locstruct.bench import DEFAULT_LAMBDA_GRID

from locstruct.decoder import (
    AngleWrap,
    AngularDecoder,
    BoxProjection,
    CapacityError,
    ClosedForm,
    DecodeRequest,
    DegenerateDecodeWarning,
    ExactEnumeration,
    LeastSquaresDecoder,
    SGM,
    decode_angular,
    decode_exact,
    decode_least_squares,
    decode_sgm,
    _project,
)
from locstruct.kernels import (
    GaussianParts,
    LinearParts,
    PreparedAnchors,
    Restriction,
    cross_matrix,
    kernel_eval,
)
from locstruct.losses import ANGULAR_SIN_SQ, SQUARED_VECTOR, ZERO_ONE_WINDOW, part_loss
from locstruct.modelio import load_model, save_model
from locstruct.parts import (
    GridPatches,
    SequenceWindows,
    ShapeMismatchError,
    Uniform,
    VectorBlocks,
    Weighted,
    index_map,
    part_weights,
)
from locstruct.training import (
    AuxiliarySample,
    NonFiniteError,
    alpha_at,
    alpha_at_parts,
    fit_alpha,
    generate_auxiliary,
)

from helpers import dense_fit, sgm_loop, unit_factor_model


QUERY = np.array([1.0])
PI1 = Uniform(1)


class TestQueryEntry:
    """Query inputs are checked where they enter numpy, before any decode."""

    @staticmethod
    def _decode(kind, model, x):
        if kind == "least_squares":
            return LeastSquaresDecoder(model, PI1).decode_batch([QUERY, x])
        if kind == "angular":
            return AngularDecoder(model, PI1).decode_batch([x, QUERY])
        method = SGM(iterations=10, rng=np.random.default_rng(0))
        return decode_sgm(DecodeRequest(model, x, SQUARED_VECTOR, PI1, method))

    @pytest.mark.parametrize("kind", ["least_squares", "angular", "sgm"])
    def test_non_finite_query_rejected(self, kind):
        model = unit_factor_model([0.5, 0.5], [0.0, 1.0])
        for bad in (np.nan, np.inf):
            with pytest.raises(NonFiniteError):
                self._decode(kind, model, np.array([bad]))

    @pytest.mark.parametrize("kind", ["least_squares", "angular", "sgm"])
    def test_wrong_shape_query_rejected(self, kind):
        model = unit_factor_model([0.5, 0.5], [0.0, 1.0])
        with pytest.raises(ShapeMismatchError):
            self._decode(kind, model, np.zeros(2))

    def test_wrong_length_string_rejected(self):
        model, _ = seq_model([("ab", "ba")])
        req = DecodeRequest(model, "abc", ZERO_ONE_WINDOW, Uniform(2),
                            ExactEnumeration(budget=10, alphabet=("a", "b")))
        with pytest.raises(ShapeMismatchError):
            decode_exact(req)


class TestDecodeLeastSquares:
    def test_weighted_mean(self):
        model = unit_factor_model([0.5, 0.5], [0.0, 2.0])
        req = DecodeRequest(model, QUERY, SQUARED_VECTOR, PI1, ClosedForm())
        assert decode_least_squares(req)[0] == pytest.approx(1.0)

    def test_signed_weights_solved_by_hand(self):
        # minimize 1*z^2 - 0.5*(z - 2)^2: derivative z + 2 = 0, so z = -2
        model = unit_factor_model([1.0, -0.5], [0.0, 2.0])
        req = DecodeRequest(model, QUERY, SQUARED_VECTOR, PI1, ClosedForm())
        assert decode_least_squares(req)[0] == pytest.approx(-2.0)

    def test_degenerate_total_falls_back_to_weighted_sum(self):
        model = unit_factor_model([1.0, -1.0], [0.0, 2.0])
        req = DecodeRequest(model, QUERY, SQUARED_VECTOR, PI1, ClosedForm())
        with pytest.warns(DegenerateDecodeWarning):
            z = decode_least_squares(req)
        assert z[0] == pytest.approx(-2.0)  # 1*0 + (-1)*2

    def test_wrong_loss_rejected(self):
        model = unit_factor_model([1.0], [0.0])
        req = DecodeRequest(model, QUERY, ZERO_ONE_WINDOW, PI1, ClosedForm())
        with pytest.raises(ValueError):
            decode_least_squares(req)

    def test_overlapping_windows_average_per_coordinate(self):
        # two overlapping two-long windows on a three-long vector
        scheme = VectorBlocks(block_dim=1, num_blocks=3)
        rng = np.random.default_rng(0)
        train = [(rng.standard_normal(3), rng.standard_normal(3)) for _ in range(6)]
        aux = [AuxiliarySample(i, p, np.array([train[i][1][p]]))
               for i in range(6) for p in range(3)]
        model = fit_alpha([x for x, _ in train], aux, Restriction(GaussianParts(1.0)),
                          0.05, scheme)
        req = DecodeRequest(model, train[0][0], SQUARED_VECTOR, Uniform(3), ClosedForm())
        z = decode_least_squares(req)
        assert z.shape == (3,)
        assert np.all(np.isfinite(z))


class TestFeatureSpaceOracle:
    """The feature-space solve of a linear restriction kernel (K = F F^T,
    d < m) against the dense solve on the same anchors, which hiding the
    feature map forces (``helpers.dense_fit``)."""

    # with fewer distinct anchor parts than d a total can still fall below
    # zero; both paths then take the flagged unnormalized branch
    @pytest.mark.filterwarnings("ignore::locstruct.decoder.DegenerateDecodeWarning")
    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 5), num_parts=st.integers(1, 4), n=st.integers(1, 8),
           extra=st.integers(1, 40), lam=st.sampled_from(DEFAULT_LAMBDA_GRID),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_dual_solve(self, d, num_parts, n, extra, lam, seed):
        rng = np.random.default_rng(seed)
        scheme = VectorBlocks(block_dim=d, num_blocks=num_parts)
        pi = Uniform(num_parts)
        # Inputs in a positive box and outputs that follow them keep the
        # weight totals, conditional means and angular resultants of order
        # one. Where one of them nears zero the readout cancels, and the dual
        # oracle's own rounding (about 1e-11 of the output scale at lambda =
        # 1e-6) is no longer small against the result.
        X = rng.uniform(0.5, 1.5, (n, d * num_parts))
        Y = 0.5 * X + 0.1 * rng.standard_normal(X.shape)
        inputs = list(X)
        aux = generate_auxiliary(list(zip(X, Y)), d + extra, scheme, pi, rng)
        kernel = Restriction(LinearParts())
        primal = fit_alpha(inputs, aux, kernel, lam, scheme)
        dual = dense_fit(inputs, aux, kernel, lam, scheme)
        assert primal.features is not None and dual.features is None

        def close(a, b):
            assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(b)

        Q = rng.uniform(0.5, 1.5, (3, d * num_parts))
        parts = range(num_parts)
        close(alpha_at_parts(primal, Q[0], parts), alpha_at_parts(dual, Q[0], parts))
        for normalize in (True, False):
            close(LeastSquaresDecoder(primal, pi, normalize).decode_batch(Q),
                  LeastSquaresDecoder(dual, pi, normalize).decode_batch(Q))
        close(AngularDecoder(primal, pi).decode_batch(Q), AngularDecoder(dual, pi).decode_batch(Q))


class TestBatchInputs:
    """Batches at the edges of the gather, which hands the parts of inputs
    that the parts tile in order on as a view of the stacked inputs: an
    empty batch on either solve path, and a read-only batch, which a decode
    must leave as it is."""

    @staticmethod
    def _decoders(path):
        rng = np.random.default_rng(5)
        scheme = VectorBlocks(block_dim=3, num_blocks=4)
        X = rng.uniform(0.5, 1.5, (4, 12))
        aux = generate_auxiliary(list(zip(X, 0.5 * X)), 16, scheme, Uniform(4), rng)
        fit = fit_alpha if path == "feature_space" else dense_fit
        model = fit(list(X), aux, Restriction(LinearParts()), 0.1, scheme)
        assert (model.features is not None) == (path == "feature_space")
        pi = Uniform(4)
        return [LeastSquaresDecoder(model, pi), LeastSquaresDecoder(model, pi, normalize=False),
                AngularDecoder(model, pi)]

    @pytest.mark.parametrize("path", ["feature_space", "dense"])
    def test_empty_batch_decodes_to_an_empty_array(self, path):
        for decoder in self._decoders(path):
            for batch in ([], np.empty((0, 12))):
                out = decoder.decode_batch(batch)
                assert out.shape == (0, 12) and out.dtype == float

    @pytest.mark.parametrize("path", ["feature_space", "dense"])
    def test_read_only_batch_is_left_as_it_is(self, path):
        X = np.random.default_rng(6).uniform(0.5, 1.5, (3, 12))
        X.flags.writeable = False
        before = X.copy()
        for decoder in self._decoders(path):
            out = decoder.decode_batch(X)
            assert np.array_equal(X, before) and not np.shares_memory(out, X)
            assert np.array_equal(out, decoder.decode_batch(before))


class TestDecodeAngular:
    def test_single_anchor_copies_the_angle(self):
        model = unit_factor_model([0.7], [np.pi / 4])
        req = DecodeRequest(model, QUERY, ANGULAR_SIN_SQ, PI1, ClosedForm())
        assert decode_angular(req)[0] == pytest.approx(np.pi / 4)

    def test_cancelled_resultant_is_degenerate(self):
        # opposite weights on one angle cancel the resultant exactly
        model = unit_factor_model([0.5, -0.5], [np.pi / 3, np.pi / 3])
        req = DecodeRequest(model, QUERY, ANGULAR_SIN_SQ, PI1, ClosedForm())
        with pytest.warns(DegenerateDecodeWarning):
            z = decode_angular(req)
        assert z[0] == 0.0

    def test_orthogonal_anchors_leave_a_flat_objective(self):
        # cos0 + cos(pi) cancels exactly; sin0 + sin(pi) only up to the
        # floating-point residue of sin(pi), so the objective is flat to
        # ~1e-16 and any output attains the minimum
        model = unit_factor_model([0.5, 0.5], [0.0, np.pi / 2])
        req = DecodeRequest(model, QUERY, ANGULAR_SIN_SQ, PI1, ClosedForm())
        z = decode_angular(req)[0]

        def objective(t):
            return 0.5 * np.sin(t) ** 2 + 0.5 * np.sin(t - np.pi / 2) ** 2

        grid = np.arange(-np.pi, np.pi, 1e-4)
        assert objective(z) <= objective(grid).min() + 1e-12

    def test_two_anchor_bisector_against_grid_scan(self):
        model = unit_factor_model([0.5, 0.5], [0.0, np.pi / 3])
        req = DecodeRequest(model, QUERY, ANGULAR_SIN_SQ, PI1, ClosedForm())
        z = decode_angular(req)[0]
        grid = np.arange(-np.pi, np.pi, 1e-4)
        objective = 0.5 * np.sin(grid) ** 2 + 0.5 * np.sin(grid - np.pi / 3) ** 2
        # the objective has period pi, so compare attained values, then the
        # canonical representative
        assert objective[np.abs(grid - z).argmin()] <= objective.min() + 1e-8
        assert z == pytest.approx(np.pi / 6, abs=1e-12)

    def test_output_range(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            m = int(rng.integers(1, 6))
            model = unit_factor_model(rng.uniform(-1, 1, m), rng.uniform(-np.pi, np.pi, m))
            req = DecodeRequest(model, QUERY, ANGULAR_SIN_SQ, PI1, ClosedForm())
            z = decode_angular(req)[0]
            assert -np.pi <= z < np.pi


def seq_model(train, lam=1e-3, window=1, kernel=Restriction(GaussianParts(1.0))):
    scheme = SequenceWindows(len(train[0][0]), window)
    aux = [AuxiliarySample(i, p, y[p : p + window])
           for i, (_, y) in enumerate(train) for p in range(scheme.num_parts)]
    model = fit_alpha([x for x, _ in train], aux, kernel, lam, scheme)
    return model, scheme


def brute_force_argmin(model, x, loss, pi, alphabet, alpha=alpha_at):
    """Independent recomputation of the decoding objective: anchor-major loop
    order and its own window slicing, with the decoder's tie rule: the first
    output, in lexicographic order, within the tie slack of the minimum.
    ``alpha(model, x, p)`` gives the weight vector of one part."""
    scheme = model.scheme
    weights = part_weights(pi, scheme.num_parts)
    alphas = [alpha(model, x, p) for p in range(scheme.num_parts)]
    objs = {}
    for cand in itertools.product(sorted(alphabet), repeat=scheme.seq_len):
        z = "".join(cand) if isinstance(cand[0], str) else cand
        obj = 0.0
        for j, s in enumerate(model.aux):
            for p in range(scheme.num_parts):
                a = alphas[p][j]
                obj += a * weights[p] * part_loss(loss, z[p : p + scheme.window_len], s.eta)
        objs[z] = obj
    low = min(objs.values())
    return next(z for z, obj in objs.items() if obj <= low + 1e-9 * (1.0 + abs(low)))


def position_vote(model, x, alphabet):
    """With singleton windows the objective separates per position into a
    weighted vote over anchor symbols: the heaviest symbol at each position,
    ties to the smallest."""
    votes = []
    for p in range(model.scheme.num_parts):
        a = alpha_at(model, x, p)
        score = {sym: 0.0 for sym in alphabet}
        for j, s in enumerate(model.aux):
            score[s.eta] += a[j]
        votes.append(max(sorted(score), key=lambda sym: score[sym]))
    return "".join(votes)


class TestDecodeExact:
    def test_single_anchor_copies_part(self):
        model, scheme = seq_model([("a", "b")])
        req = DecodeRequest(model, "a", ZERO_ONE_WINDOW, Uniform(1),
                            ExactEnumeration(budget=10, alphabet=("a", "b")))
        assert decode_exact(req) == "b"

    def test_zero_weights_return_lexicographically_smallest(self):
        # the two anchors share one part: the factor is over that one part
        model = unit_factor_model(["aaa", "aaa"], ["b", "b"], SequenceWindows(3, 1))
        # query whose windows never match the anchors: all weights vanish
        req = DecodeRequest(model, "ccc", ZERO_ONE_WINDOW, Uniform(3),
                            ExactEnumeration(budget=10, alphabet=("b", "a")))
        assert decode_exact(req) == "aaa"

    def test_anchor_symbols_outside_alphabet_never_match(self):
        train = [("abb", "acb"), ("bab", "bba")]
        model, _ = seq_model(train, window=2)
        req = DecodeRequest(model, "abb", ZERO_ONE_WINDOW, Uniform(2),
                            ExactEnumeration(budget=8, alphabet=("b", "a")))
        assert decode_exact(req) == brute_force_argmin(model, "abb", ZERO_ONE_WINDOW,
                                                       Uniform(2), ("a", "b"))

    def test_budget_exceeded(self):
        model, scheme = seq_model([("abc", "abc")])
        req = DecodeRequest(model, "abc", ZERO_ONE_WINDOW, Uniform(3),
                            ExactEnumeration(budget=5, alphabet=("a", "b")))
        with pytest.raises(CapacityError):  # a table of 3 parts x 2 symbols
            decode_exact(req)

    def test_matches_brute_force_and_position_majority(self):
        rng = np.random.default_rng(3)
        alphabet = ("a", "b")
        train = []
        for _ in range(4):
            x = "".join(rng.choice(alphabet, 3))
            y = "".join(rng.choice(alphabet, 3))
            train.append((x, y))
        model, scheme = seq_model(train)
        x = "".join(rng.choice(alphabet, 3))
        pi = Uniform(3)
        req = DecodeRequest(model, x, ZERO_ONE_WINDOW, pi,
                            ExactEnumeration(budget=8, alphabet=alphabet))
        z = decode_exact(req)
        assert z == brute_force_argmin(model, x, ZERO_ONE_WINDOW, pi, alphabet)
        assert z == position_vote(model, x, alphabet)

    def test_long_sequence_matches_position_majority(self):
        # 2^200 outputs, far past any enumeration; the table has 200 x 2 entries
        rng = np.random.default_rng(9)
        alphabet = ("b", "a")
        flip = str.maketrans("ab", "ba")
        train = []
        for _ in range(3):
            x = "".join(rng.choice(alphabet, 200))
            train.append((x, x.translate(flip)))
        model, _ = seq_model(train)
        x = "".join(rng.choice(alphabet, 200))
        req = DecodeRequest(model, x, ZERO_ONE_WINDOW, Uniform(200),
                            ExactEnumeration(budget=1000, alphabet=alphabet))
        assert decode_exact(req) == position_vote(model, x, alphabet)


@st.composite
def exact_cases(draw):
    """Window decoding instances small enough for the enumeration oracle,
    which makes about n_sym^k * m * num_parts weight evaluations."""
    n_sym = draw(st.integers(2, 4))
    window = draw(st.integers(1, 3))
    n_train = draw(st.integers(1, 2))
    fits = [P for P in range(1, 6) if n_sym ** (P + window - 1) * P * P * n_train <= 4096]
    return (n_sym, window, draw(st.sampled_from(fits)), n_train,
            draw(st.booleans()), draw(st.booleans()), draw(st.booleans()),
            draw(st.integers(0, 2**32 - 1)))


class TestExactAgainstEnumeration:
    @settings(max_examples=100, deadline=None)
    @given(case=exact_cases())
    def test_matches_brute_force(self, case):
        n_sym, window, num_parts, n_train, numeric, linear, weighted, seed = case
        rng = np.random.default_rng(seed)
        k = num_parts + window - 1
        if numeric:  # squared loss over numbers, given unsorted
            alphabet, loss = tuple(rng.permutation([-1.0, 0.5, 2.0, 3.5][:n_sym])), SQUARED_VECTOR
            draw = lambda: np.array(rng.choice(alphabet, k))
        else:
            alphabet, loss = tuple(rng.permutation(list("abcd"[:n_sym]))), ZERO_ONE_WINDOW
            draw = lambda: "".join(rng.choice(alphabet, k))
        train = [(draw(), draw()) for _ in range(n_train)]
        kernel = Restriction(LinearParts() if linear else GaussianParts(1.0))
        model, _ = seq_model(train, lam=float(10 ** rng.uniform(-3, 0)), window=window,
                             kernel=kernel)
        pi = Uniform(num_parts)
        if weighted:  # raw weights with one part switched off
            pi = rng.uniform(0.1, 1.0, num_parts)
            pi[rng.integers(num_parts)] = 0.0
        x = draw()
        req = DecodeRequest(model, x, loss, pi,
                            ExactEnumeration(budget=num_parts * n_sym**window, alphabet=alphabet))
        assert decode_exact(req) == brute_force_argmin(model, x, loss, pi, alphabet)


@st.composite
def memo_cases(draw):
    """A numeric window model on the dense or the feature-space path, with
    a query and part weights of which one is zero."""
    window = draw(st.integers(1, 2))
    num_parts = draw(st.integers(2, 3))
    return window, num_parts, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


class TestReadoutMemo:
    """The exact decoder's cost table comes from readout weights kept on the
    model; reusing them must not change a decode."""

    @settings(max_examples=25, deadline=None)
    @given(case=memo_cases())
    def test_alternating_tables_match_brute_force(self, case):
        window, num_parts, linear, seed = case
        rng = np.random.default_rng(seed)
        k = num_parts + window - 1
        symbols = [-1.0, 0.5, 2.0]
        train = [(rng.choice(symbols, k), rng.choice(symbols, k)) for _ in range(3)]
        kernel = Restriction(LinearParts() if linear else GaussianParts(1.0))
        model, _ = seq_model(train, lam=0.05, window=window, kernel=kernel)
        assert (model.features is not None) == linear  # d = window < m = 3 * num_parts
        pi = rng.uniform(0.1, 1.0, num_parts)
        pi[rng.integers(num_parts)] = 0.0
        x = rng.choice(symbols, k)
        tables = [(loss, alphabet) for loss in (SQUARED_VECTOR, ZERO_ONE_WINDOW)
                  for alphabet in ((2.0, -1.0), (0.5, -1.0, 2.0))]
        for loss, alphabet in tables + tables[::-1]:
            method = ExactEnumeration(budget=num_parts * len(alphabet)**window, alphabet=alphabet)
            z = decode_exact(DecodeRequest(model, x, loss, pi, method))
            assert z == brute_force_argmin(model, x, loss, pi, alphabet)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_warm_model_decodes_as_a_freshly_loaded_one(self, seed):
        rng = np.random.default_rng(seed)
        draw = lambda: "".join(rng.choice(list("abc"), 5))
        model, _ = seq_model([(draw(), draw()) for _ in range(4)], window=2)
        method = ExactEnumeration(budget=100, alphabet=tuple("abc"))
        queries = [draw() for _ in range(4)]
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "model.json"
            save_model(model, path)
            loaded = load_model(path)
            assert np.allclose(loaded.alphas(queries, range(4)), model.alphas(queries, range(4)),
                               rtol=0, atol=1e-12)
            for _ in range(2):
                for x in queries:
                    warm = decode_exact(DecodeRequest(model, x, ZERO_ONE_WINDOW, Uniform(4), method))
                    cold = decode_exact(DecodeRequest(load_model(path), x, ZERO_ONE_WINDOW,
                                                      Uniform(4), method))
                    assert warm == cold == decode_exact(
                        DecodeRequest(loaded, x, ZERO_ONE_WINDOW, Uniform(4), method))

    def test_concurrent_fills_decode_as_serial_calls(self):
        rng = np.random.default_rng(6)
        train = [(rng.choice([-1.0, 2.0], 4), rng.choice([-1.0, 2.0], 4)) for _ in range(4)]
        x = rng.choice([-1.0, 2.0], 4)
        requests = [DecodeRequest(None, x, loss, Uniform(3),
                                  ExactEnumeration(budget=100, alphabet=alphabet))
                    for loss in (SQUARED_VECTOR, ZERO_ONE_WINDOW)
                    for alphabet in ((2.0, -1.0), (0.5, -1.0, 2.0))]
        decode = lambda model, req: decode_exact(replace(req, model=model))
        serial = [decode(seq_model(train, window=2)[0], req) for req in requests]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                model, _ = seq_model(train, window=2)  # an empty memo each round
                results = {}
                work = lambda k: results.setdefault(k, decode(model, requests[k % 4]))
                threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert [results[k] for k in range(8)] == serial * 2
        finally:
            sys.setswitchinterval(interval)

    def test_closed_form_decoders_share_the_models_weights(self):
        scheme = VectorBlocks(block_dim=1, num_blocks=3)
        rng = np.random.default_rng(2)
        X = rng.standard_normal((4, 3))
        aux = [AuxiliarySample(i, p, X[i, p : p + 1]) for i in range(4) for p in range(3)]
        model = fit_alpha(list(X), aux, Restriction(GaussianParts(1.0)), 0.1, scheme)
        squared = LeastSquaresDecoder(model, Uniform(3))
        angular = AngularDecoder(model, Uniform(3))
        assert LeastSquaresDecoder(model, Uniform(3), normalize=False)._readout is squared._readout
        assert AngularDecoder(model, Uniform(3))._readout is angular._readout
        assert angular._readout is not squared._readout


def oracle_alpha(model, x, p):
    """``(K + m lambda I)^{-1} v`` for ``v_j = kernel_eval(anchor_j, (x, p))``:
    the weights from the scalar kernel, one entry per anchor."""
    v = np.array([kernel_eval(model.kernel, a, (x, p), model.scheme) for a in model.anchors])
    return model.apply_inverse(v)


def per_anchor_rows():
    """Prepared anchors evaluated with one row per anchor, as if no two
    anchor parts were equal."""
    return mock.patch.object(PreparedAnchors, "_distinct", property(
        lambda self: (self._stack, self.size, np.arange(self.size))))


GRID = GridPatches(width=4, height=4, patch_w=2, patch_h=2, stride=2, circular=True)


@st.composite
def grid_fits(draw):
    """A Gaussian restriction model on 4 grid patches whose anchors are drawn
    with replacement from 1-3 fields: m runs past the number of (field,
    part) pairs, down to a single anchor. Inputs in a positive box and
    outputs in a narrow band keep weight totals and resultants of order
    one, so the decodes do not cancel."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3 * 4 * n))
    lam = draw(st.sampled_from([1e-3, 1e-2, 1e-1]))
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.5, 1.5, (n, 4, 4))
    Y = 0.3 * X + 0.05 * rng.standard_normal(X.shape)
    aux = generate_auxiliary(list(zip(X, Y)), m, GRID, Uniform(4), rng)
    return list(X), aux, lam, rng.uniform(0.5, 1.5, (draw(st.integers(1, 3)), 4, 4))


def _assert_rel(got, want, rtol):
    assert np.all(np.abs(got - want) <= rtol * np.maximum(np.abs(want), np.abs(want).max()))


class TestDistinctAnchorOracle:
    """Decodes that evaluate the kernel once per distinct anchor part
    against the per-anchor oracles: the scalar ``kernel_eval``, ``R.T @
    cross_matrix`` on all m anchors, and the per-anchor evaluation."""

    @settings(max_examples=40, deadline=None)
    @given(case=grid_fits())
    def test_weights_readout_and_closed_forms(self, case):
        inputs, aux, lam, Q = case
        kernel = Restriction(GaussianParts(1.0))
        model = fit_alpha(inputs, aux, kernel, lam, GRID)
        assert model.prepared_anchors.rows == len({(s.chi_ref, s.p) for s in aux})
        parts = [3, 0, 2]
        A = model.alphas(Q, parts)
        want = np.column_stack([oracle_alpha(model, x, p) for x in Q for p in parts])
        assert np.linalg.norm(A - want) <= 1e-10 * np.linalg.norm(want)

        E = np.column_stack([model.etas.reshape(model.m, -1), np.ones(model.m)])
        R = model.apply_inverse(E)
        C = cross_matrix(kernel, model.anchors, [(x, p) for x in Q for p in parts], GRID)
        got = model.readout(model.readout_weights(E), Q, parts)
        # the bound of rounding in either summation order
        assert np.all(np.abs(got - (R.T @ C).T) <= 1e-13 * (np.abs(R).T @ np.abs(C)).T)

        pi = Uniform(4)
        decoders = [lambda m: LeastSquaresDecoder(m, pi), lambda m: AngularDecoder(m, pi),
                    lambda m: LeastSquaresDecoder(m, pi, normalize=False)]
        with per_anchor_rows():
            per_anchor = fit_alpha(inputs, aux, kernel, lam, GRID)
            wants = [make(per_anchor).decode_batch(Q) for make in decoders]
        for make, want in zip(decoders, wants):
            _assert_rel(make(model).decode_batch(Q), want, 1e-10)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_train=st.integers(1, 3),
           extra=st.integers(0, 12), window=st.integers(1, 2))
    def test_exact_decodes_on_repeated_windows(self, seed, n_train, extra, window):
        # two symbols over 4 positions: windows repeat within and across strings
        rng = np.random.default_rng(seed)
        draw = lambda: "".join(rng.choice(list("ab"), 4))
        train = [(draw(), draw()) for _ in range(n_train)]
        scheme = SequenceWindows(4, window)
        pairs = n_train * scheme.num_parts
        aux = generate_auxiliary(train, pairs + extra, scheme, Uniform(scheme.num_parts), rng)
        model = fit_alpha([x for x, _ in train], aux, Restriction(GaussianParts(1.0)),
                          0.05, scheme)
        assert model.prepared_anchors.rows <= 2**window
        x = draw()
        pi = Uniform(scheme.num_parts)
        method = ExactEnumeration(budget=100, alphabet=("b", "a"))
        assert decode_exact(DecodeRequest(model, x, ZERO_ONE_WINDOW, pi, method)) == \
            brute_force_argmin(model, x, ZERO_ONE_WINDOW, pi, "ab", alpha=oracle_alpha)

    @settings(max_examples=30, deadline=None)
    @given(case=grid_fits())
    def test_permuting_anchors_leaves_closed_forms_unchanged(self, case):
        inputs, aux, lam, Q = case
        perm = np.random.default_rng(len(aux)).permutation(len(aux))
        fits = [fit_alpha(inputs, a, Restriction(GaussianParts(1.0)), lam, GRID)
                for a in (aux, [aux[i] for i in perm])]
        for make in (lambda m: LeastSquaresDecoder(m, Uniform(4)),
                     lambda m: AngularDecoder(m, Uniform(4))):
            a, b = (make(f).decode_batch(Q) for f in fits)
            _assert_rel(b, a, 1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_permuting_anchors_leaves_exact_decodes_unchanged(self, seed):
        rng = np.random.default_rng(seed)
        draw = lambda: "".join(rng.choice(list("abc"), 5))
        train = [(draw(), draw()) for _ in range(3)]
        scheme = SequenceWindows(5, 2)
        aux = generate_auxiliary(train, 20, scheme, Uniform(4), rng)
        perm = rng.permutation(20)
        fits = [fit_alpha([x for x, _ in train], a, Restriction(GaussianParts(1.0)), 0.05,
                          scheme) for a in (aux, [aux[i] for i in perm])]
        method = ExactEnumeration(budget=100, alphabet=tuple("abc"))
        for x in [draw() for _ in range(3)]:
            a, b = (decode_exact(DecodeRequest(f, x, ZERO_ONE_WINDOW, Uniform(4), method))
                    for f in fits)
            assert a == b

    @pytest.mark.filterwarnings("ignore::locstruct.decoder.DegenerateDecodeWarning")
    def test_feature_space_path_never_builds_the_distinct_rows(self):
        rng = np.random.default_rng(3)
        scheme = VectorBlocks(block_dim=2, num_blocks=3)
        train = [(rng.standard_normal(6), rng.standard_normal(6)) for _ in range(4)]
        Q = [rng.standard_normal(6) for _ in range(3)]

        def forbidden(self):
            raise AssertionError("the feature-space path built the distinct rows")

        with mock.patch.object(PreparedAnchors, "_distinct", property(forbidden)):
            aux = generate_auxiliary(train, 30, scheme, Uniform(3), rng)
            model = fit_alpha([x for x, _ in train], aux, Restriction(LinearParts()), 0.1, scheme)
            assert model.features is not None
            LeastSquaresDecoder(model, Uniform(3)).decode_batch(Q)
            AngularDecoder(model, Uniform(3)).decode_batch(Q)
            model.alphas(Q, [0, 2])
            decode_sgm(DecodeRequest(model, Q[0], SQUARED_VECTOR, Uniform(3),
                                     SGM(iterations=50, rng=np.random.default_rng(0))))


class TestExactMethod:
    @pytest.mark.parametrize("budget,alphabet", [
        (10, ("ab", "c")),
        (10, ("a", "b", "a")),
        (10, ()),
        (10, ("a", 1.0)),
        (0, ("a", "b")),
        (2.5, ("a", "b")),
        (True, ("a", "b")),
        ("10", ("a", "b")),
    ], ids=["multi_char", "duplicate", "empty", "mixed", "zero_budget", "float_budget",
            "bool_budget", "string_budget"])
    def test_bad_method_rejected(self, budget, alphabet):
        with pytest.raises(ValueError):
            ExactEnumeration(budget=budget, alphabet=alphabet)

    def test_numpy_integer_budget_accepted(self):
        assert ExactEnumeration(budget=np.int64(10), alphabet=("a",)).budget == 10

    def test_numeric_alphabet_returns_tuple(self):
        model, _ = seq_model([((0.0, 1.0), (1.0, 0.0))])
        req = DecodeRequest(model, (0.0, 1.0), SQUARED_VECTOR, Uniform(2),
                            ExactEnumeration(budget=10, alphabet=[1.0, 0.0]))
        assert decode_exact(req) == (1.0, 0.0)


class TestSGMMethod:
    @pytest.mark.parametrize("iterations,step_c", [
        (0, None),
        (2.5, None),
        (True, None),
        (10.0, None),
        (10, 0.0),
        (10, -1.0),
        (10, math.nan),
        (10, math.inf),
    ], ids=["zero_iterations", "float_iterations", "bool_iterations", "integral_float",
            "zero_step", "negative_step", "nan_step", "infinite_step"])
    def test_bad_method_rejected(self, iterations, step_c):
        with pytest.raises(ValueError):
            SGM(iterations=iterations, rng=np.random.default_rng(0), step_c=step_c)

    def test_numpy_integer_iterations_accepted(self):
        method = SGM(iterations=np.int64(3), rng=np.random.default_rng(0), step_c=0.5)
        z = decode_sgm(DecodeRequest(unit_factor_model([0.5], [1.0]), QUERY, SQUARED_VECTOR, PI1,
                                     method))
        assert np.isfinite(z).all()


class TestZeroPartWeights:
    @pytest.mark.parametrize("decoder", [LeastSquaresDecoder, AngularDecoder])
    def test_rejected_at_construction(self, decoder):
        scheme = VectorBlocks(block_dim=1, num_blocks=3)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((4, 3))
        aux = [AuxiliarySample(i, p, X[i, p : p + 1]) for i in range(4) for p in range(3)]
        model = fit_alpha(list(X), aux, Restriction(GaussianParts(1.0)), 0.1, scheme)
        with pytest.raises(ValueError, match="positive total"):
            decoder(model, np.zeros(3))


class TestScaleInvariance:
    def test_positive_rescaling_leaves_argmins_unchanged(self):
        rng = np.random.default_rng(4)
        vals = rng.uniform(0.1, 1.0, 4)
        etas = rng.uniform(-1.0, 1.0, 4)
        for c in (0.25, 7.0):
            base = unit_factor_model(vals, etas)
            scaled = unit_factor_model(vals, etas, scale=c)
            req_b = DecodeRequest(base, QUERY, SQUARED_VECTOR, PI1, ClosedForm())
            req_s = DecodeRequest(scaled, QUERY, SQUARED_VECTOR, PI1, ClosedForm())
            assert decode_least_squares(req_s)[0] == pytest.approx(
                decode_least_squares(req_b)[0], rel=1e-12)
            angles = rng.uniform(-1.5, 1.5, 4)
            base_a = unit_factor_model(vals, angles)
            scaled_a = unit_factor_model(vals, angles, scale=c)
            req_b = DecodeRequest(base_a, QUERY, ANGULAR_SIN_SQ, PI1, ClosedForm())
            req_s = DecodeRequest(scaled_a, QUERY, ANGULAR_SIN_SQ, PI1, ClosedForm())
            assert decode_angular(req_s)[0] == pytest.approx(
                decode_angular(req_b)[0], rel=1e-12)


class TestDecodeSGM:
    @pytest.mark.parametrize("loss", [SQUARED_VECTOR, ANGULAR_SIN_SQ], ids=["squared", "angular"])
    def test_equals_per_iteration_loop(self, loss):
        rng = np.random.default_rng(21)
        scheme = GridPatches(width=4, height=4, patch_w=2, patch_h=2, stride=2, circular=True)
        train = [(rng.standard_normal((2, 4, 4)), rng.uniform(-1.0, 1.0, (4, 4)))
                 for _ in range(5)]
        pi = Weighted((0.5, 0.0, 0.25, 0.25))
        aux = generate_auxiliary(train, 30, scheme, pi, rng)
        model = fit_alpha([x for x, _ in train], aux, Restriction(GaussianParts(2.0)), 0.1, scheme)
        for i in range(3):
            x = rng.standard_normal((2, 4, 4))
            fast, slow = (DecodeRequest(model, x, loss, pi, SGM(
                iterations=400, rng=np.random.default_rng(i))) for _ in range(2))
            assert np.array_equal(decode_sgm(fast), sgm_loop(slow))

    def test_scalar_squared_matches_closed_form(self):
        rng = np.random.default_rng(5)
        for trial in range(3):
            vals = rng.uniform(0.05, 1.0, 5)
            etas = rng.uniform(-1.0, 1.0, 5)
            model = unit_factor_model(vals, etas)
            z_star = decode_least_squares(
                DecodeRequest(model, QUERY, SQUARED_VECTOR, PI1, ClosedForm()))[0]
            method = SGM(iterations=20000, rng=np.random.default_rng(100 + trial), step_c=1.0)
            z = decode_sgm(DecodeRequest(model, QUERY, SQUARED_VECTOR, PI1, method))[0]
            assert abs(z - z_star) <= 0.05 * (1.0 + abs(z_star))

    def test_angular_bisector(self):
        model = unit_factor_model([0.5, 0.5], [0.0, np.pi / 3])
        method = SGM(iterations=20000, rng=np.random.default_rng(7), step_c=1.0)
        z = decode_sgm(DecodeRequest(model, QUERY, ANGULAR_SIN_SQ, PI1, method))[0]
        assert abs(z - np.pi / 6) <= 0.05

    def test_all_zero_weights_flagged(self):
        model = unit_factor_model([0.0, 0.0], [1.0, 2.0])
        method = SGM(iterations=50, rng=np.random.default_rng(8))
        with pytest.warns(DegenerateDecodeWarning):
            z = decode_sgm(DecodeRequest(model, QUERY, SQUARED_VECTOR, PI1, method))
        assert z[0] == 0.0

    def test_deterministic_given_seed(self):
        model = unit_factor_model([0.4, 0.8], [0.3, -0.5])
        out = []
        for _ in range(2):
            method = SGM(iterations=500, rng=np.random.default_rng(11), step_c=1.0)
            out.append(decode_sgm(DecodeRequest(model, QUERY, SQUARED_VECTOR, PI1, method))[0])
        assert out[0] == out[1]

    def test_last_iterate_mode(self):
        model = unit_factor_model([0.5, 0.5], [1.0, 1.0])
        method = SGM(iterations=2000, rng=np.random.default_rng(12), step_c=1.0,
                     average_tail=False)
        z = decode_sgm(DecodeRequest(model, QUERY, SQUARED_VECTOR, PI1, method))[0]
        assert z == pytest.approx(1.0, abs=0.1)

    def test_rejects_non_subdifferentiable_loss(self):
        model = unit_factor_model([1.0], [0.0])
        method = SGM(iterations=10, rng=np.random.default_rng(13))
        with pytest.raises(ValueError):
            decode_sgm(DecodeRequest(model, QUERY, ZERO_ONE_WINDOW, PI1, method))

    def test_angle_projection_keeps_range(self):
        model = unit_factor_model([0.9], [3.0])
        method = SGM(iterations=3000, rng=np.random.default_rng(14), step_c=1.0,
                     projection=AngleWrap())
        z = decode_sgm(DecodeRequest(model, QUERY, ANGULAR_SIN_SQ, PI1, method))[0]
        assert -np.pi <= z < np.pi


# Schemes of the sweep property: overlapping grid patches with and without
# wrap-around, disjoint blocks, overlapping windows and a one-coordinate
# canvas, where every step of the sweep is one iteration.
SWEEP_SCHEMES = {
    "grid": GridPatches(width=4, height=4, patch_w=2, patch_h=2, stride=1),
    "circular_grid": GridPatches(width=4, height=3, patch_w=2, patch_h=2, stride=1, circular=True),
    "blocks": VectorBlocks(block_dim=2, num_blocks=3),
    "windows": SequenceWindows(6, 3),
    "one_coordinate": VectorBlocks(block_dim=1, num_blocks=1),
}


# The box at -0.0 pins every stepped coordinate to -0.0, so only a tail sum
# that starts from +0.0 gets the loop's sign bits.
SWEEP_PROJECTIONS = [None, BoxProjection(0.25, 1.5), BoxProjection(-0.0, -0.0), AngleWrap()]


@st.composite
def sgm_cases(draw):
    """A fitted model, a query and SGM settings. Grids carry one or two
    output channels; pi may put zero weight on a part; under the linear
    kernel the query may be zero on a part, whose iterations then do not
    step, down to a decode where none does."""
    scheme = SWEEP_SCHEMES[draw(st.sampled_from(sorted(SWEEP_SCHEMES)))]
    lead = draw(st.sampled_from([(), (2,)])) if isinstance(scheme, GridPatches) else ()
    P = scheme.num_parts
    pi = Uniform(P)
    if P > 1 and draw(st.booleans()):
        raw = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=P, max_size=P)))
        raw[draw(st.integers(0, P - 1))] = 0.0
        pi = Weighted(tuple(raw / raw.sum()))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    train = [(rng.uniform(-1.0, 1.0, scheme.shape), rng.uniform(-2.0, 2.0, lead + scheme.shape))
             for _ in range(draw(st.integers(1, 4)))]
    aux = generate_auxiliary(train, draw(st.integers(1, 12)), scheme, pi, rng)
    linear = draw(st.booleans())
    kernel = Restriction(LinearParts() if linear else GaussianParts(1.0))
    model = fit_alpha([x for x, _ in train], aux, kernel, 0.1, scheme)
    x = rng.uniform(-1.0, 1.0, scheme.shape)
    if linear:
        for p in draw(st.lists(st.integers(0, P - 1), max_size=P)):
            np.put(x, index_map(scheme)[p], 0.0)
    loss = draw(st.sampled_from([SQUARED_VECTOR, ANGULAR_SIN_SQ]))
    settings_ = dict(iterations=draw(st.integers(1, 300)),
                     step_c=draw(st.sampled_from([None, 0.3])),
                     projection=draw(st.sampled_from(SWEEP_PROJECTIONS)),
                     average_tail=draw(st.booleans()))
    return DecodeRequest(model, x, loss, pi, None), settings_, seed


def _sgm_both(req, seed, **settings_):
    """``decode_sgm`` and the one-iteration-at-a-time loop on equal generators,
    with the warning categories each raised."""
    out = []
    for decode in (decode_sgm, sgm_loop):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            z = decode(replace(req, method=SGM(rng=np.random.default_rng(seed), **settings_)))
        out.append((z, [w.category for w in caught]))
    return out


def _assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestSGMSweep:
    """The per-coordinate sweep of ``decode_sgm`` against the loop that runs
    one iteration at a time (``helpers.sgm_loop``): bitwise, sign bits
    included."""

    @settings(max_examples=250, deadline=None)
    @given(case=sgm_cases())
    def test_equals_the_loop(self, case):
        req, settings_, seed = case
        (fast, fast_warned), (slow, slow_warned) = _sgm_both(req, seed, **settings_)
        _assert_bitwise(fast, slow)
        assert fast_warned == slow_warned

    @pytest.mark.parametrize("projection", [None, BoxProjection(0.25, 1.5)])
    def test_all_dead_returns_the_start_point(self, projection):
        """A query that is zero everywhere gives zero weights under the
        linear kernel: no iteration steps, and the unprojected start point
        comes back flagged."""
        rng = np.random.default_rng(31)
        train = [(rng.uniform(-1.0, 1.0, (4, 4)), rng.uniform(-2.0, 2.0, (4, 4))) for _ in range(3)]
        aux = generate_auxiliary(train, 10, GRID, Uniform(4), rng)
        model = fit_alpha([x for x, _ in train], aux, Restriction(LinearParts()), 0.1, GRID)
        req = DecodeRequest(model, np.zeros((4, 4)), SQUARED_VECTOR, Uniform(4), None)
        (fast, fast_warned), (slow, slow_warned) = _sgm_both(
            req, 0, iterations=50, projection=projection)
        assert fast_warned == slow_warned == [DegenerateDecodeWarning]
        _assert_bitwise(fast, slow)
        _assert_bitwise(fast, np.zeros((4, 4)))

    @pytest.mark.parametrize("average_tail", [True, False])
    def test_first_step_in_the_tail(self, average_tail):
        """Only block 2 of the query is non-zero, under the linear kernel,
        and pi rarely draws it: with a generator whose first draw of block 2
        comes after the first half, the tail sums unprojected zeros before
        the first step and the projected start after it."""
        scheme = VectorBlocks(block_dim=2, num_blocks=3)
        probs = np.array([0.49, 0.49, 0.02])
        T = 40
        seed = next(s for s in range(1000)
                    if np.argmax(np.random.default_rng(s).choice(3, size=T, p=probs) == 2)
                    >= T - math.ceil(T / 2))
        rng = np.random.default_rng(32)
        train = [(rng.uniform(0.5, 1.0, 6), rng.uniform(-2.0, 2.0, 6)) for _ in range(3)]
        pi = Weighted(tuple(probs))
        aux = generate_auxiliary(train, 12, scheme, pi, rng)
        model = fit_alpha([x for x, _ in train], aux, Restriction(LinearParts()), 0.1, scheme)
        x = np.array([0.0, 0.0, 0.0, 0.0, 0.7, 0.9])
        for loss in (SQUARED_VECTOR, ANGULAR_SIN_SQ):
            (fast, fast_warned), (slow, slow_warned) = _sgm_both(
                DecodeRequest(model, x, loss, pi, None), seed, iterations=T,
                projection=BoxProjection(0.25, 1.5), average_tail=average_tail)
            assert fast_warned == slow_warned == []
            _assert_bitwise(fast, slow)
            assert fast[0] == 0.25  # block 0 never steps: the projected start


class TestAngleWrap:
    def test_value_just_below_the_seam_wraps_to_minus_pi(self):
        z = _project(np.array([-3.1415926535897936, -np.pi, np.pi]), AngleWrap())
        assert z.tolist() == [-np.pi, -np.pi, -np.pi]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
    def test_wrap_is_a_fixed_point_on_its_outputs(self, vals):
        once = _project(np.array(vals), AngleWrap())
        assert np.all((-np.pi <= once) & (once < np.pi))
        assert np.array_equal(_project(once, AngleWrap()), once)
