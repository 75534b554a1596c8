import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_factor

from locstruct.bench import DEFAULT_LAMBDA_GRID

from locstruct.decoder import (
    AngleWrap,
    AngularDecoder,
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
)
from locstruct.kernels import GaussianParts, LinearParts, Restriction, gram_matrix
from locstruct.losses import ANGULAR_SIN_SQ, SQUARED_VECTOR, ZERO_ONE_WINDOW, part_loss
from locstruct.parts import SequenceWindows, Uniform, VectorBlocks, part_weights
from locstruct.training import (
    AlphaModel,
    AuxiliarySample,
    alpha_at,
    alpha_at_parts,
    fit_alpha,
    generate_auxiliary,
)


def scalar_model(anchor_vals, etas, scale=1.0):
    """Model over one scalar part whose weights at the query x=[1] equal
    scale * anchor_vals: the solve factor is the identity (scaled), so the
    weights are the raw linear kernel values."""
    scheme = VectorBlocks(block_dim=1, num_blocks=1)
    inputs = tuple(np.array([float(a)]) for a in anchor_vals)
    aux = tuple(AuxiliarySample(i, 0, np.array([float(e)])) for i, e in enumerate(etas))
    factor = cho_factor(np.eye(len(aux)) / scale, lower=True)
    return AlphaModel(inputs=inputs, aux=aux, kernel=Restriction(LinearParts()),
                      lam=1.0, scheme=scheme, factor=factor)


QUERY = np.array([1.0])
PI1 = Uniform(1)


class TestDecodeLeastSquares:
    def test_weighted_mean(self):
        model = scalar_model([0.5, 0.5], [0.0, 2.0])
        req = DecodeRequest(model, QUERY, SQUARED_VECTOR, PI1, ClosedForm())
        assert decode_least_squares(req)[0] == pytest.approx(1.0)

    def test_signed_weights_solved_by_hand(self):
        # minimize 1*z^2 - 0.5*(z - 2)^2: derivative z + 2 = 0, so z = -2
        model = scalar_model([1.0, -0.5], [0.0, 2.0])
        req = DecodeRequest(model, QUERY, SQUARED_VECTOR, PI1, ClosedForm())
        assert decode_least_squares(req)[0] == pytest.approx(-2.0)

    def test_degenerate_total_falls_back_to_weighted_sum(self):
        model = scalar_model([1.0, -1.0], [0.0, 2.0])
        req = DecodeRequest(model, QUERY, SQUARED_VECTOR, PI1, ClosedForm())
        with pytest.warns(DegenerateDecodeWarning):
            z = decode_least_squares(req)
        assert z[0] == pytest.approx(-2.0)  # 1*0 + (-1)*2

    def test_wrong_loss_rejected(self):
        model = scalar_model([1.0], [0.0])
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
    d < m) against the dense m x m solve on the same anchors, which passing
    the Gram forces."""

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
        gram = gram_matrix(kernel, [(inputs[s.chi_ref], s.p) for s in aux], scheme)
        dual = fit_alpha(inputs, aux, kernel, lam, scheme, gram=gram)
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


class TestDecodeAngular:
    def test_single_anchor_copies_the_angle(self):
        model = scalar_model([0.7], [np.pi / 4])
        req = DecodeRequest(model, QUERY, ANGULAR_SIN_SQ, PI1, ClosedForm())
        assert decode_angular(req)[0] == pytest.approx(np.pi / 4)

    def test_cancelled_resultant_is_degenerate(self):
        # opposite weights on one angle cancel the resultant exactly
        model = scalar_model([0.5, -0.5], [np.pi / 3, np.pi / 3])
        req = DecodeRequest(model, QUERY, ANGULAR_SIN_SQ, PI1, ClosedForm())
        with pytest.warns(DegenerateDecodeWarning):
            z = decode_angular(req)
        assert z[0] == 0.0

    def test_orthogonal_anchors_leave_a_flat_objective(self):
        # cos0 + cos(pi) cancels exactly; sin0 + sin(pi) only up to the
        # floating-point residue of sin(pi), so the objective is flat to
        # ~1e-16 and any output attains the minimum
        model = scalar_model([0.5, 0.5], [0.0, np.pi / 2])
        req = DecodeRequest(model, QUERY, ANGULAR_SIN_SQ, PI1, ClosedForm())
        z = decode_angular(req)[0]

        def objective(t):
            return 0.5 * np.sin(t) ** 2 + 0.5 * np.sin(t - np.pi / 2) ** 2

        grid = np.arange(-np.pi, np.pi, 1e-4)
        assert objective(z) <= objective(grid).min() + 1e-12

    def test_two_anchor_bisector_against_grid_scan(self):
        model = scalar_model([0.5, 0.5], [0.0, np.pi / 3])
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
            model = scalar_model(rng.uniform(-1, 1, m), rng.uniform(-np.pi, np.pi, m))
            req = DecodeRequest(model, QUERY, ANGULAR_SIN_SQ, PI1, ClosedForm())
            z = decode_angular(req)[0]
            assert -np.pi <= z < np.pi


def seq_model(train, lam=1e-3, window=1):
    scheme = SequenceWindows(len(train[0][0]), window)
    aux = [AuxiliarySample(i, p, y[p : p + window])
           for i, (_, y) in enumerate(train) for p in range(scheme.num_parts)]
    model = fit_alpha([x for x, _ in train], aux, Restriction(GaussianParts(1.0)),
                      lam, scheme)
    return model, scheme


def brute_force_argmin(model, x, loss, pi, alphabet):
    """Independent recomputation of the decoding objective: anchor-major loop
    order and its own window slicing, with the decoder's tie slack."""
    scheme = model.scheme
    weights = part_weights(pi, scheme.num_parts)
    best, best_obj = None, math.inf
    for cand in itertools.product(sorted(alphabet), repeat=scheme.seq_len):
        z = "".join(cand)
        obj = 0.0
        for j, s in enumerate(model.aux):
            for p in range(scheme.num_parts):
                a = alpha_at(model, x, p)[j]
                obj += a * weights[p] * part_loss(loss, z[p : p + scheme.window_len], s.eta)
        if best is None or obj < best_obj - 1e-9 * (1.0 + abs(best_obj)):
            best, best_obj = z, obj
    return best


class TestDecodeExact:
    def test_single_anchor_copies_part(self):
        model, scheme = seq_model([("a", "b")])
        req = DecodeRequest(model, "a", ZERO_ONE_WINDOW, Uniform(1),
                            ExactEnumeration(budget=10, alphabet=("a", "b")))
        assert decode_exact(req) == "b"

    def test_zero_weights_return_lexicographically_smallest(self):
        model = scalar_model([0.0, 0.0], [0.0, 1.0])
        scheme = SequenceWindows(3, 1)
        aux = tuple(AuxiliarySample(0, 0, "b") for _ in range(2))
        model = AlphaModel(inputs=("aaa",), aux=aux, kernel=Restriction(LinearParts()),
                           lam=1.0, scheme=scheme, factor=cho_factor(np.eye(2), lower=True))
        # query whose windows never match the anchors: all weights vanish
        req = DecodeRequest(model, "ccc", ZERO_ONE_WINDOW, Uniform(3),
                            ExactEnumeration(budget=10, alphabet=("b", "a")))
        assert decode_exact(req) == "aaa"

    def test_budget_exceeded(self):
        model, scheme = seq_model([("abc", "abc")])
        req = DecodeRequest(model, "abc", ZERO_ONE_WINDOW, Uniform(3),
                            ExactEnumeration(budget=7, alphabet=("a", "b")))
        with pytest.raises(CapacityError):
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
        # with singleton windows the objective separates per position into a
        # weighted vote over anchor symbols
        votes = []
        for p in range(3):
            a = alpha_at(model, x, p)
            score = {sym: 0.0 for sym in alphabet}
            for j, s in enumerate(model.aux):
                score[s.eta] += a[j]
            votes.append(max(sorted(score), key=lambda sym: score[sym]))
        assert z == "".join(votes)


class TestScaleInvariance:
    def test_positive_rescaling_leaves_argmins_unchanged(self):
        rng = np.random.default_rng(4)
        vals = rng.uniform(0.1, 1.0, 4)
        etas = rng.uniform(-1.0, 1.0, 4)
        for c in (0.25, 7.0):
            base = scalar_model(vals, etas)
            scaled = scalar_model(vals, etas, scale=c)
            req_b = DecodeRequest(base, QUERY, SQUARED_VECTOR, PI1, ClosedForm())
            req_s = DecodeRequest(scaled, QUERY, SQUARED_VECTOR, PI1, ClosedForm())
            assert decode_least_squares(req_s)[0] == pytest.approx(
                decode_least_squares(req_b)[0], rel=1e-12)
            angles = rng.uniform(-1.5, 1.5, 4)
            base_a = scalar_model(vals, angles)
            scaled_a = scalar_model(vals, angles, scale=c)
            req_b = DecodeRequest(base_a, QUERY, ANGULAR_SIN_SQ, PI1, ClosedForm())
            req_s = DecodeRequest(scaled_a, QUERY, ANGULAR_SIN_SQ, PI1, ClosedForm())
            assert decode_angular(req_s)[0] == pytest.approx(
                decode_angular(req_b)[0], rel=1e-12)


class TestDecodeSGM:
    def test_scalar_squared_matches_closed_form(self):
        rng = np.random.default_rng(5)
        for trial in range(3):
            vals = rng.uniform(0.05, 1.0, 5)
            etas = rng.uniform(-1.0, 1.0, 5)
            model = scalar_model(vals, etas)
            z_star = decode_least_squares(
                DecodeRequest(model, QUERY, SQUARED_VECTOR, PI1, ClosedForm()))[0]
            method = SGM(iterations=20000, rng=np.random.default_rng(100 + trial), step_c=1.0)
            z = decode_sgm(DecodeRequest(model, QUERY, SQUARED_VECTOR, PI1, method))[0]
            assert abs(z - z_star) <= 0.05 * (1.0 + abs(z_star))

    def test_angular_bisector(self):
        model = scalar_model([0.5, 0.5], [0.0, np.pi / 3])
        method = SGM(iterations=20000, rng=np.random.default_rng(7), step_c=1.0)
        z = decode_sgm(DecodeRequest(model, QUERY, ANGULAR_SIN_SQ, PI1, method))[0]
        assert abs(z - np.pi / 6) <= 0.05

    def test_all_zero_weights_flagged(self):
        model = scalar_model([0.0, 0.0], [1.0, 2.0])
        method = SGM(iterations=50, rng=np.random.default_rng(8))
        with pytest.warns(DegenerateDecodeWarning):
            z = decode_sgm(DecodeRequest(model, QUERY, SQUARED_VECTOR, PI1, method))
        assert z[0] == 0.0

    def test_deterministic_given_seed(self):
        model = scalar_model([0.4, 0.8], [0.3, -0.5])
        out = []
        for _ in range(2):
            method = SGM(iterations=500, rng=np.random.default_rng(11), step_c=1.0)
            out.append(decode_sgm(DecodeRequest(model, QUERY, SQUARED_VECTOR, PI1, method))[0])
        assert out[0] == out[1]

    def test_last_iterate_mode(self):
        model = scalar_model([0.5, 0.5], [1.0, 1.0])
        method = SGM(iterations=2000, rng=np.random.default_rng(12), step_c=1.0,
                     average_tail=False)
        z = decode_sgm(DecodeRequest(model, QUERY, SQUARED_VECTOR, PI1, method))[0]
        assert z == pytest.approx(1.0, abs=0.1)

    def test_rejects_non_subdifferentiable_loss(self):
        model = scalar_model([1.0], [0.0])
        method = SGM(iterations=10, rng=np.random.default_rng(13))
        with pytest.raises(ValueError):
            decode_sgm(DecodeRequest(model, QUERY, ZERO_ONE_WINDOW, PI1, method))

    def test_angle_projection_keeps_range(self):
        model = scalar_model([0.9], [3.0])
        method = SGM(iterations=3000, rng=np.random.default_rng(14), step_c=1.0,
                     projection=AngleWrap())
        z = decode_sgm(DecodeRequest(model, QUERY, ANGULAR_SIN_SQ, PI1, method))[0]
        assert -np.pi <= z < np.pi
