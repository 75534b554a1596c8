import logging
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from locstruct import bench
from locstruct.bench import (
    BENCH_CSV_HEADER,
    GLOBAL_LS,
    INDEPENDENT_PARTS_LS,
    LOCAL_DELTA,
    LOCAL_LS,
    AngularConfig,
    NumericalError,
    SyntheticConfig,
    block_correlation,
    gen_orientation_fields,
    gen_synthetic_dataset,
    noiseless_targets,
    run_estimator_comparison,
    run_learning_curve,
    _TASK_ANGULAR_AUX,
    _TASK_LS,
    _angular_path,
    _cell_rng,
    _local,
    _ls_estimator,
    _per_lambda,
    _psd_factor,
    _select_lambda,
)
from locstruct.decoder import AngularDecoder, LeastSquaresDecoder
from locstruct.kernels import GaussianParts, LinearParts, Restriction
from locstruct.losses import ANGULAR_SIN_SQ, structured_loss
from locstruct.parts import Uniform, VectorBlocks
from locstruct.training import enumerate_auxiliary, fit_alpha, generate_auxiliary

from helpers import block_ridge


def _cfg(**kw):
    base = dict(num_parts=4, block_dim=3, gamma=1.0, n_train=20, n_test=50,
                noise_std=0.5, seed=0)
    base.update(kw)
    return SyntheticConfig(**base)


def _oracle(estimator, cfg, X, Y, Xt, lam):
    """Predictions at ``Xt`` of the estimator fitted on ``(X, Y)`` at
    ``lam`` the slow way: a plain solve per block for the baselines, a
    factored fit and the closed-form decoder for local_ls."""
    if estimator != LOCAL_LS:
        return block_ridge(X, Y, Xt, lam, 1 if estimator == GLOBAL_LS else cfg.num_parts)
    scheme = VectorBlocks(block_dim=cfg.block_dim, num_blocks=cfg.num_parts)
    model = fit_alpha(list(X), enumerate_auxiliary(list(zip(X, Y)), scheme),
                      Restriction(LinearParts()), lam, scheme)
    return LeastSquaresDecoder(model, Uniform(cfg.num_parts), normalize=False).decode_batch(Xt)


def _mse(predict, X, Y) -> float:
    return float(np.mean((predict(X) - Y) ** 2))


class TestSyntheticData:
    def test_gamma_zero_blocks_identical(self):
        cfg = _cfg(gamma=0.0, num_parts=5, block_dim=4, n_train=8)
        (X, _), _, _ = gen_synthetic_dataset(cfg, np.random.default_rng(0))
        blocks = X.reshape(8, 5, 4)
        for p in range(1, 5):
            assert np.allclose(blocks[:, p, :], blocks[:, 0, :], atol=1e-8)

    def test_gamma_huge_blocks_uncorrelated(self):
        cfg = _cfg(gamma=1e3, num_parts=4, block_dim=2, n_train=1000)
        (X, _), _, _ = gen_synthetic_dataset(cfg, np.random.default_rng(4))
        blocks = X.reshape(1000, 4, 2)
        for p in range(4):
            for q in range(p + 1, 4):
                c = np.corrcoef(blocks[:, p, 0], blocks[:, q, 0])[0, 1]
                assert abs(c) <= 0.1

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 4.0, 10.0, 1e3])
    def test_correlation_factor_exists(self, gamma):
        M = block_correlation(16, gamma)
        F = _psd_factor(M)
        assert np.allclose(F @ F.T, M, atol=1e-8)

    def test_huge_gamma_gives_identity_silently(self):
        # -gamma |p - q| overflows to -inf, whose exp is the intended 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            M = block_correlation(32, 1e308)
        assert np.array_equal(M, np.eye(32))

    def test_weight_vector_tiles_one_block(self):
        cfg = _cfg(num_parts=6, block_dim=4)
        _, _, w = gen_synthetic_dataset(cfg, np.random.default_rng(2))
        w_bar = w[:4]
        assert np.array_equal(w, np.tile(w_bar, 6))
        assert np.linalg.norm(w_bar) <= 1.0

    def test_noiseless_targets_match_generator(self):
        cfg = _cfg(noise_std=0.0, n_train=6, n_test=6)
        (X, Y), _, w = gen_synthetic_dataset(cfg, np.random.default_rng(3))
        assert np.allclose(Y, noiseless_targets(X, w, cfg.num_parts, cfg.block_dim))


class TestEstimatorComparison:
    def test_noiseless_global_interpolates(self):
        # more training points than input dimensions and no noise: the ridge
        # fit at the smallest grid value recovers the map
        cfg = _cfg(num_parts=2, block_dim=3, noise_std=0.0, n_train=50,
                   n_test=200, lambda_grid=(1e-10,), estimators=(GLOBAL_LS,))
        res = run_estimator_comparison(cfg, repeats=2)
        assert res.median_error(GLOBAL_LS) <= 1e-6

    def test_noiseless_global_train_error_interpolates(self):
        cfg = _cfg(num_parts=2, block_dim=3, noise_std=0.0, n_train=50, n_test=4)
        (X, Y), _, _ = gen_synthetic_dataset(cfg, np.random.default_rng(6))
        assert _ls_estimator(GLOBAL_LS, cfg)(X, Y)(X, Y, [1e-10])[0] <= 1e-8

    @pytest.mark.parametrize("estimator", [GLOBAL_LS, INDEPENDENT_PARTS_LS])
    def test_baseline_ridge_matches_plain_solve(self, estimator):
        # oracle: the estimator's layout of the data, one np.linalg.solve
        # ridge per block in the dual; the path's error against its
        # predictions is their mean squared difference
        P, k, n, lam = 4, 3, 15, 1e-2
        cfg = _cfg(num_parts=P, block_dim=k, n_train=n, n_test=7, estimators=(estimator,))
        (X, Y), (Xt, _), _ = gen_synthetic_dataset(cfg, np.random.default_rng(9))
        oracle = _oracle(estimator, cfg, X, Y, Xt, lam)
        diff = _ls_estimator(estimator, cfg)(X, Y)(Xt, oracle, [lam])[0]
        assert diff <= 1e-20 * np.mean(oracle ** 2)

    def test_single_part_local_equals_global(self):
        cfg = _cfg(num_parts=1, block_dim=6, n_train=30, n_test=40,
                   lambda_grid=(0.1,), estimators=(GLOBAL_LS, LOCAL_LS))
        res = run_estimator_comparison(cfg, repeats=3)
        for rep in range(3):
            g = [r.test_error for r in res.rows if r.estimator == GLOBAL_LS and r.repeat == rep]
            l = [r.test_error for r in res.rows if r.estimator == LOCAL_LS and r.repeat == rep]
            assert l[0] == pytest.approx(g[0], abs=1e-6)

    @pytest.mark.parametrize("lam", [1e-3, 1e-1])
    def test_fully_correlated_local_equals_global_on_averaged_targets(self, lam):
        # at gamma=0 every input block is the same vector, so the part-pooled
        # fit at lambda is a global linear ridge fit at num_parts * lambda on
        # targets averaged over the parts; criterion 6 clause 2(a) rests on it
        P, k, n = 5, 3, 12
        cfg = _cfg(gamma=0.0, num_parts=P, block_dim=k, n_train=n, n_test=9)
        (X, Y), (Xt, _), _ = gen_synthetic_dataset(cfg, np.random.default_rng(8))
        Ybar = Y.reshape(n, P, k).mean(axis=1)
        coef = np.linalg.solve(X @ X.T + n * (P * lam) * np.eye(n), Ybar)
        pooled = np.tile((Xt @ X.T) @ coef, P)
        diff = _local(VectorBlocks(block_dim=k, num_blocks=P))(X, Y)(Xt, pooled, [lam])[0]
        assert diff <= 1e-12 * np.mean(pooled ** 2)

    def test_local_wins_when_parts_decorrelated(self):
        cfg = _cfg(num_parts=8, block_dim=8, gamma=8.0, n_train=30, n_test=100)
        res = run_estimator_comparison(cfg, repeats=5)
        local = res.median_error(LOCAL_LS)
        assert local < res.median_error(GLOBAL_LS)
        assert local < res.median_error(INDEPENDENT_PARTS_LS)

    def test_single_training_input_takes_middle_of_grid(self):
        # nothing can be held out, so every estimator falls back to the same
        # grid value and still fits its one training input
        cfg = _cfg(n_train=1, n_test=20)
        res = run_estimator_comparison(cfg, repeats=2)
        assert len(res.rows) == 2 * len(cfg.estimators)
        for row in res.rows:
            assert row.lambda_chosen == cfg.lambda_grid[len(cfg.lambda_grid) // 2]
            assert math.isfinite(row.test_error)

    def test_deterministic_given_seed(self):
        cfg = _cfg(n_train=15, n_test=20)
        a = run_estimator_comparison(cfg, repeats=2)
        b = run_estimator_comparison(cfg, repeats=2)
        assert a.rows == b.rows

    def test_all_cells_present_and_finite(self):
        cfg = _cfg(n_train=15, n_test=20)
        res = run_estimator_comparison(cfg, repeats=3)
        assert len(res.rows) == 3 * len(cfg.estimators)
        for est in cfg.estimators:
            errs = res.errors(est)
            assert errs.shape == (3,)
            assert np.all(np.isfinite(errs)) and np.all(errs >= 0)

    def test_csv_lines(self):
        cfg = _cfg(n_train=15, n_test=20, estimators=(GLOBAL_LS,))
        res = run_estimator_comparison(cfg, repeats=2)
        lines = res.to_csv_lines()
        assert lines[0] == BENCH_CSV_HEADER
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == GLOBAL_LS
        assert int(first[1]) == 15

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            _cfg(noise_std=-1.0)
        for bad in (math.nan, math.inf):  # NaN fails every comparison, so every check
            with pytest.raises(ValueError, match="noise_std"):
                _cfg(noise_std=bad)
            with pytest.raises(ValueError, match="gamma"):
                _cfg(gamma=bad)
        with pytest.raises(ValueError, match="noise_std"):  # its draws would overflow
            _cfg(noise_std=1e308)
        with pytest.raises(ValueError, match="gamma"):
            _cfg(gamma=-1.0)
        for field, bad in (("m", 0), ("n_test", 0), ("input_noise", -0.1),
                           ("input_noise", math.nan), ("input_noise", math.inf),
                           ("input_noise", 1e308),
                           ("freq_cutoff", -1)):
            with pytest.raises(ValueError, match=field):
                AngularConfig(**{field: bad})
        with pytest.raises(TypeError):  # the curve's grid is the only training size
            AngularConfig(n_train=8)
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                _cfg(lambda_grid=(bad, 1.0))
            with pytest.raises(ValueError, match="finite"):
                AngularConfig(lambda_grid=(1.0, bad))
        with pytest.raises(ValueError, match="glob_ls"):
            _cfg(estimators=("glob_ls",))
        with pytest.raises(ValueError, match="empty"):
            _cfg(estimators=())
        with pytest.raises(ValueError, match="empty"):
            _cfg(lambda_grid=())
        with pytest.raises(ValueError, match="empty"):
            AngularConfig(lambda_grid=())
        with pytest.raises(ValueError):
            run_estimator_comparison(_cfg(), repeats=0)


def _stub_path(errors):
    """A hold-out path whose scorer returns ``errors`` whatever the data."""
    return lambda X, Y: lambda Xh, Yh, grid: list(errors)


class TestHoldOut:
    GRID = (1.0, 1e-2, 1e-4)

    def test_first_least_error_chosen(self):
        X = np.zeros((10, 2))
        assert _select_lambda(_stub_path([0.3, 0.1, 0.1]), X, X, self.GRID, "stub") == 1e-2

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_error_raises_naming_the_lambda(self, bad):
        # a NaN never compares below the best error so far: it must not be
        # skipped, nor leave no lambda at all when every error is NaN
        X = np.zeros((10, 2))
        with pytest.raises(NumericalError, match=r"at lambda 0\.01"):
            _select_lambda(_stub_path([0.3, bad, 0.1]), X, X, self.GRID, "stub")
        with pytest.raises(NumericalError, match=r"at lambda 1\.0"):
            _select_lambda(_stub_path([bad] * 3), X, X, self.GRID, "stub")

    def test_non_finite_error_fails_only_its_cell(self, monkeypatch):
        cfg = _cfg(n_train=15, n_test=20, lambda_grid=self.GRID)
        real = bench._ls_estimator

        def estimator(name, cfg):
            return _stub_path([0.3, math.nan, 0.1]) if name == LOCAL_LS else real(name, cfg)

        monkeypatch.setattr(bench, "_ls_estimator", estimator)
        rows = run_estimator_comparison(cfg, repeats=2).rows
        for row in rows:
            failed = row.estimator == LOCAL_LS
            assert math.isnan(row.lambda_chosen) == failed
            assert math.isnan(row.test_error) == failed

    def test_every_error_and_the_choice_logged_at_info(self, caplog):
        cfg = _cfg(n_train=15, n_test=20, lambda_grid=self.GRID, estimators=(LOCAL_LS,))
        with caplog.at_level(logging.INFO, logger="locstruct.bench"):
            row, = run_estimator_comparison(cfg, repeats=1).rows
        lines = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        cell = "local_ls n=15 P=4 gamma=1 repeat 0: "
        for lam in self.GRID:
            assert sum(l.startswith(cell + "hold-out error ") and l.endswith(f" at lambda {lam:g}")
                       for l in lines) == 1
        assert lines[-1] == cell + f"chose lambda {row.lambda_chosen:g}"


# (estimator, wide): for the baselines, whether the block width d is at
# least n_fit (the dual is decomposed) or below it (the primal); for
# local_ls, whether the anchor features are at least as wide as the
# m = n_fit * P anchors (the dense fallback of the lambda path)
SPECTRAL_CASES = [(e, wide) for e in (GLOBAL_LS, INDEPENDENT_PARTS_LS, LOCAL_LS)
                  for wide in (False, True)]


@st.composite
def spectral_splits(draw, estimator, wide):
    n = draw(st.integers(3, 14))
    n_fit = min(int(round(0.8 * n)), n - 1)
    if estimator == GLOBAL_LS:  # d = P k
        if wide:
            P = draw(st.integers(1, 4))
            k = draw(st.integers(-(-n_fit // P), -(-n_fit // P) + 3))
        else:
            P = draw(st.integers(1, min(4, n_fit - 1)))
            k = draw(st.integers(1, (n_fit - 1) // P))
    elif estimator == INDEPENDENT_PARTS_LS:  # d = k
        P = draw(st.integers(1, 4))
        k = draw(st.integers(n_fit, n_fit + 3) if wide else st.integers(1, n_fit - 1))
    else:  # d = k against m = n_fit P
        P = draw(st.integers(1, 2) if wide else st.integers(1, 4))
        k = draw(st.integers(n_fit * P, n_fit * P + 3) if wide
                 else st.integers(1, n_fit * P - 1))
    grid = draw(st.lists(st.sampled_from([1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0]),
                         min_size=1, max_size=4, unique=True))
    return dict(n=n, n_fit=n_fit, P=P, k=k, grid=tuple(grid),
                noise=draw(st.sampled_from([0.0, 0.5])), seed=draw(st.integers(0, 2**32 - 1)))


def _spectral_tol(estimator, X, P, k, lam):
    """Relative tolerance of a spectral score of a fit on ``X`` at ``lam``
    against its oracle (see ``TestSpectralScores``)."""
    n = X.shape[0]
    blocks = {GLOBAL_LS: 1, INDEPENDENT_PARTS_LS: P}.get(estimator)
    if blocks is None:  # the anchors' features, one row per (input, part)
        F, size = X.reshape(1, n * P, k), n * P
    else:
        F, size = X.reshape(n, blocks, -1).transpose(1, 0, 2), n
    w_max = np.linalg.norm(F, 2, axis=(1, 2)).max() ** 2
    s = size * lam
    return 2 * 16 * max(n * P, P * k) * np.finfo(float).eps * (w_max + s) / s


class TestSpectralScores:
    """The spectral scores against their slow oracle (``_oracle``), a plain
    solve per block for the baselines and a factored fit with the
    closed-form decoder for local_ls, at every lambda.

    Tolerance, fixed from the conditioning before the first run. Both routes
    are backward stable solves with the system S = G + s I, s = n_fit lam
    (baselines) or m lam (local_ls), G the Gram of the fitted inputs (the
    primal, the dual and the local system share its largest eigenvalue
    w_max). So each prediction moves by at most a relative c k eps kappa,
    kappa = (w_max + s) / s and k the largest dimension, and a squared
    error of residual r and target Y moves by at most
    2 |r| |dp| <= tol (err + mean Y^2) with tol = 2 c k eps kappa; c = 16.
    """

    @pytest.mark.parametrize("estimator,wide", SPECTRAL_CASES)
    @pytest.mark.parametrize("gamma", [0.0, 10.0])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_scores_match_a_factored_fit_per_lambda(self, estimator, wide, gamma, data):
        c = data.draw(spectral_splits(estimator, wide))
        cfg = _cfg(num_parts=c["P"], block_dim=c["k"], gamma=gamma, n_train=c["n"], n_test=1,
                   noise_std=c["noise"], lambda_grid=c["grid"], estimators=(estimator,))
        (X, Y), _, _ = gen_synthetic_dataset(cfg, np.random.default_rng(c["seed"]))
        n_fit = c["n_fit"]
        Xf, Yf, Xh, Yh = X[:n_fit], Y[:n_fit], X[n_fit:], Y[n_fit:]
        scores = _ls_estimator(estimator, cfg)(Xf, Yf)(Xh, Yh, cfg.lambda_grid)
        for lam, score in zip(cfg.lambda_grid, scores):
            oracle = np.mean((_oracle(estimator, cfg, Xf, Yf, Xh, lam) - Yh) ** 2)
            tol = _spectral_tol(estimator, Xf, c["P"], c["k"], lam)
            assert abs(score - oracle) <= tol * (oracle + np.mean(Yh ** 2))

    # n_train = 1 holds nothing out, so the middle of the grid is scored;
    # the cases cover the dual and primal baselines and both local solves
    @pytest.mark.parametrize("n_train,block_dim", [(1, 3), (1, 8), (4, 20), (15, 3)])
    def test_cell_error_is_the_oracle_error_at_the_chosen_lambda(self, n_train, block_dim):
        cfg = _cfg(n_train=n_train, block_dim=block_dim, n_test=30)
        (X, Y), (Xt, _), w = gen_synthetic_dataset(cfg, _cell_rng(cfg.seed, _TASK_LS, n_train, 0))
        target = noiseless_targets(Xt, w, cfg.num_parts, cfg.block_dim)
        rows = run_estimator_comparison(cfg, repeats=1).rows
        assert [r.estimator for r in rows] == [GLOBAL_LS, INDEPENDENT_PARTS_LS, LOCAL_LS]
        for row in rows:
            lam = row.lambda_chosen
            oracle = np.mean((_oracle(row.estimator, cfg, X, Y, Xt, lam) - target) ** 2)
            tol = _spectral_tol(row.estimator, X, cfg.num_parts, cfg.block_dim, lam)
            assert abs(row.test_error - oracle) <= tol * (oracle + np.mean(target ** 2))


class TestLearningCurves:
    def test_ls_curve_runs_and_improves(self):
        cfg = _cfg(num_parts=6, block_dim=4, gamma=8.0, n_test=80,
                   estimators=(LOCAL_LS,))
        res = run_learning_curve("synthetic_ls", [10, 40], cfg, repeats=5)
        assert res.median_error(LOCAL_LS, 40) <= res.median_error(LOCAL_LS, 10)

    def test_ascending_grid_required(self):
        with pytest.raises(ValueError):
            run_learning_curve("synthetic_ls", [20, 10], _cfg(), repeats=1)

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError):
            run_learning_curve("nope", [5, 10], _cfg(), repeats=1)


ANG = AngularConfig(grid_size=12, patch=4, stride=2, n_test=6, m=256,
                    bandwidth=2.0, input_noise=0.2, freq_cutoff=2, seed=0,
                    lambda_grid=(1e-5, 1e-3, 1e-1))


class TestAngularTask:
    def test_field_properties(self):
        X, Y = gen_orientation_fields(5, 12, 2, 0.1, np.random.default_rng(0))
        assert X.shape == (5, 2, 12, 12)
        assert Y.shape == (5, 12, 12)
        assert np.all(Y >= -np.pi) and np.all(Y < np.pi)

    def test_ground_truth_predictor_has_zero_loss(self):
        _, Y = gen_orientation_fields(3, 12, 2, 0.1, np.random.default_rng(1))
        scheme = ANG.scheme()
        pi = Uniform(scheme.num_parts)
        for y in Y:
            assert structured_loss(ANGULAR_SIN_SQ, y, y, None, scheme, pi) == 0.0

    def test_shared_gram_path_equals_a_fit_per_lambda(self):
        """The path builds the anchors' Gram once and factors a copy of it
        at every lambda; each predictor decodes exactly as a fit that builds
        its own Gram, and the hold-out adapter scores each such predictor."""
        X, Y = gen_orientation_fields(3, ANG.grid_size, ANG.freq_cutoff, ANG.input_noise,
                                      np.random.default_rng(2))
        scheme = ANG.scheme()
        pi = Uniform(scheme.num_parts)
        aux = generate_auxiliary(list(zip(X, Y)), min(ANG.m, 3 * scheme.num_parts), scheme, pi,
                                 _cell_rng(5, _TASK_ANGULAR_AUX, 3, 1))
        kernel = Restriction(GaussianParts(ANG.bandwidth))
        fits = _angular_path(replace(ANG, seed=5), 3, 1)
        fit = fits(X, Y)
        decoders = [AngularDecoder(fit_alpha(list(X), aux, kernel, lam, scheme), pi).decode_batch
                    for lam in ANG.lambda_grid]
        for lam, decode in zip(ANG.lambda_grid, decoders):
            assert np.array_equal(fit(lam)(X), decode(X))
        scores = _per_lambda(fits, _mse)(X, Y)(X[:2], Y[:2], ANG.lambda_grid)
        assert scores == [_mse(decode, X[:2], Y[:2]) for decode in decoders]

    def test_curve_monotone_in_n(self):
        res = run_learning_curve("synthetic_angular", [2, 10], ANG, repeats=20)
        lo = res.median_error(LOCAL_DELTA, 2)
        hi = res.median_error(LOCAL_DELTA, 10)
        assert math.isfinite(lo) and math.isfinite(hi)
        assert hi <= lo
