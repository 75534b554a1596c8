import math

import numpy as np
import pytest

from locstruct.bench import (
    BENCH_CSV_HEADER,
    GLOBAL_LS,
    INDEPENDENT_PARTS_LS,
    LOCAL_DELTA,
    LOCAL_LS,
    AngularConfig,
    SyntheticConfig,
    block_correlation,
    gen_orientation_fields,
    gen_synthetic_dataset,
    noiseless_targets,
    run_estimator_comparison,
    run_learning_curve,
    _local_path,
    _ls_path,
    _psd_factor,
    _ridge,
)
from locstruct.losses import ANGULAR_SIN_SQ, structured_loss
from locstruct.parts import Uniform, VectorBlocks


def _cfg(**kw):
    base = dict(num_parts=4, block_dim=3, gamma=1.0, n_train=20, n_test=50,
                noise_std=0.5, seed=0)
    base.update(kw)
    return SyntheticConfig(**base)


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
        pred = _ridge(X[None], Y[None], 1e-10)(X[None])[0]
        assert np.mean((pred - Y) ** 2) <= 1e-8

    @pytest.mark.parametrize("estimator", [GLOBAL_LS, INDEPENDENT_PARTS_LS])
    def test_baseline_ridge_matches_plain_solve(self, estimator):
        # oracle: the estimator's layout of the data, one np.linalg.solve
        # ridge per block in the dual
        P, k, n, lam = 4, 3, 15, 1e-2
        cfg = _cfg(num_parts=P, block_dim=k, n_train=n, n_test=7, estimators=(estimator,))
        (X, Y), (Xt, _), _ = gen_synthetic_dataset(cfg, np.random.default_rng(9))
        pred = _ls_path(estimator, cfg)(X, Y)(lam)(Xt)
        width = P * k if estimator == GLOBAL_LS else k
        oracle = np.empty_like(pred)
        for start in range(0, P * k, width):
            sl = slice(start, start + width)
            coef = np.linalg.solve(X[:, sl] @ X[:, sl].T + n * lam * np.eye(n), Y[:, sl])
            oracle[:, sl] = (Xt[:, sl] @ X[:, sl].T) @ coef
        assert np.linalg.norm(pred - oracle) <= 1e-10 * np.linalg.norm(oracle)

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
        local = _local_path(VectorBlocks(block_dim=k, num_blocks=P))(X, Y)(lam)(Xt)
        Ybar = Y.reshape(n, P, k).mean(axis=1)
        coef = np.linalg.solve(X @ X.T + n * (P * lam) * np.eye(n), Ybar)
        pooled = np.tile((Xt @ X.T) @ coef, P)
        assert np.linalg.norm(local - pooled) <= 1e-6 * np.linalg.norm(pooled)

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
        with pytest.raises(ValueError):
            _cfg(lambda_grid=(0.0, 1.0))
        with pytest.raises(ValueError, match="glob_ls"):
            _cfg(estimators=("glob_ls",))
        with pytest.raises(ValueError):
            run_estimator_comparison(_cfg(), repeats=0)


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

    def test_curve_monotone_in_n(self):
        res = run_learning_curve("synthetic_angular", [2, 10], ANG, repeats=20)
        lo = res.median_error(LOCAL_DELTA, 2)
        hi = res.median_error(LOCAL_DELTA, 10)
        assert math.isfinite(lo) and math.isfinite(hi)
        assert hi <= lo
