import warnings

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from locstruct.kernels import GaussianParts, LinearParts
from locstruct.locality import (
    InsufficientDataError,
    LocalityReport,
    RawInner,
    SquaredKernel,
    UnsupportedConfigurationError,
    _cell_estimate_subsampled,
    empirical_cov_map,
    locality_constants,
    sequence_bound_check,
)
from locstruct.parts import SequenceWindows, VectorBlocks, extract_part


def brute_force_cell(samples, scheme, p, q, sim):
    """Direct double-loop estimate of one covariance cell."""
    n = len(samples)
    parts_p = [np.asarray(extract_part(x, scheme, p), float).ravel() for x in samples]
    parts_q = [np.asarray(extract_part(x, scheme, q), float).ravel() for x in samples]

    def S(a, b):
        if isinstance(sim, RawInner):
            return float(a @ b)
        base = sim.base
        if isinstance(base, LinearParts):
            return float(a @ b) ** 2
        d2 = float(np.sum((a - b) ** 2))
        return np.exp(-d2 / (2 * base.sigma**2)) ** 2

    same = np.mean([S(parts_p[i], parts_q[i]) for i in range(n)])
    cross = np.mean([S(parts_p[i], parts_q[j]) for i in range(n) for j in range(n) if i != j])
    return same - cross


class TestEmpiricalCovMap:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        scheme = VectorBlocks(block_dim=2, num_blocks=3)
        samples = [rng.standard_normal(6) for _ in range(12)]
        for sim in (RawInner(), SquaredKernel(LinearParts()), SquaredKernel(GaussianParts(1.0))):
            report = empirical_cov_map(samples, scheme, sim)
            for p in range(3):
                for q in range(3):
                    assert report.cov_map[p, q] == pytest.approx(
                        brute_force_cell(samples, scheme, p, q, sim), rel=1e-10, abs=1e-12)

    def test_jackknife_matches_explicit_leave_one_out(self):
        rng = np.random.default_rng(1)
        scheme = VectorBlocks(block_dim=1, num_blocks=2)
        samples = [rng.standard_normal(2) for _ in range(10)]
        sim = RawInner()
        report = empirical_cov_map(samples, scheme, sim)
        for p in range(2):
            for q in range(2):
                loo = np.array([
                    brute_force_cell([s for k, s in enumerate(samples) if k != i],
                                     scheme, p, q, sim)
                    for i in range(10)
                ])
                se = np.sqrt(9 / 10 * np.sum((loo - loo.mean()) ** 2))
                assert report.std_err[p, q] == pytest.approx(se, rel=1e-9, abs=1e-12)

    def test_independent_sign_parts_have_no_covariance(self):
        rng = np.random.default_rng(2)
        scheme = VectorBlocks(block_dim=1, num_blocks=4)
        samples = [rng.choice([-1.0, 1.0], size=4) for _ in range(400)]
        report = empirical_cov_map(samples, scheme, RawInner())
        for p in range(4):
            for q in range(4):
                if p != q:
                    assert abs(report.cov_map[p, q]) <= 3 * report.std_err[p, q]

    def test_duplicated_sign_parts_covary_fully(self):
        # same +-1 value in both parts: E S(x_p, x_q) = 1 and the cross term
        # averages to zero over the four equiprobable sign pairs
        rng = np.random.default_rng(3)
        scheme = VectorBlocks(block_dim=1, num_blocks=2)
        samples = []
        for _ in range(500):
            s = rng.choice([-1.0, 1.0])
            samples.append(np.array([s, s]))
        report = empirical_cov_map(samples, scheme, RawInner())
        assert report.cov_map[0, 1] == pytest.approx(1.0, abs=0.15)
        assert report.r_sq == 1.0

    def test_diagonal_squared_kernel_cell(self):
        rng = np.random.default_rng(4)
        scheme = VectorBlocks(block_dim=3, num_blocks=1)
        samples = [rng.standard_normal(3) for _ in range(40)]
        sim = SquaredKernel(GaussianParts(1.0))
        report = empirical_cov_map(samples, scheme, sim)
        mats = np.stack([np.asarray(x, float) for x in samples])
        cross = []
        for i in range(40):
            for j in range(40):
                if i != j:
                    d2 = np.sum((mats[i] - mats[j]) ** 2)
                    cross.append(np.exp(-d2 / 2.0) ** 2)
        expect = 1.0 - np.mean(cross)
        assert report.cov_map[0, 0] == pytest.approx(expect, rel=1e-10)
        assert expect > 0

    def test_symmetric_and_permutation_invariant(self):
        rng = np.random.default_rng(5)
        scheme = VectorBlocks(block_dim=2, num_blocks=3)
        samples = [rng.standard_normal(6) for _ in range(15)]
        report = empirical_cov_map(samples, scheme, SquaredKernel(GaussianParts(1.0)))
        assert np.max(np.abs(report.cov_map - report.cov_map.T)) <= 1e-12
        perm = [samples[i] for i in rng.permutation(15)]
        report_p = empirical_cov_map(perm, scheme, SquaredKernel(GaussianParts(1.0)))
        assert np.allclose(report.cov_map, report_p.cov_map, atol=1e-12)
        assert np.allclose(report.std_err, report_p.std_err, atol=1e-12)

    def test_diagonal_nonnegative_up_to_noise(self):
        rng = np.random.default_rng(6)
        scheme = VectorBlocks(block_dim=2, num_blocks=3)
        samples = [rng.standard_normal(6) for _ in range(60)]
        report = empirical_cov_map(samples, scheme, SquaredKernel(GaussianParts(0.8)))
        for p in range(3):
            assert report.cov_map[p, p] >= -3 * report.std_err[p, p]

    def test_needs_three_samples(self):
        # two samples leave one sample and no pair to a jackknife replicate
        for n in (1, 2):
            with pytest.raises(InsufficientDataError, match="at least 3"):
                empirical_cov_map([np.full(4, float(i)) for i in range(n)],
                                  VectorBlocks(2, 2), RawInner())

    def test_pair_subsampling_approximates_full_estimate(self):
        rng = np.random.default_rng(12)
        scheme = VectorBlocks(block_dim=2, num_blocks=3)
        samples = [rng.standard_normal(6) for _ in range(80)]
        sim = SquaredKernel(GaussianParts(1.0))
        full = empirical_cov_map(samples, scheme, sim)
        sub = empirical_cov_map(samples, scheme, sim, pair_subsample=2000,
                                rng=np.random.default_rng(0))
        assert np.max(np.abs(sub.cov_map - full.cov_map)) <= 0.05
        assert np.max(np.abs(sub.cov_map - sub.cov_map.T)) <= 1e-12
        # the full path is used when the subsample covers every ordered pair
        all_pairs = empirical_cov_map(samples, scheme, sim,
                                      pair_subsample=80 * 79,
                                      rng=np.random.default_rng(0))
        assert np.allclose(all_pairs.cov_map, full.cov_map, atol=1e-14)

    def test_sup_similarity_dominates_map_entries(self):
        rng = np.random.default_rng(14)
        scheme = VectorBlocks(block_dim=2, num_blocks=4)
        samples = [rng.standard_normal(8) for _ in range(60)]
        for sim in (RawInner(), SquaredKernel(GaussianParts(1.0))):
            report = empirical_cov_map(samples, scheme, sim)
            slack = 3 * np.max(report.std_err)
            assert np.max(np.abs(report.cov_map)) <= report.r_sq + slack

    def test_string_parts_rejected(self):
        samples = ["abca", "bcab", "caab"]
        with pytest.raises(UnsupportedConfigurationError, match="fixed-shape numeric parts"):
            empirical_cov_map(samples, SequenceWindows(4, 2), SquaredKernel(LinearParts()))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 12), frac=st.floats(0.1, 1.0))
    def test_subsampled_cell_equals_add_at_form(self, seed, n, frac):
        rng = np.random.default_rng(seed)
        S = rng.standard_normal((n, n))
        M = max(n, int(frac * n * (n - 1)))
        flat = rng.choice(n * (n - 1), size=M, replace=False)
        rows_idx, cols_idx = flat // (n - 1), flat % (n - 1)
        cols_idx = cols_idx + (cols_idx >= rows_idx)
        # the accumulation as one np.add.at per index array, in index order
        diag, vals = np.diag(S), S[rows_idx, cols_idx]
        t1, t2 = diag.sum(), vals.sum()
        touch_sum, touch_cnt = np.zeros(n), np.zeros(n)
        for idx in (rows_idx, cols_idx):
            np.add.at(touch_sum, idx, vals)
            np.add.at(touch_cnt, idx, 1.0)
        est = float(t1 / n - t2 / M)
        if np.any(M - touch_cnt <= 0):
            want = (est, abs(est))
        else:
            loo = (t1 - diag) / (n - 1) - (t2 - touch_sum) / (M - touch_cnt)
            want = (est, math.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2)))
        assert _cell_estimate_subsampled(S, (rows_idx, cols_idx)) == want

    def test_fewer_pairs_than_samples_unsupported(self):
        rng = np.random.default_rng(13)
        samples = [rng.standard_normal(4) for _ in range(10)]
        with pytest.raises(UnsupportedConfigurationError, match="sample count"):
            empirical_cov_map(samples, VectorBlocks(2, 2), RawInner(), pair_subsample=5, rng=rng)

    def test_pair_subsampling_needs_rng(self):
        rng = np.random.default_rng(13)
        samples = [rng.standard_normal(4) for _ in range(10)]
        with pytest.raises(ValueError):
            empirical_cov_map(samples, VectorBlocks(2, 2), RawInner(), pair_subsample=20)


def _correlated_block_samples(rng, n, num_parts, block_dim, rho_fn):
    """Gaussian blocks with corr(x_p, x_q) = rho_fn(|p - q|), coordinatewise."""
    M = np.empty((num_parts, num_parts))
    for p in range(num_parts):
        for q in range(num_parts):
            M[p, q] = rho_fn(abs(p - q))
    F = np.linalg.cholesky(M + 1e-12 * np.eye(num_parts))
    G = rng.standard_normal((n, num_parts, block_dim))
    blocks = np.einsum("pq,nqk->npk", F, G)
    return [b.reshape(-1) for b in blocks]


class TestLocalityConstants:
    def test_identical_copies_give_full_locality_constant(self):
        rng = np.random.default_rng(7)
        P, k = 4, 3
        scheme = VectorBlocks(block_dim=k, num_blocks=P)
        samples = []
        for _ in range(300):
            block = rng.standard_normal(k)
            samples.append(np.tile(block, P))
        report = empirical_cov_map(samples, scheme, SquaredKernel(GaussianParts(0.5)))
        s_hat, q_hat, _ = locality_constants(report, scheme)
        assert abs(s_hat - report.r_sq * P) <= 0.1 * report.r_sq * P
        assert q_hat == pytest.approx(s_hat / P)

    def test_independent_parts_keep_only_the_diagonal(self):
        rng = np.random.default_rng(8)
        P, k = 4, 3
        scheme = VectorBlocks(block_dim=k, num_blocks=P)
        samples = [rng.standard_normal(P * k) for _ in range(400)]
        report = empirical_cov_map(samples, scheme, SquaredKernel(GaussianParts(0.7)))
        s_hat, _, _ = locality_constants(report, scheme)
        agg_se = np.sqrt(np.sum(report.std_err**2)) / P
        assert abs(s_hat - report.r_sq) <= 3 * agg_se + 0.05 * report.r_sq

    def test_decay_rate_recovered(self):
        # with squared linear similarity on jointly Gaussian blocks the
        # covariance decays at twice the correlation exponent, so a
        # correlation e^{-d} yields a fitted rate near 2
        rng = np.random.default_rng(9)
        scheme = VectorBlocks(block_dim=4, num_blocks=8)
        samples = _correlated_block_samples(rng, 2000, 8, 4, lambda d: np.exp(-d))
        report = empirical_cov_map(samples, scheme, SquaredKernel(LinearParts()))
        _, _, gamma_hat = locality_constants(report, scheme)
        assert gamma_hat is not None
        assert 1.5 <= gamma_hat <= 2.5

    def test_single_distance_gives_no_decay_rate(self):
        # only the distance-1 cells clear three standard errors: a line
        # through one distance has no slope, so no rate is reported
        P = 5
        d = np.abs(np.subtract.outer(np.arange(P), np.arange(P)))
        cov = np.where(d == 0, 1.0, np.where(d == 1, 0.5, 0.0))
        report = LocalityReport(cov_map=cov, std_err=np.full((P, P), 0.01), r_sq=1.0,
                                n_samples=100, similarity=SquaredKernel(LinearParts()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, gamma_hat = locality_constants(report, VectorBlocks(block_dim=2, num_blocks=P))
        assert gamma_hat is None

    def test_raw_inner_map_rejected(self):
        rng = np.random.default_rng(10)
        scheme = VectorBlocks(block_dim=1, num_blocks=2)
        report = empirical_cov_map([rng.standard_normal(2) for _ in range(5)], scheme, RawInner())
        with pytest.raises(UnsupportedConfigurationError):
            locality_constants(report, scheme)


class TestSequenceBound:
    def test_two_part_hand_sum(self):
        # terms e^{-gamma |p-q|} over a 2x2 index grid: 1, 1/2, 1/2, 1 sum to
        # 3, so s_exact = 3/2; the bound is 2 / (1 - 1/2) = 4
        res = sequence_bound_check(1.0, float(np.log(2.0)), 2)
        assert res.s_exact == pytest.approx(1.5)
        assert res.s_bound == pytest.approx(4.0)
        assert res.holds

    def test_single_part(self):
        res = sequence_bound_check(2.5, 3.0, 1)
        assert res.s_exact == pytest.approx(2.5)
        assert res.holds

    def test_large_gamma_long_sequence(self):
        res = sequence_bound_check(1.0, 5.0, 100)
        assert res.s_exact <= 2.0 / (1.0 - np.exp(-5.0)) + 1e-12
        assert res.s_exact == pytest.approx(1.0135, abs=2e-3)
        assert res.holds

    def test_bound_holds_on_grid(self):
        for gamma in (0.1, 0.5, 1.0, 2.0, 5.0):
            for P in (2, 8, 32, 128):
                assert sequence_bound_check(1.0, gamma, P).holds

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ValueError):
            sequence_bound_check(1.0, 0.0, 4)
        with pytest.raises(ValueError):
            sequence_bound_check(1.0, -1.0, 4)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            sequence_bound_check(1.0, gamma, 4)

    @pytest.mark.parametrize("r_sq", [math.nan, -1.0, math.inf, -math.inf])
    def test_bad_similarity_bound_rejected(self, r_sq):
        with pytest.raises(ValueError, match="r_sq"):
            sequence_bound_check(r_sq, 1.0, 4)

    def test_zero_similarity_bound_gives_zero_constants(self):
        res = sequence_bound_check(0.0, 1.0, 4)
        assert (res.s_exact, res.s_bound, res.holds) == (0.0, 0.0, True)
