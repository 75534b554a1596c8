"""Seeded benchmark studies on synthetic part-structured data.

Two task families:

* ``synthetic_ls``: vector-valued linear regression whose input blocks share
  a controllable correlation level. Inputs are N(0, M(gamma) (x) I) with
  ``M(gamma)[p, q] = exp(-gamma |p - q| / P)``, so gamma sweeps from
  identical blocks (rank-one covariance) to independent ones. Every block
  responds through the same weight vector, so a part-pooled local estimator
  can share data across blocks while a global one cannot.
* ``synthetic_angular``: smooth random orientation fields on a small grid,
  observed through a noisy two-channel encoding, predicted patch-wise with a
  Gaussian restriction kernel and the angular decoder.

The regression study compares three estimators that differ only in how they
lay out the same data: the whole output vector regressed on the whole input
(``global_ls``), each block on its own block (``independent_parts_ls``, both
one dual linear ridge, ``_ridge_path``, over a leading block axis), and every
(input, part) pair pooled into one anchor set of the library estimator
(``local_ls``). Every estimator of both studies is one lambda path,
``path(X, Y)`` returning ``score(X_t, Y_t, grid)``. One hold-out selector,
``_select_lambda``, picks lambda with it, and a cell's test error is the same
path fitted on the whole training set and scored on the test set at the
chosen lambda (``_run_cell``). A regression path scores every lambda of a
grid from one eigendecomposition: of the baselines' Gram (or its primal,
whichever is smaller), or of the local estimator's lambda-free system, so
each lambda is a diagonal rescale. The orientation-field path fits and
scores one lambda at a time (``_per_lambda``).

The seed is the configuration's ``seed``: every cell of a sweep derives its
generator from (``cfg.seed``, cell coordinates) through
``numpy.random.SeedSequence``, so results are a pure function of the
configuration.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .decoder import AngularDecoder, _least_squares_path
from .kernels import GaussianParts, LinearParts, Restriction
from .losses import ANGULAR_SIN_SQ, structured_loss
from .parts import GridPatches, Uniform, VectorBlocks
from .training import _LambdaPath, enumerate_auxiliary, generate_auxiliary

log = logging.getLogger(__name__)

DEFAULT_LAMBDA_GRID = tuple(float(v) for v in np.logspace(-6, 1, 8))

GLOBAL_LS = "global_ls"
INDEPENDENT_PARTS_LS = "independent_parts_ls"
LOCAL_LS = "local_ls"
LOCAL_DELTA = "local_delta"
LS_ESTIMATORS = (GLOBAL_LS, INDEPENDENT_PARTS_LS, LOCAL_LS)

# seed-splitting task codes (documented contract: streams come from
# SeedSequence(cfg.seed, spawn_key=(task_code, n, repeat)))
_TASK_LS = 1
_TASK_ANGULAR = 2
_TASK_ANGULAR_AUX = 3


class NumericalError(RuntimeError):
    """A guarded numerical step failed."""


# ---------------------------------------------------------------------------
# Configuration and results
# ---------------------------------------------------------------------------

def _check_grid(grid) -> None:
    """A lambda grid holds at least one lambda, each positive and finite."""
    if not grid:
        raise ValueError("lambda grid must not be empty")
    if not all(0 < l < math.inf for l in grid):
        raise ValueError("lambda grid entries must be positive and finite")


@dataclass(frozen=True)
class SyntheticConfig:
    """Configuration of the block-correlated regression study."""

    num_parts: int
    block_dim: int
    gamma: float
    n_train: int
    n_test: int
    noise_std: float = 0.5
    seed: int = 0
    lambda_grid: tuple = DEFAULT_LAMBDA_GRID
    estimators: tuple = LS_ESTIMATORS

    def __post_init__(self):
        if min(self.num_parts, self.block_dim, self.n_train, self.n_test) < 1:
            raise ValueError("num_parts, block_dim, n_train and n_test must be >= 1")
        # written so that NaN fails: every comparison with it is false
        if not 0 <= self.noise_std < math.inf:
            raise ValueError(f"noise_std must be >= 0 and finite, got {self.noise_std!r}")
        if not 0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be >= 0 and finite, got {self.gamma!r}")
        _check_grid(self.lambda_grid)
        if not self.estimators:
            raise ValueError("estimators must not be empty")
        unknown = [e for e in self.estimators if e not in LS_ESTIMATORS]
        if unknown:
            raise ValueError(f"unknown estimators {unknown}")


@dataclass(frozen=True)
class AngularConfig:
    """Configuration of the orientation-field study."""

    grid_size: int = 16
    patch: int = 4
    stride: int = 2
    n_test: int = 16
    m: int = 600
    bandwidth: float = 2.0
    input_noise: float = 0.2
    freq_cutoff: int = 2
    seed: int = 0
    lambda_grid: tuple = tuple(float(v) for v in np.logspace(-6, 1, 5))

    def __post_init__(self):
        self.scheme()  # the patches must fit the grid
        GaussianParts(self.bandwidth)  # and the bandwidth be positive
        if min(self.m, self.n_test) < 1:
            raise ValueError("m and n_test must be >= 1")
        if not 0 <= self.input_noise < math.inf:
            raise ValueError(f"input_noise must be >= 0 and finite, got {self.input_noise!r}")
        if self.freq_cutoff < 0:
            raise ValueError(f"freq_cutoff must be >= 0, got {self.freq_cutoff!r}")
        _check_grid(self.lambda_grid)

    def scheme(self) -> GridPatches:
        return GridPatches(
            width=self.grid_size, height=self.grid_size,
            patch_w=self.patch, patch_h=self.patch,
            stride=self.stride, circular=True,
        )


BENCH_CSV_HEADER = "estimator,n,num_parts,gamma,repeat,lambda_chosen,test_error"


@dataclass(frozen=True)
class BenchRow:
    estimator: str
    n: int
    num_parts: int
    gamma: float
    repeat: int
    lambda_chosen: float
    test_error: float


@dataclass(frozen=True)
class BenchResult:
    """Per-estimator, per-configuration error table."""

    rows: tuple

    def errors(self, estimator: str, n: Optional[int] = None) -> np.ndarray:
        vals = [r.test_error for r in self.rows
                if r.estimator == estimator and (n is None or r.n == n)]
        return np.asarray(vals)

    def median_error(self, estimator: str, n: Optional[int] = None) -> float:
        return float(np.median(self.errors(estimator, n)))

    def to_csv_lines(self) -> list[str]:
        lines = [BENCH_CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.estimator},{r.n},{r.num_parts},{r.gamma!r},{r.repeat},"
                f"{r.lambda_chosen!r},{r.test_error!r}"
            )
        return lines


def merge_results(results: Sequence[BenchResult]) -> BenchResult:
    rows = []
    for r in results:
        rows.extend(r.rows)
    return BenchResult(rows=tuple(rows))


def _cell_rng(seed: int, task: int, n: int, repeat: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(task, n, repeat)))


# ---------------------------------------------------------------------------
# Synthetic block-correlated regression data
# ---------------------------------------------------------------------------

def block_correlation(num_parts: int, gamma: float) -> np.ndarray:
    """Correlation matrix M with M[p, q] = exp(-gamma |p - q| / num_parts)."""
    idx = np.arange(num_parts)
    return np.exp(-gamma * np.abs(idx[:, None] - idx[None, :]) / num_parts)


def _psd_factor(M: np.ndarray) -> np.ndarray:
    """A factor F with F F^T = M; Cholesky when possible, eigen fallback for
    the rank-deficient fully-correlated limit."""
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(M)
        if w.min() < -1e-8 * max(w.max(), 1.0):
            raise NumericalError(f"correlation matrix not PSD (min eigenvalue {w.min():.3e})")
        return V * np.sqrt(np.clip(w, 0.0, None))


def gen_synthetic_dataset(cfg: SyntheticConfig, rng: np.random.Generator):
    """Draw one train/test split of the block-correlated regression task.

    Returns ``((X_train, Y_train), (X_test, Y_test), w)`` where ``w`` is the
    true weight vector, built by concatenating ``num_parts`` copies of a
    single block vector drawn uniformly from the unit ball. Block ``p`` of a
    response is the shared linear signal ``w_bar . x_p`` in every coordinate
    plus isotropic Gaussian noise, so corresponding input and output blocks
    are linked by one map shared across blocks.
    """
    P, k = cfg.num_parts, cfg.block_dim
    F = _psd_factor(block_correlation(P, cfg.gamma))

    direction = rng.standard_normal(k)
    direction /= np.linalg.norm(direction)
    w_bar = direction * rng.random() ** (1.0 / k)  # uniform in the unit ball
    w = np.tile(w_bar, P)

    def draw(n):
        G = rng.standard_normal((n, P, k))
        blocks = np.einsum("pq,nqk->npk", F, G)
        X = blocks.reshape(n, P * k)
        signal = np.repeat(blocks @ w_bar, k, axis=1)
        Y = signal + cfg.noise_std * rng.standard_normal((n, P * k))
        return X, Y

    train = draw(cfg.n_train)
    test = draw(cfg.n_test)
    return train, test, w


def noiseless_targets(X: np.ndarray, w: np.ndarray, num_parts: int, block_dim: int) -> np.ndarray:
    """Clean regression surface for inputs X under the true weights."""
    w_bar = w[:block_dim]
    blocks = X.reshape(X.shape[0], num_parts, block_dim)
    return np.repeat(blocks @ w_bar, block_dim, axis=1)


# ---------------------------------------------------------------------------
# Estimators for the regression study
# ---------------------------------------------------------------------------

def _ridge_path(A: np.ndarray, B: np.ndarray):
    """Linear ridge regression, one independent fit per leading block,
    scored at any lambda from one batched eigendecomposition over the
    blocks. ``A`` is (blocks, n, d) inputs and ``B`` is (blocks, n, c)
    targets. For n <= d it is the dual Gram's, ``A A^T = V diag(w) V^T``,
    and the predictions at ``At`` are ``(At A^T V) diag(1 / (w + n lam))
    V^T B``; otherwise the primal ``A^T A``'s, with ``(At V) diag(1 / (w + n
    lam)) V^T A^T B``. The two outer factors are formed once, so each lambda
    is a diagonal rescale and one product. Returns ``score(At, Bt, grid)``:
    the mean squared error against ``Bt`` at every lambda of ``grid``."""
    n, d = A.shape[1:]
    AT = A.transpose(0, 2, 1)
    if n <= d:
        w, V = np.linalg.eigh(A @ AT)
        right = V.transpose(0, 2, 1) @ B
        lift = lambda At: (At @ AT) @ V
    else:
        w, V = np.linalg.eigh(AT @ A)
        right = V.transpose(0, 2, 1) @ (AT @ B)
        lift = lambda At: At @ V
    w = np.clip(w, 0.0, None)[:, :, None]  # a Gram is PSD: clip rounding below zero

    def score(At, Bt, grid) -> np.ndarray:
        left = lift(At)
        return np.array([np.mean((left @ (right / (w + n * lam)) - Bt) ** 2) for lam in grid])
    return score


def _baseline(blocks: int):
    """Lambda path of a baseline: the input and output vectors cut into
    ``blocks`` equal slices, each fitted by its own ridge (``_ridge_path``).
    One block is the global estimator, one block per part the
    independent-parts one."""
    def layout(X):
        return X.reshape(X.shape[0], blocks, -1).transpose(1, 0, 2)

    def path(X, Y):
        score = _ridge_path(layout(X), layout(Y))
        return lambda Xt, Yt, grid: score(layout(Xt), layout(Yt), grid)
    return path


def _local(scheme: VectorBlocks):
    """Lambda path of the part-pooled estimator: every (input, part) pair of
    the training set is an anchor of a linear restriction kernel, decoded
    with the squared-loss closed form. The readout is the unnormalized
    weighted sum, the ridge conditional mean of a linear kernel on centered
    data. Every lambda is read out of one eigendecomposition of the
    anchors' lambda-free system (``decoder._least_squares_path``)."""
    kernel = Restriction(LinearParts())
    pi = Uniform(scheme.num_parts)

    def path(X, Y):
        fits = _LambdaPath(list(X), enumerate_auxiliary(list(zip(X, Y)), scheme), kernel, scheme)

        def score(Xt, Yt, grid) -> np.ndarray:
            decode = _least_squares_path(fits, pi, Xt, normalize=False)
            return np.array([np.mean((decode(lam) - Yt) ** 2) for lam in grid])
        return score
    return path


def _ls_estimator(name: str, cfg: SyntheticConfig):
    """The lambda path of a regression estimator (see ``_select_lambda``)."""
    if name == GLOBAL_LS:
        return _baseline(1)
    if name == INDEPENDENT_PARTS_LS:
        return _baseline(cfg.num_parts)
    return _local(VectorBlocks(block_dim=cfg.block_dim, num_blocks=cfg.num_parts))


def _per_lambda(fits, loss):
    """Lambda path that fits and scores one lambda at a time: ``fits(X,
    Y)`` does the per-training-set work once and returns ``lam ->
    predictor``, and ``loss(predictor, X_t, Y_t)`` scores each."""
    def path(X, Y):
        fit = fits(X, Y)
        return lambda Xt, Yt, grid: [loss(fit(lam), Xt, Yt) for lam in grid]
    return path


def _select_lambda(path, X, Y, grid, cell: str) -> float:
    """Hold-out selection shared by every estimator.

    ``path(X_fit, Y_fit)`` does the per-training-set work once and returns a
    scorer: ``score(X_ho, Y_ho, grid)`` gives the hold-out error at every
    lambda of the grid. The fit takes the first 80% of the training set and
    the hold-out the rest, and the first lambda of least error is chosen.
    Every error and the choice are logged at INFO under ``cell``; a
    non-finite error raises ``NumericalError``. With fewer than two training
    inputs nothing can be held out, so the middle grid value is returned.
    """
    n = X.shape[0]
    if n < 2:
        lam = grid[len(grid) // 2]
        log.info("%s: nothing to hold out, lambda %g", cell, lam)
        return lam
    n_fit = min(int(round(0.8 * n)), n - 1)
    errors = path(X[:n_fit], Y[:n_fit])(X[n_fit:], Y[n_fit:], grid)
    for lam, err in zip(grid, errors):
        log.info("%s: hold-out error %.6g at lambda %g", cell, err, lam)
    for lam, err in zip(grid, errors):
        if not math.isfinite(err):
            raise NumericalError(f"{cell}: hold-out error {err} at lambda {lam!r}")
    lam = grid[int(np.argmin(errors))]
    log.info("%s: chose lambda %g", cell, lam)
    return lam


def _run_cell(path, train, test, grid, cell: str) -> tuple[float, float]:
    """``(lambda, test error)`` of one cell: the lambda ``_select_lambda``
    chooses on ``train``, and the error of the same path fitted on the whole
    of ``train`` and scored on ``test`` at that lambda. A failure, a
    non-finite test error included, is logged and gives ``(nan, nan)``, so
    the sweep goes on and marks the cell failed."""
    X, Y = train
    try:
        lam = _select_lambda(path, X, Y, grid, cell)
        err = float(path(X, Y)(*test, [lam])[0])
        if not math.isfinite(err):
            raise NumericalError(f"{cell}: test error {err} at lambda {lam!r}")
        return float(lam), err
    except Exception:
        log.exception("%s failed", cell)
        return math.nan, math.nan


def _run_ls_cell(cfg: SyntheticConfig, rng: np.random.Generator, repeat: int) -> list[BenchRow]:
    (Xtr, Ytr), (Xte, noisy), w = gen_synthetic_dataset(cfg, rng)
    del noisy  # the cell scores the noiseless surface: free the noisy targets while it runs
    test = (Xte, noiseless_targets(Xte, w, cfg.num_parts, cfg.block_dim))
    rows = []
    for name in cfg.estimators:
        cell = f"{name} n={cfg.n_train} P={cfg.num_parts} gamma={cfg.gamma:g} repeat {repeat}"
        lam, err = _run_cell(_ls_estimator(name, cfg), (Xtr, Ytr), test, cfg.lambda_grid, cell)
        rows.append(BenchRow(
            estimator=name, n=cfg.n_train, num_parts=cfg.num_parts,
            gamma=cfg.gamma, repeat=repeat, lambda_chosen=lam, test_error=err,
        ))
    return rows


def run_estimator_comparison(cfg: SyntheticConfig, repeats: int) -> BenchResult:
    """Compare the configured estimators over seeded dataset repeats.

    Each repeat draws a fresh train/test split, selects lambda per estimator
    by hold-out, and scores mean squared error against the noiseless
    regression surface on the test inputs.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    rows = []
    for rep in range(repeats):
        rng = _cell_rng(cfg.seed, _TASK_LS, cfg.n_train, rep)
        rows.extend(_run_ls_cell(cfg, rng, rep))
    return BenchResult(rows=tuple(rows))


def run_learning_curve(task: str, n_grid: Sequence[int], cfg, repeats: int) -> BenchResult:
    """Error of each estimator across an ascending grid of training sizes."""
    n_grid = list(n_grid)
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n grid must be ascending")
    if task == "synthetic_ls":
        results = []
        for n in n_grid:
            sub = replace(cfg, n_train=n)
            results.append(run_estimator_comparison(sub, repeats))
        return merge_results(results)
    if task == "synthetic_angular":
        return _run_angular_curve(n_grid, cfg, repeats)
    raise ValueError(f"unknown task {task!r}")


# ---------------------------------------------------------------------------
# Orientation-field task
# ---------------------------------------------------------------------------

def gen_orientation_fields(n: int, grid_size: int, freq_cutoff: int,
                           input_noise: float, rng: np.random.Generator):
    """Sample smooth orientation fields with their noisy input encodings.

    The target field is the argument of a band-limited complex field with
    independent Gaussian Fourier coefficients on the low-frequency modes,
    giving angles in [-pi, pi). The input is the two-channel pointwise
    encoding (cos 2 theta, sin 2 theta) plus Gaussian pixel noise, so each
    output patch is determined by the matching input patch.
    """
    G = grid_size
    freqs = np.fft.fftfreq(G, d=1.0 / G)
    mask = (np.abs(freqs)[:, None] <= freq_cutoff) & (np.abs(freqs)[None, :] <= freq_cutoff)
    X = np.empty((n, 2, G, G))
    Y = np.empty((n, G, G))
    for i in range(n):
        coeff = rng.standard_normal((G, G)) + 1j * rng.standard_normal((G, G))
        field = np.fft.ifft2(coeff * mask)
        theta = np.angle(field)
        theta = np.where(theta >= np.pi, -np.pi, theta)
        Y[i] = theta
        X[i, 0] = np.cos(2 * theta) + input_noise * rng.standard_normal((G, G))
        X[i, 1] = np.sin(2 * theta) + input_noise * rng.standard_normal((G, G))
    return X, Y


def _angular_path(cfg: AngularConfig, n: int, repeat: int):
    """Fits of the orientation-field estimator, ``path(X, Y)(lam)``: ``cfg.m``
    anchors drawn once per training set from the cell's own stream (from
    ``cfg.seed``, ``n`` and ``repeat``), a Gaussian restriction kernel, and
    the angular closed form. Every lambda factors a copy of one Gram over
    the distinct anchor parts (``training._LambdaPath``); ``_per_lambda``
    scores them one at a time."""
    scheme = cfg.scheme()
    pi = Uniform(scheme.num_parts)
    kernel = Restriction(GaussianParts(cfg.bandwidth))

    def path(X, Y):
        train = list(zip(X, Y))
        m = min(cfg.m, len(train) * scheme.num_parts)
        aux = generate_auxiliary(train, m, scheme, pi,
                                 _cell_rng(cfg.seed, _TASK_ANGULAR_AUX, n, repeat))
        fit_at = _LambdaPath(list(X), aux, kernel, scheme)

        def fit(lam):
            return AngularDecoder(fit_at(lam), pi).decode_batch
        return fit
    return path


def _run_angular_curve(n_grid, cfg: AngularConfig, repeats) -> BenchResult:
    scheme = cfg.scheme()
    pi = Uniform(scheme.num_parts)

    def loss(predict, X, Y):
        return float(np.mean([structured_loss(ANGULAR_SIN_SQ, z, y, x, scheme, pi)
                              for z, y, x in zip(predict(X), Y, X)]))

    rows = []
    for n in n_grid:
        for rep in range(repeats):
            rng = _cell_rng(cfg.seed, _TASK_ANGULAR, n, rep)
            Xtr, Ytr = gen_orientation_fields(n, cfg.grid_size, cfg.freq_cutoff,
                                              cfg.input_noise, rng)
            Xte, Yte = gen_orientation_fields(cfg.n_test, cfg.grid_size, cfg.freq_cutoff,
                                              cfg.input_noise, rng)
            lam, err = _run_cell(_per_lambda(_angular_path(cfg, n, rep), loss),
                                 (Xtr, Ytr), (Xte, Yte), cfg.lambda_grid,
                                 f"{LOCAL_DELTA} n={n} repeat {rep}")
            rows.append(BenchRow(
                estimator=LOCAL_DELTA, n=n, num_parts=scheme.num_parts,
                gamma=math.nan, repeat=rep, lambda_chosen=lam, test_error=err,
            ))
    return BenchResult(rows=tuple(rows))
