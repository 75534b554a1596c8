"""The three benchmark workloads.

Each workload makes its inputs from the seed in ``setup``, then runs
identical iterations. An iteration is the timed pass over the workload's
user entry points (``run_pass``), followed for some workloads by probe calls
(``run_probes``) that time the fit and the main decoder on their own where
the pass hides them inside a library call. A pass is timed as a few
segments, each a ``hostspeed`` lap around one or a few calls, and its time
is the sum of its segments. Every call goes through the ``locstruct``
module attributes at call time, so a traced pass sees the wrapped layers.

Why these three (see README.md for the measured layer shares):

* ``blocks_ls`` is training-heavy on a low-rank Gram (linear restriction
  kernel, rank 50 at m = 3200): factorisations dominate.
* ``grid_angular`` is decode-heavy on a full-rank Gaussian kernel with a small
  system (m = 600): part stacking and cross matrices dominate.
* ``seq_exact`` goes through the command line on strings, which do not
  stack: the scalar kernel loop, exact enumeration and model files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import locstruct as ls
import locstruct.cli
import locstruct.modelio
from hostspeed import Lap

# spawn keys of the benchmark's own random streams
_DATA, _AUX, _SGM = 1, 2, 3


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


@dataclass
class Iteration:
    """What one iteration measured and produced."""

    segments: list = field(default_factory=list)  # Laps that make up the pass
    passed: bool = False  # the pass ran to its end
    fit: list = field(default_factory=list)  # Laps
    decode: list = field(default_factory=list)  # (outputs decoded, Lap)
    test_error: float = math.nan
    nan_rows: int = 0
    attempted: int = 0
    failed: int = 0
    ref: dict = field(default_factory=dict)  # checked against reference.json
    det: dict = field(default_factory=dict)  # checked across passes only
    agree: list = field(default_factory=list)  # (ok, note) of checks within the pass

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1

    @contextlib.contextmanager
    def segment(self, watch):
        with watch.lap() as lap:
            yield lap
        self.segments.append(lap)

    def pass_lap(self) -> Lap:
        """The whole pass as one lap: raw seconds and the slowdown that
        turns them into the sum of the segments' normalised seconds."""
        seconds = sum(lap.seconds for lap in self.segments)
        return Lap(seconds, seconds / sum(lap.normalised for lap in self.segments))

    def rows(self, rows) -> None:
        bad = sum(1 for r in rows if not (math.isfinite(r.lambda_chosen)
                                          and math.isfinite(r.test_error)))
        self.nan_rows += bad
        self.op(bad == 0)


def _finite(a) -> bool:
    return bool(np.all(np.isfinite(np.asarray(a, dtype=float))))


def _row(rows, estimator):
    return next(r for r in rows if r.estimator == estimator)


# ---------------------------------------------------------------------------
# blocks_ls: the criterion-6 cell
# ---------------------------------------------------------------------------

class BlocksLS:
    name = "blocks_ls"
    estimators = (ls.bench.GLOBAL_LS, ls.bench.INDEPENDENT_PARTS_LS, ls.bench.LOCAL_LS)
    num_parts, block_dim, gamma, n_train, n_test = 32, 50, 10.0, 100, 500
    cov_sigma = 7.0  # ~ sqrt(block_dim), so the squared Gaussian similarity is not flat
    cov_inputs = 400  # the training inputs and the first 300 test inputs
    probe_repeats = 3
    python_share = 0.0  # factorisations and matmuls: times track the BLAS kernel

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        self.cfg = ls.SyntheticConfig(num_parts=self.num_parts, block_dim=self.block_dim,
                                      gamma=self.gamma, n_train=self.n_train,
                                      n_test=self.n_test, seed=self.seed)
        (Xtr, Ytr), (Xte, _), _ = ls.gen_synthetic_dataset(self.cfg, _rng(self.seed, _DATA))
        self.train = list(zip(Xtr, Ytr))
        self.Xte = Xte
        self.cov_sample = np.vstack([Xtr, Xte])[:self.cov_inputs]
        self.scheme = ls.VectorBlocks(block_dim=self.block_dim, num_blocks=self.num_parts)
        self.pi = ls.Uniform(self.num_parts)
        self.lam = None

    def run_pass(self, tr, it: Iteration, watch) -> None:
        rows = []
        for est in self.estimators:
            with it.segment(watch), tr.span(f"bench.cell_{est}"):
                result = ls.run_estimator_comparison(replace(self.cfg, estimators=(est,)), 1)
            it.rows(result.rows)
            rows.extend(result.rows)
        with it.segment(watch):
            report = ls.empirical_cov_map(self.cov_sample, self.scheme,
                                          ls.SquaredKernel(ls.GaussianParts(self.cov_sigma)))
        it.op(_finite(report.cov_map) and _finite(report.std_err))
        local = _row(rows, ls.bench.LOCAL_LS)
        self.lam = local.lambda_chosen
        it.test_error = local.test_error
        it.ref["lambda_chosen"] = [r.lambda_chosen for r in rows]

    def run_probes(self, it: Iteration, watch) -> None:
        if not math.isfinite(self.lam):
            raise RuntimeError(f"local_ls chose lambda {self.lam}")
        for _ in range(self.probe_repeats):
            with watch.lap() as lap:
                aux = ls.enumerate_auxiliary(self.train, self.scheme)
                model = ls.fit_alpha([x for x, _ in self.train], aux,
                                     ls.Restriction(ls.LinearParts()), self.lam, self.scheme)
                decoder = ls.LeastSquaresDecoder(model, self.pi, normalize=False)
            it.fit.append(lap)
            it.op(True)
            with watch.lap() as lap:
                Z = decoder.decode_batch(self.Xte)
            it.decode.append((len(self.Xte), lap))
            it.op(_finite(Z))
        it.ref["predictions"] = Z


# ---------------------------------------------------------------------------
# grid_angular: orientation fields
# ---------------------------------------------------------------------------

class GridAngular:
    name = "grid_angular"
    grid, patch, stride, m, bandwidth = 16, 4, 2, 600, 2.0
    n_train, n_curve_test, n_test = 12, 16, 200  # 12 fields x 64 parts >= m
    sgm_fields, sgm_iterations = 3, 2000
    fit_repeats = 3
    python_share = 0.5  # numpy on small arrays plus Python loops: both kernels

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        self.cfg = ls.AngularConfig(grid_size=self.grid, patch=self.patch, stride=self.stride,
                                    n_test=self.n_curve_test, m=self.m,
                                    bandwidth=self.bandwidth, seed=self.seed)
        rng = _rng(self.seed, _DATA)
        gen = lambda n: ls.gen_orientation_fields(n, self.grid, self.cfg.freq_cutoff,
                                                  self.cfg.input_noise, rng)
        Xtr, Ytr = gen(self.n_train)
        self.Xte, self.Yte = gen(self.n_test)
        self.train = list(zip(Xtr, Ytr))
        self.scheme = self.cfg.scheme()
        self.pi = ls.Uniform(self.scheme.num_parts)

    def run_pass(self, tr, it: Iteration, watch) -> None:
        with it.segment(watch), tr.span("bench.cell_local_delta"):
            result = ls.run_learning_curve("synthetic_angular", [self.n_train], self.cfg, 1)
        it.rows(result.rows)
        lam = result.rows[0].lambda_chosen
        it.ref["lambda_chosen"] = [lam]
        if not math.isfinite(lam):
            raise RuntimeError(f"angular cell chose lambda {lam}")

        self.lam = lam
        with it.segment(watch) as lap:
            model, decoder = self._fit()
        it.fit.append(lap)
        it.op(True)

        with it.segment(watch) as lap:
            Z = decoder.decode_batch(self.Xte)
        it.decode.append((len(self.Xte), lap))
        it.op(_finite(Z))
        it.ref["predictions"] = Z

        with it.segment(watch):
            losses = [ls.structured_loss(ls.ANGULAR_SIN_SQ, z, y, x, self.scheme, self.pi)
                      for z, y, x in zip(Z, self.Yte, self.Xte)]
            sgm = [ls.decode_sgm(ls.DecodeRequest(
                       model, self.Xte[i], ls.ANGULAR_SIN_SQ, self.pi,
                       ls.SGM(iterations=self.sgm_iterations, rng=_rng(self.seed, _SGM, i),
                              projection=ls.AngleWrap())))
                   for i in range(self.sgm_fields)]
        it.op(_finite(losses))
        it.test_error = float(np.mean(losses))
        for z in sgm:
            it.op(_finite(z))
        it.det["sgm"] = np.stack(sgm)

    def _fit(self):
        aux = ls.generate_auxiliary(self.train, self.m, self.scheme, self.pi,
                                    _rng(self.seed, _AUX))
        model = ls.fit_alpha([x for x, _ in self.train], aux,
                             ls.Restriction(ls.GaussianParts(self.bandwidth)),
                             self.lam, self.scheme)
        return model, ls.AngularDecoder(model, self.pi)

    def run_probes(self, it: Iteration, watch) -> None:
        # the fit is short, so a few more samples than the pass gives
        for _ in range(self.fit_repeats):
            with watch.lap() as lap:
                self._fit()
            it.fit.append(lap)
            it.op(True)


# ---------------------------------------------------------------------------
# seq_exact: train and predict through the command line
# ---------------------------------------------------------------------------

class SeqExact:
    name = "seq_exact"
    alphabet, seq_len, window = "abc", 6, 2
    n_train, n_query, m, sigma, lam = 60, 8, 200, 1.0, 1e-2
    predict_calls = 4  # 2 queries each: a segment under a second keeps the host
                       # slowdown measured around it close to the one it ran at
    label_noise = 0.15
    budget = 1000  # 3^6 = 729 candidates
    fit_repeats, probe_queries = 8, 4
    python_share = 1.0  # the exact decoder and the scalar kernel loop are interpreted

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir

    def _target(self, x: str) -> str:
        """Clean label: every symbol shifted by one, so each output window is
        a function of the matching input window."""
        a = self.alphabet
        return "".join(a[(a.index(c) + 1) % len(a)] for c in x)

    def _noisy(self, y: str, rng) -> str:
        a = self.alphabet
        out = []
        for c in y:
            if rng.random() < self.label_noise:
                c = a[(a.index(c) + 1 + int(rng.integers(len(a) - 1))) % len(a)]
            out.append(c)
        return "".join(out)

    def setup(self) -> None:
        rng = _rng(self.seed, _DATA)
        draw = lambda: "".join(rng.choice(list(self.alphabet), self.seq_len))
        xs = [draw() for _ in range(self.n_train)]
        self.train = [(x, self._noisy(self._target(x), rng)) for x in xs]
        self.queries = [draw() for _ in range(self.n_query)]
        self.scheme = ls.SequenceWindows(seq_len=self.seq_len, window_len=self.window)
        self.pi = ls.Uniform(self.scheme.num_parts)

        self.dir.mkdir(parents=True, exist_ok=True)
        train_path = self.dir / "train.jsonl"
        self.out = self.dir / "run"
        ls.modelio.write_dataset(train_path, self.train)
        self.train_cfg = self.dir / "train.json"
        self.train_cfg.write_text(json.dumps({
            "seed": self.seed, "dataset": str(train_path),
            "scheme": {"kind": "sequence_windows", "k": self.seq_len, "l": self.window},
            "kernel": {"kind": "restriction",
                       "base": {"kind": "gaussian", "sigma": self.sigma}},
            "lambda": self.lam, "m": self.m,
        }))
        self.predict_cfgs = []
        per_call = self.n_query // self.predict_calls
        for k in range(self.predict_calls):
            query_path = self.dir / f"queries-{k}.jsonl"
            query_path.write_text("".join(json.dumps({"x": q}) + "\n" for q in
                                          self.queries[k * per_call:(k + 1) * per_call]))
            cfg = self.dir / f"predict-{k}.json"
            cfg.write_text(json.dumps({
                "model": str(self.out / "model.json"), "dataset": str(query_path),
                "loss": "zero_one_window",
                "decoder": {"method": "exact", "budget": self.budget,
                            "alphabet": self.alphabet},
            }))
            self.predict_cfgs.append(cfg)

    def _expected_loss(self, z: str, x: str) -> float:
        """Window zero-one loss against the query's label, in expectation over
        the label noise (so it never reads 0 and has no sampling noise)."""
        clean = self._target(x)
        keep, swap = 1.0 - self.label_noise, self.label_noise / (len(self.alphabet) - 1)
        total = 0.0
        for p in range(self.scheme.num_parts):
            match = 1.0
            for zc, cc in zip(z[p:p + self.window], clean[p:p + self.window]):
                match *= keep if zc == cc else swap
            total += (1.0 - match) / self.scheme.num_parts
        return total

    def _command(self, tr, it: Iteration, watch, name: str, cfg: Path, out: Path) -> None:
        # the command prints the path it wrote; keep it off the result stream
        with it.segment(watch), tr.span(f"cli.{name}"), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = ls.cli.run_command([name, "--config", str(cfg), "--out", str(out)])
        it.op(rc == 0)
        if rc != 0:
            raise RuntimeError(f"locstruct {name} exited with {rc}")

    def run_pass(self, tr, it: Iteration, watch) -> None:
        self._command(tr, it, watch, "train", self.train_cfg, self.out)
        raw = b""
        for k, cfg in enumerate(self.predict_cfgs):
            out = self.out / f"predict-{k}"
            self._command(tr, it, watch, "predict", cfg, out)
            raw += (out / "predictions.jsonl").read_bytes()
        preds = [json.loads(line)["y"] for line in raw.decode().splitlines()]
        it.det["predictions_jsonl_sha256"] = [hashlib.sha256(raw).hexdigest()]
        it.ref["exact_strings"] = preds
        it.test_error = statistics.fmean(self._expected_loss(z, x)
                                         for z, x in zip(preds, self.queries))

    def run_probes(self, it: Iteration, watch) -> None:
        kernel = ls.Restriction(ls.GaussianParts(self.sigma))
        inputs = [x for x, _ in self.train]
        for _ in range(self.fit_repeats):
            with watch.lap() as lap:
                # the same auxiliary stream as `locstruct train` with this seed
                aux = ls.generate_auxiliary(
                    self.train, self.m, self.scheme, self.pi,
                    np.random.default_rng(np.random.SeedSequence(self.seed)))
                model = ls.fit_alpha(inputs, aux, kernel, self.lam, self.scheme)
            it.fit.append(lap)
            it.op(True)
        method = ls.ExactEnumeration(budget=self.budget, alphabet=tuple(self.alphabet))
        direct = []
        for x in self.queries[:self.probe_queries]:
            with watch.lap() as lap:
                z = ls.decode_exact(ls.DecodeRequest(model, x, ls.ZERO_ONE_WINDOW,
                                                     self.pi, method))
            it.decode.append((1, lap))
            it.op(isinstance(z, str) and len(z) == self.seq_len)
            direct.append(z)
        it.ref["exact_strings_direct"] = direct
        it.agree.append((direct == it.ref.get("exact_strings", [])[:len(direct)],
                         "direct decode_exact differs from the CLI's predictions"))


WORKLOADS = {w.name: w for w in (BlocksLS, GridAngular, SeqExact)}
