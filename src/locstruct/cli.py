"""Command-line entry point.

Subcommands: train, predict, diagnose, bench-synthetic, bench-angular,
bound-check. Every artifact an invocation writes is a pure function of its
configuration and seed, so re-running a command reproduces its outputs byte
for byte. Verbosity is controlled by the LOCSTRUCT_LOG environment variable
(error, warn, info, debug).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import replace
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import bench, config as cfgmod
from .decoder import (
    AngularDecoder,
    ClosedForm,
    DecodeRequest,
    ExactEnumeration,
    LeastSquaresDecoder,
    decode_exact,
    decode_sgm,
)
from .locality import SquaredKernel, empirical_cov_map, locality_constants, sequence_bound_check
from .losses import SQUARED_VECTOR
from .modelio import (ParseError, UnsupportedVersionError, encode_value, load_model, read_dataset,
                      read_json, save_model)
from .parts import PartIndexError, SequenceWindows, ShapeMismatchError, Uniform
from .svgplot import heatmap, line_plot
from .training import NonFiniteError, fit_alpha, generate_auxiliary

log = logging.getLogger("locstruct")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging():
    level = os.environ.get("LOCSTRUCT_LOG", "warn").lower()
    logging.basicConfig(level=_LOG_LEVELS.get(level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_lines(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n")


def _config(args, parse):
    """Parse the command's config file; ``--seed`` overrides its seed."""
    doc = read_json(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed
    return parse(doc)


def _finish_bench(out: Path, name: str, result, plot) -> int:
    """Write ``<name>.csv``, then draw ``<name>.svg`` and return 0. When a
    row is a failed (NaN) cell the plot is skipped, since its medians would
    be NaN, and a JSON error of kind ``failed_cells`` gives exit status 3."""
    _write_lines(out / f"{name}.csv", result.to_csv_lines())
    print(str(out / f"{name}.csv"))
    failed = sum(1 for r in result.rows
                 if math.isnan(r.lambda_chosen) or math.isnan(r.test_error))
    if failed:
        print(json.dumps({"error": {"kind": "failed_cells", "count": failed,
                                    "message": f"{failed} of {len(result.rows)} cells failed"}}),
              file=sys.stderr)
        return 3
    plot(out / f"{name}.svg")
    return 0


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_train(args) -> int:
    cfg = _config(args, cfgmod.parse_train)
    train = read_dataset(cfg.dataset)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    aux = generate_auxiliary(train, cfg.m, cfg.scheme, cfg.pi, rng)
    model = fit_alpha([x for x, _ in train], aux, cfg.kernel, cfg.lam, cfg.scheme)
    out = _out_dir(args)
    save_model(model, out / "model.json")
    log.info("model with m=%d saved to %s", model.m, out / "model.json")
    print(str(out / "model.json"))
    return 0


def _cmd_predict(args) -> int:
    cfg = _config(args, cfgmod.parse_predict)
    model = load_model(cfg.model)
    method = cfg.method
    if isinstance(method, ExactEnumeration):
        scheme = model.scheme
        if not isinstance(scheme, SequenceWindows):
            raise ParseError(f"{cfg.model}: the exact decoder needs a sequence_windows model")
        table = scheme.num_parts * len(method.alphabet) ** scheme.window_len
        if table > method.budget:
            raise ParseError(f"predict.decoder.budget: the model's cost table has {table} "
                             f"entries, more than the budget of {method.budget}")
    xs = [x for x, _ in read_dataset(cfg.dataset, require_y=False)]
    pi = cfg.pi if cfg.pi is not None else Uniform(model.scheme.num_parts)
    if isinstance(method, ClosedForm):
        decoder = (LeastSquaresDecoder(model, pi, normalize=method.normalize)
                   if cfg.loss == SQUARED_VECTOR else AngularDecoder(model, pi))
        preds = decoder.decode_batch(xs)
    elif isinstance(method, ExactEnumeration):
        preds = [decode_exact(DecodeRequest(model, x, cfg.loss, pi, method)) for x in xs]
    else:  # SGM: query i draws from its own stream (seed, i)
        preds = []
        for i, x in enumerate(xs):
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(i,)))
            request = DecodeRequest(model, x, cfg.loss, pi, replace(method, rng=rng))
            preds.append(decode_sgm(request))
    out = _out_dir(args)
    path = out / "predictions.jsonl"
    with open(path, "w") as fh:
        for x, z in zip(xs, preds):
            fh.write(json.dumps({"x": encode_value(x), "y": encode_value(z)}) + "\n")
    print(str(path))
    return 0


def _fmt_cell(v) -> str:
    return repr(float(v))


def _cmd_diagnose(args) -> int:
    cfg = _config(args, cfgmod.parse_diagnose)
    records = read_dataset(cfg.dataset, require_y=False)
    rng = (np.random.default_rng(np.random.SeedSequence(cfg.seed))
           if cfg.seed is not None else None)
    report = empirical_cov_map([x for x, _ in records], cfg.scheme, cfg.similarity,
                               pair_subsample=cfg.subsample_pairs, rng=rng)
    out = _out_dir(args)

    P = report.cov_map.shape[0]
    header = "p\\q," + ",".join(str(q) for q in range(P))
    for name, table in (("cov_map", report.cov_map), ("cov_std_err", report.std_err)):
        _write_lines(out / f"{name}.csv",
                     [header] + [f"{p}," + ",".join(_fmt_cell(v) for v in table[p])
                                 for p in range(P)])
    heatmap(out / "cov_map.svg", report.cov_map,
            title="within-locality covariance", annotate=cfg.annotate)

    lines = ["quantity,value", f"r_sq,{_fmt_cell(report.r_sq)}",
             f"n_samples,{report.n_samples}"]
    if isinstance(cfg.similarity, SquaredKernel):
        s_hat, q_hat, gamma_hat = locality_constants(report, cfg.scheme)
        lines += [f"s_hat,{_fmt_cell(s_hat)}", f"q_hat,{_fmt_cell(q_hat)}",
                  f"gamma_hat,{'' if gamma_hat is None else _fmt_cell(gamma_hat)}"]
    _write_lines(out / "locality_constants.csv", lines)
    print(str(out / "cov_map.csv"))
    return 0


def _cmd_bench_synthetic(args) -> int:
    cfg, (parts, gammas, n_grid), repeats = _config(args, cfgmod.parse_bench_synthetic)
    out = _out_dir(args)
    if n_grid is not None:
        result = bench.run_learning_curve("synthetic_ls", n_grid, cfg, repeats)
        series = {est: (list(n_grid), [result.median_error(est, n) for n in n_grid])
                  for est in cfg.estimators}
        plot = partial(line_plot, series=series, title="learning curves",
                       xlabel="n train", ylabel="median test error", logx=True, logy=True)
    else:
        result = bench.merge_results([
            bench.run_estimator_comparison(replace(cfg, num_parts=P, gamma=g), repeats)
            for P in parts for g in gammas])
        series = {}
        for est in cfg.estimators:
            pts = []
            for g in gammas:
                errs = [r.test_error for r in result.rows
                        if r.estimator == est and r.gamma == g]
                pts.append(float(np.median(errs)))
            series[est] = (list(gammas), pts)
        plot = partial(line_plot, series=series, title="estimator comparison",
                       xlabel="gamma", ylabel="median test error", logy=True)
    return _finish_bench(out, "bench_synthetic", result, plot)


def _cmd_bench_angular(args) -> int:
    cfg, n_grid, repeats = _config(args, cfgmod.parse_bench_angular)
    out = _out_dir(args)
    result = bench.run_learning_curve("synthetic_angular", n_grid, cfg, repeats)
    meds = [result.median_error(bench.LOCAL_DELTA, n) for n in n_grid]
    plot = partial(line_plot, series={bench.LOCAL_DELTA: (list(n_grid), meds)},
                   title="orientation field learning curve", xlabel="n train",
                   ylabel="median structured loss", logx=True, logy=True)
    return _finish_bench(out, "bench_angular", result, plot)


def _cmd_bound_check(args) -> int:
    gammas, parts = cfgmod.parse_bound_check(args.gamma, args.parts)
    lines = ["gamma,num_parts,r_sq,s_exact,s_bound,holds"]
    for g in gammas:
        for P in parts:
            res = sequence_bound_check(args.r2, g, P)
            print(f"gamma={g:g} parts={P} s_exact={res.s_exact:.6g} "
                  f"s_bound={res.s_bound:.6g} holds={str(res.holds).lower()}")
            lines.append(f"{g!r},{P},{args.r2!r},{res.s_exact!r},{res.s_bound!r},"
                         f"{str(res.holds).lower()}")
    if args.out is not None:
        out = _out_dir(args)
        _write_lines(out / "bound_check.csv", lines)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged and gives every call a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="locstruct",
        description="Localized structured prediction: training, decoding, "
                    "locality diagnostics, and synthetic benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default="out", help="output directory")

    common(sub.add_parser("train", help="fit and persist a model"))
    common(sub.add_parser("predict", help="decode a dataset with a saved model"))
    common(sub.add_parser("diagnose", help="within-locality covariance map and constants"))
    common(sub.add_parser("bench-synthetic", help="block-correlated regression study"))
    common(sub.add_parser("bench-angular", help="orientation-field learning curve"))

    bc = sub.add_parser("bound-check", help="geometric-series bound table")
    bc.add_argument("--gamma", required=True, help="decay rate(s), comma separated")
    bc.add_argument("--parts", required=True, help="part count(s), comma separated")
    bc.add_argument("--r2", type=float, default=1.0, help="similarity sup bound")
    bc.add_argument("--out", default=None, help="optional output directory for the CSV")
    return parser


_DISPATCH = {
    "train": _cmd_train,
    "predict": _cmd_predict,
    "diagnose": _cmd_diagnose,
    "bench-synthetic": _cmd_bench_synthetic,
    "bench-angular": _cmd_bench_angular,
    "bound-check": _cmd_bound_check,
}


# JSON error kinds of the errors a command reports with exit status 2
_ERROR_KINDS = ((ParseError, "parse"), (UnsupportedVersionError, "unsupported_version"),
                (OSError, "io"), (NonFiniteError, "non_finite"),
                ((ShapeMismatchError, PartIndexError), "shape"))


def run_command(argv) -> int:
    """Run one CLI invocation; returns the process exit status."""
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except Exception as e:
        kind = next((k for types, k in _ERROR_KINDS if isinstance(e, types)), None)
        if kind is None:  # defensive: an error no kind names
            log.debug("command failed", exc_info=True)
        print(json.dumps({"error": {"kind": kind or type(e).__name__, "message": str(e)}}),
              file=sys.stderr)
        return 2 if kind else 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
