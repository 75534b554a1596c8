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
import os
import sys
from pathlib import Path

import numpy as np

from . import bench, config as cfgmod
from .config import ConfigError, build_method
from .decoder import (
    AngularDecoder,
    DecodeRequest,
    LeastSquaresDecoder,
    decode_exact,
    decode_sgm,
)
from .locality import SquaredKernel, empirical_cov_map, locality_constants, sequence_bound_check
from .modelio import (
    ParseError,
    encode_value,
    load_model,
    pi_from_json,
    read_dataset,
    save_model,
)
from .parts import Uniform
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


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_train(args) -> int:
    doc = cfgmod.load_config(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed
    cfg = cfgmod.parse_train(doc)
    train = read_dataset(cfg.dataset)
    pi = (pi_from_json(cfg.pi, cfg.scheme.num_parts) if cfg.pi is not None
          else Uniform(cfg.scheme.num_parts))
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    aux = generate_auxiliary(train, cfg.m, cfg.scheme, pi, rng)
    model = fit_alpha([x for x, _ in train], aux, cfg.kernel, cfg.lam, cfg.scheme)
    out = _out_dir(args)
    save_model(model, out / "model.json")
    log.info("model with m=%d saved to %s", model.m, out / "model.json")
    print(str(out / "model.json"))
    return 0


def _cmd_predict(args) -> int:
    doc = cfgmod.load_config(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed
    cfg = cfgmod.parse_predict(doc)
    model = load_model(cfg.model)
    records = read_dataset(cfg.dataset, require_y=False)
    xs = [x for x, _ in records]
    pi = (pi_from_json(cfg.pi, model.scheme.num_parts) if cfg.pi is not None
          else Uniform(model.scheme.num_parts))
    kind = cfg.method_spec["method"]
    if kind == "least_squares":
        method = build_method(cfg.method_spec)
        preds = LeastSquaresDecoder(model, pi, normalize=method.normalize).decode_batch(xs)
    elif kind == "angular":
        preds = AngularDecoder(model, pi).decode_batch(xs)
    elif kind == "exact":
        method = build_method(cfg.method_spec)
        preds = [decode_exact(DecodeRequest(model, x, cfg.loss, pi, method)) for x in xs]
    else:  # sgm
        preds = []
        for i, x in enumerate(xs):
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(i,)))
            method = build_method(cfg.method_spec, rng=rng)
            preds.append(decode_sgm(DecodeRequest(model, x, cfg.loss, pi, method)))
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
    doc = cfgmod.load_config(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed
    cfg = cfgmod.parse_diagnose(doc)
    records = read_dataset(cfg.dataset, require_y=False)
    rng = (np.random.default_rng(np.random.SeedSequence(cfg.seed))
           if cfg.seed is not None else None)
    report = empirical_cov_map([x for x, _ in records], cfg.scheme, cfg.similarity,
                               pair_subsample=cfg.subsample_pairs, rng=rng)
    out = _out_dir(args)

    P = report.cov_map.shape[0]
    header = "p\\q," + ",".join(str(q) for q in range(P))
    _write_lines(out / "cov_map.csv",
                 [header] + [f"{p}," + ",".join(_fmt_cell(v) for v in report.cov_map[p])
                             for p in range(P)])
    _write_lines(out / "cov_std_err.csv",
                 [header] + [f"{p}," + ",".join(_fmt_cell(v) for v in report.std_err[p])
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
    doc = cfgmod.load_config(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed
    cfg = cfgmod.parse_bench_synthetic(doc)
    out = _out_dir(args)
    if cfg.learning_curve:
        cell = cfg.cell(cfg.num_parts[0], cfg.gamma[0], cfg.n_train[0])
        result = bench.run_learning_curve("synthetic_ls", cfg.n_train, cell, cfg.repeats)
        series = {}
        for est in cfg.estimators:
            meds = [result.median_error(est, n) for n in cfg.n_train]
            series[est] = (list(cfg.n_train), meds)
        line_plot(out / "bench_synthetic.svg", series, title="learning curves",
                  xlabel="n train", ylabel="median test error", logx=True, logy=True)
    else:
        results = []
        for P in cfg.num_parts:
            for g in cfg.gamma:
                results.append(bench.run_estimator_comparison(
                    cfg.cell(P, g, cfg.n_train[0]), cfg.repeats))
        result = bench.merge_results(results)
        series = {}
        for est in cfg.estimators:
            pts = []
            for g in cfg.gamma:
                errs = [r.test_error for r in result.rows
                        if r.estimator == est and r.gamma == g]
                pts.append(float(np.median(errs)))
            series[est] = (list(cfg.gamma), pts)
        line_plot(out / "bench_synthetic.svg", series, title="estimator comparison",
                  xlabel="gamma", ylabel="median test error", logy=True)
    _write_lines(out / "bench_synthetic.csv", result.to_csv_lines())
    print(str(out / "bench_synthetic.csv"))
    return 0


def _cmd_bench_angular(args) -> int:
    doc = cfgmod.load_config(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed
    cfg, n_grid, repeats = cfgmod.parse_bench_angular(doc)
    out = _out_dir(args)
    result = bench.run_learning_curve("synthetic_angular", n_grid, cfg, repeats)
    meds = [result.median_error(bench.LOCAL_DELTA, n) for n in n_grid]
    line_plot(out / "bench_angular.svg", {bench.LOCAL_DELTA: (list(n_grid), meds)},
              title="orientation field learning curve", xlabel="n train",
              ylabel="median structured loss", logx=True, logy=True)
    _write_lines(out / "bench_angular.csv", result.to_csv_lines())
    print(str(out / "bench_angular.csv"))
    return 0


def _cmd_bound_check(args) -> int:
    gammas = [float(v) for v in str(args.gamma).split(",")]
    parts = [int(v) for v in str(args.parts).split(",")]
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

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locstruct",
        description="Localized structured prediction: training, decoding, "
                    "locality diagnostics, and synthetic benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
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
    except (ConfigError, ParseError) as e:
        print(json.dumps({"error": {"kind": "parse", "message": str(e)}}), file=sys.stderr)
        return 2
    except OSError as e:
        print(json.dumps({"error": {"kind": "io", "message": str(e)}}), file=sys.stderr)
        return 2
    except NonFiniteError as e:
        print(json.dumps({"error": {"kind": "non_finite", "message": str(e)}}), file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - defensive
        log.debug("command failed", exc_info=True)
        print(json.dumps({"error": {"kind": type(e).__name__, "message": str(e)}}),
              file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
