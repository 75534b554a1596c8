import contextlib
import copy
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from locstruct import config, svgplot
from locstruct.bench import LS_ESTIMATORS
from locstruct.cli import run_command
from locstruct.modelio import ParseError, load_model, read_dataset, write_dataset
from locstruct.parts import Uniform, Weighted


def _write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _vector_dataset(path, n=10, seed=0):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        x = rng.standard_normal(6)
        pairs.append((x, np.sin(x)))
    write_dataset(path, pairs)
    return pairs


SCHEME_JSON = {"kind": "vector_blocks", "block_dim": 2, "num_blocks": 3}
KERNEL_JSON = {"kind": "restriction", "base": {"kind": "gaussian", "sigma": 1.0}}


class TestTrainPredict:
    def test_near_interpolation_smoke(self, tmp_path):
        ds = tmp_path / "train.jsonl"
        pairs = _vector_dataset(ds, n=8, seed=1)
        cfg = _write_json(tmp_path / "train.json", {
            "seed": 5, "dataset": str(ds), "scheme": SCHEME_JSON,
            "kernel": KERNEL_JSON, "lambda": 1e-6, "m": 150,
        })
        out = tmp_path / "out"
        assert run_command(["train", "--config", cfg, "--out", str(out)]) == 0
        pcfg = _write_json(tmp_path / "pred.json", {
            "model": str(out / "model.json"), "dataset": str(ds),
            "loss": "squared_vector", "decoder": {"method": "least_squares"},
        })
        assert run_command(["predict", "--config", pcfg, "--out", str(out)]) == 0
        preds = read_dataset(out / "predictions.jsonl")
        mse = np.mean([np.mean((np.asarray(z) - y) ** 2)
                       for (x, y), (_, z) in zip(pairs, preds)])
        assert mse <= 1e-2

    def test_sgm_decoder_round_trip(self, tmp_path):
        ds = tmp_path / "train.jsonl"
        _vector_dataset(ds, n=6, seed=4)
        cfg = _write_json(tmp_path / "train.json", {
            "seed": 2, "dataset": str(ds), "scheme": SCHEME_JSON,
            "kernel": KERNEL_JSON, "lambda": 1e-4, "m": 60,
        })
        out = tmp_path / "out"
        assert run_command(["train", "--config", cfg, "--out", str(out)]) == 0
        pcfg = _write_json(tmp_path / "pred.json", {
            "model": str(out / "model.json"), "dataset": str(ds), "seed": 9,
            "loss": "squared_vector",
            "decoder": {"method": "sgm", "iterations": 4000, "step_c": 1.0},
        })
        assert run_command(["predict", "--config", pcfg, "--out", str(out)]) == 0
        first = (out / "predictions.jsonl").read_bytes()
        assert run_command(["predict", "--config", pcfg, "--out", str(out)]) == 0
        assert (out / "predictions.jsonl").read_bytes() == first

    def test_exact_decoder_round_trip(self, tmp_path):
        ds = tmp_path / "train.jsonl"
        pairs = [("ab", "ba"), ("ba", "ab"), ("aa", "bb"), ("bb", "aa")]
        write_dataset(ds, pairs)
        cfg = _write_json(tmp_path / "train.json", {
            "seed": 2, "dataset": str(ds),
            "scheme": {"kind": "sequence_windows", "k": 2, "l": 1},
            "kernel": KERNEL_JSON, "lambda": 1e-5, "m": 40,
        })
        out = tmp_path / "out"
        assert run_command(["train", "--config", cfg, "--out", str(out)]) == 0
        pcfg = _write_json(tmp_path / "pred.json", {
            "model": str(out / "model.json"), "dataset": str(ds),
            "loss": "zero_one_window",
            "decoder": {"method": "exact", "budget": 16, "alphabet": "ab"},
        })
        assert run_command(["predict", "--config", pcfg, "--out", str(out)]) == 0
        preds = read_dataset(out / "predictions.jsonl")
        flipped = {x: z for (x, _), (_, z) in zip(pairs, preds)}
        assert flipped["ab"] == "ba" and flipped["bb"] == "aa"

    @pytest.mark.parametrize("decoder", [
        {"alphabet": ["ab", "c"]},
        {"alphabet": "aba"},
        {"alphabet": []},
        {"budget": 0},
    ], ids=["multi_char", "duplicate", "empty", "zero_budget"])
    def test_bad_exact_decoder_is_a_parse_error(self, tmp_path, capsys, decoder):
        ds = tmp_path / "train.jsonl"
        write_dataset(ds, [("ab", "ba"), ("ba", "ab")])
        cfg = _write_json(tmp_path / "train.json", {
            "seed": 2, "dataset": str(ds),
            "scheme": {"kind": "sequence_windows", "k": 2, "l": 1},
            "kernel": KERNEL_JSON, "lambda": 1e-3, "m": 4,
        })
        out = tmp_path / "out"
        assert run_command(["train", "--config", cfg, "--out", str(out)]) == 0
        pcfg = _write_json(tmp_path / "pred.json", {
            "model": str(out / "model.json"), "dataset": str(ds),
            "loss": "zero_one_window",
            "decoder": {"method": "exact", "budget": 16, "alphabet": "abc", **decoder},
        })
        capsys.readouterr()
        assert run_command(["predict", "--config", pcfg, "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"]["kind"] == "parse"
        assert not (out / "predictions.jsonl").exists()

    @pytest.mark.parametrize("kernel", [
        {"kind": "gaussian_global", "sigma": 1.0},
        {"kind": "sum", "universal": {"kind": "gaussian_global", "sigma": 1.0}, "local": KERNEL_JSON},
    ], ids=["gaussian_global", "sum"])
    def test_whole_input_kernels_train_on_strings(self, tmp_path, kernel):
        ds = tmp_path / "train.jsonl"
        write_dataset(ds, [("cabca", "abcab"), ("abcab", "bcabc"), ("bbcaa", "ccabb")])
        cfg = _write_json(tmp_path / "train.json", {
            "seed": 3, "dataset": str(ds),
            "scheme": {"kind": "sequence_windows", "k": 5, "l": 2},
            "kernel": kernel, "lambda": 1e-3, "m": 20,
        })
        out = tmp_path / "out"
        assert run_command(["train", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "model.json").exists()

    def test_angular_decoder_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        ds = tmp_path / "train.jsonl"
        pairs = []
        for _ in range(6):
            theta = rng.uniform(-np.pi / 2, np.pi / 2, (4, 4))
            x = np.stack([np.cos(2 * theta), np.sin(2 * theta)])
            pairs.append((x, theta))
        write_dataset(ds, pairs)
        cfg = _write_json(tmp_path / "train.json", {
            "seed": 1, "dataset": str(ds),
            "scheme": {"kind": "grid_patches", "width": 4, "height": 4,
                       "patch_w": 2, "patch_h": 2, "stride": 2, "circular": True},
            "kernel": KERNEL_JSON, "lambda": 1e-5, "m": 24,
        })
        out = tmp_path / "out"
        assert run_command(["train", "--config", cfg, "--out", str(out)]) == 0
        pcfg = _write_json(tmp_path / "pred.json", {
            "model": str(out / "model.json"), "dataset": str(ds),
            "loss": "angular_sin_sq", "decoder": {"method": "angular"},
        })
        assert run_command(["predict", "--config", pcfg, "--out", str(out)]) == 0
        preds = read_dataset(out / "predictions.jsonl")
        err = np.mean([np.sin(np.asarray(z) - y) ** 2
                       for (_, y), (_, z) in zip(pairs, preds)])
        assert err <= 0.05

    @pytest.mark.parametrize("stanza,pi", [
        ({"kind": "uniform"}, Uniform(3)),
        ({"kind": "weighted", "probs": [0.25, 0.25, 0.5]}, Weighted((0.25, 0.25, 0.5))),
    ], ids=["uniform", "weighted"])
    def test_pi_stanza_is_read(self, stanza, pi):
        doc = {**TRAIN_JSON, "dataset": "train.jsonl", "pi": stanza}
        assert config.parse_train(doc).pi == pi
        doc = {"model": "m.json", "dataset": "q.jsonl", "loss": "squared_vector",
               "decoder": {"method": "least_squares"}, "pi": stanza}
        assert config.parse_predict(doc).pi == (None if isinstance(pi, Uniform) else pi)

    def test_sgm_decoder_needs_seed(self, tmp_path, capsys):
        ds = tmp_path / "d.jsonl"
        _vector_dataset(ds, n=4)
        cfg = _write_json(tmp_path / "p.json", {
            "model": "m.json", "dataset": str(ds), "loss": "squared_vector",
            "decoder": {"method": "sgm", "iterations": 10},
        })
        rc = run_command(["predict", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["kind"] == "parse"
        assert "seed" in err["error"]["message"]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        ds = tmp_path / "d.jsonl"
        _vector_dataset(ds, n=4)
        cfg = _write_json(tmp_path / "t.json", {
            "seed": 1, "dataset": str(ds), "scheme": SCHEME_JSON,
            "kernel": KERNEL_JSON, "lambda": 0.1, "m": 10, "typo_key": 1,
        })
        rc = run_command(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert "typo_key" in err["error"]["message"]

    @pytest.mark.parametrize("base", [{"kind": "linear"}, {"kind": "gaussian", "sigma": 1.0}],
                             ids=["feature_space", "dual"])
    def test_non_finite_input_fails_without_a_model(self, tmp_path, capsys, base):
        ds = tmp_path / "d.jsonl"
        pairs = _vector_dataset(ds, n=6)
        pairs[3][0][:] = np.nan
        write_dataset(ds, pairs)
        cfg = _write_json(tmp_path / "t.json", {
            "seed": 1, "dataset": str(ds), "scheme": SCHEME_JSON,
            "kernel": {"kind": "restriction", "base": base}, "lambda": 0.1, "m": 40,
        })
        rc = run_command(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["kind"] == "non_finite"
        assert not (tmp_path / "o" / "model.json").exists()

    @pytest.mark.parametrize("query,kind", [
        (np.array([0.1, np.nan, 0.3, 0.4, 0.5, 0.6]), "non_finite"),
        (np.zeros(4), "shape"),
    ], ids=["nan", "short"])
    def test_bad_query_fails_without_predictions(self, tmp_path, capsys, query, kind):
        ds = tmp_path / "train.jsonl"
        _vector_dataset(ds, n=6)
        cfg = _write_json(tmp_path / "t.json", {
            "seed": 1, "dataset": str(ds), "scheme": SCHEME_JSON,
            "kernel": KERNEL_JSON, "lambda": 0.1, "m": 20,
        })
        out = tmp_path / "o"
        assert run_command(["train", "--config", cfg, "--out", str(out)]) == 0
        qs = tmp_path / "q.jsonl"
        write_dataset(qs, [(np.ones(6), np.ones(6)), (query, np.ones(6))])
        pcfg = _write_json(tmp_path / "p.json", {
            "model": str(out / "model.json"), "dataset": str(qs),
            "loss": "squared_vector", "decoder": {"method": "least_squares"},
        })
        capsys.readouterr()
        assert run_command(["predict", "--config", pcfg, "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"]["kind"] == kind
        assert not (out / "predictions.jsonl").exists()

    @pytest.mark.parametrize("second,kind", [
        ('{"x": [0, 0, 0, 0, 0, NaN], "y": [0, 0, 0, 0, 0, 0]}', "non_finite"),
        ('{"x": [0, 0, 0, 0, 0, 0], "y": [0, 0, 0, 0, 0, -Infinity]}', "non_finite"),
        ('{"x": [0, 0, 0, 0], "y": [0, 0, 0, 0, 0, 0]}', "shape"),
        ('{"x": [[0, 0, 0], [0, 0]], "y": [0, 0, 0, 0, 0, 0]}', "shape"),
    ], ids=["nan", "infinity", "short", "ragged"])
    def test_bad_dataset_record_names_its_line(self, tmp_path, capsys, second, kind):
        ds = tmp_path / "train.jsonl"
        ds.write_text('{"x": [1, 2, 3, 4, 5, 6], "y": [1, 2, 3, 4, 5, 6]}\n' + second + "\n")
        cfg = _write_json(tmp_path / "t.json", {
            "seed": 1, "dataset": str(ds), "scheme": SCHEME_JSON,
            "kernel": KERNEL_JSON, "lambda": 0.1, "m": 10,
        })
        assert run_command(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["kind"] == kind
        assert f"{ds}:2:" in err["error"]["message"]
        assert not (tmp_path / "o" / "model.json").exists()

    def test_missing_dataset_reports_io_error(self, tmp_path, capsys):
        cfg = _write_json(tmp_path / "t.json", {
            "seed": 1, "dataset": str(tmp_path / "nope.jsonl"), "scheme": SCHEME_JSON,
            "kernel": KERNEL_JSON, "lambda": 0.1, "m": 10,
        })
        rc = run_command(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["kind"] == "io"


TRAIN_JSON = {"seed": 1, "scheme": SCHEME_JSON, "kernel": KERNEL_JSON, "lambda": 0.1, "m": 10}
BENCH_JSON = {
    "bench-synthetic": {"seed": 3, "block_dim": 3, "num_parts": 4, "gamma": 8.0, "n_train": 12,
                        "n_test": 20, "repeats": 1, "lambda_grid": [1e-3]},
    "bench-angular": {"seed": 4, "n_train": [2], "repeats": 1, "grid_size": 8, "stride": 2,
                      "m": 16, "n_test": 2, "lambda_grid": [1e-3]},
}

# command and the change that makes its valid input bad
BAD_INPUTS = {
    "angular_unknown_key": ("predict", {"loss": "angular_sin_sq",
                                        "decoder": {"method": "angular", "bogus": 1}}),
    "least_squares_angular_loss": ("predict", {"loss": "angular_sin_sq"}),
    "least_squares_zero_one_loss": ("predict", {"loss": "zero_one_window"}),
    "exact_on_vector_blocks": ("predict", {"loss": "zero_one_window", "decoder": {
        "method": "exact", "budget": 100, "alphabet": [0, 1]}}),
    "sgm_iterations_not_a_number": ("predict", {"seed": 1, "decoder": {
        "method": "sgm", "iterations": "x"}}),
    "weighted_pi_of_wrong_length": ("train", {"pi": {"kind": "weighted", "probs": [0.5, 0.5]}}),
    "window_longer_than_sequence": ("train", {"scheme": {"kind": "sequence_windows",
                                                         "k": 2, "l": 3}}),
    "block_dim_not_a_number": ("train", {"scheme": {**SCHEME_JSON, "block_dim": "x"}}),
    "negative_sigma": ("train", {"kernel": {"kind": "restriction",
                                            "base": {"kind": "gaussian", "sigma": -1}}}),
    "lambda_not_a_number": ("train", {"lambda": "abc"}),
    "restriction_of_gaussian_global": ("train", {"kernel": {
        "kind": "restriction", "base": {"kind": "gaussian_global", "sigma": 1.0}}}),
    "part_kernel_as_pair_kernel": ("train", {"kernel": {"kind": "linear"}}),
    "sum_of_a_part_kernel": ("train", {"kernel": {"kind": "sum", "universal": {"kind": "linear"},
                                                  "local": KERNEL_JSON}}),
    "bench_synthetic_local_readout": ("bench-synthetic", {"local_readout": "bogus"}),
    "bench_angular_patch_too_big": ("bench-angular", {"patch": 40}),
    "bench_synthetic_empty_lambda_grid": ("bench-synthetic", {"lambda_grid": []}),
    "bench_synthetic_no_estimators": ("bench-synthetic", {"estimators": []}),
    "bench_angular_empty_lambda_grid": ("bench-angular", {"lambda_grid": []}),
    "bound_check_zero_gamma": ("bound-check", ["--gamma", "0", "--parts", "2"]),
    "bound_check_gamma_not_a_number": ("bound-check", ["--gamma", "abc", "--parts", "2"]),
    "bound_check_zero_parts": ("bound-check", ["--gamma", "1", "--parts", "0"]),
    "bound_check_infinite_gamma": ("bound-check", ["--gamma", "inf", "--parts", "2"]),
    "bound_check_nan_gamma_in_grid": ("bound-check", ["--gamma", "1,nan", "--parts", "2"]),
    "bound_check_nan_r2": ("bound-check", ["--gamma", "1", "--parts", "2", "--r2", "nan"]),
    "bound_check_negative_r2": ("bound-check", ["--gamma", "1", "--parts", "2", "--r2=-1"]),
    "bound_check_infinite_r2": ("bound-check", ["--gamma", "1", "--parts", "2", "--r2", "inf"]),
    "bench_angular_zero_m": ("bench-angular", {"m": 0}),
    "bench_angular_zero_n_test": ("bench-angular", {"n_test": 0}),
    "bench_angular_negative_freq_cutoff": ("bench-angular", {"freq_cutoff": -1}),
    "bench_angular_negative_input_noise": ("bench-angular", {"input_noise": -0.5}),
}

# counts must be JSON integers and flags JSON booleans: a value that would
# convert (5.9 to 5, "false" to True) is refused; the key its error names
EXACT_JSON = {"method": "exact", "budget": 100, "alphabet": [0, 1]}
SGM_JSON = {"method": "sgm", "iterations": 10}
GRID_JSON = {"kind": "grid_patches", "width": 4, "height": 4, "patch_w": 2, "patch_h": 2,
             "stride": 2}
NAN, INF = float("nan"), float("inf")  # json.dumps writes NaN and Infinity
STRICT_NUMBERS = {
    "exact_budget_float": ("predict", {"decoder": {**EXACT_JSON, "budget": 5.9}}, "budget"),
    "exact_budget_true": ("predict", {"decoder": {**EXACT_JSON, "budget": True}}, "budget"),
    "exact_budget_string": ("predict", {"decoder": {**EXACT_JSON, "budget": "1000"}}, "budget"),
    "sgm_iterations_float": ("predict", {"seed": 1, "decoder": {**SGM_JSON, "iterations": 10.7}},
                             "iterations"),
    "sgm_average_tail_string": ("predict", {"seed": 1, "decoder": {
        **SGM_JSON, "average_tail": "false"}}, "average_tail"),
    "least_squares_normalize_string": ("predict", {"decoder": {
        "method": "least_squares", "normalize": "false"}}, "normalize"),
    "sequence_k_float": ("train", {"scheme": {"kind": "sequence_windows", "k": 5.9, "l": 2}},
                         "train.scheme.k"),
    "grid_circular_string": ("train", {"scheme": {**GRID_JSON, "circular": "false"}},
                             "train.scheme.circular"),
    "block_dim_float": ("train", {"scheme": {**SCHEME_JSON, "block_dim": 2.0}},
                        "train.scheme.block_dim"),
    "bench_synthetic_num_parts_float": ("bench-synthetic", {"num_parts": 4.5}, "num_parts"),
    "bench_angular_m_float": ("bench-angular", {"m": 16.5}, "bench-angular.m"),
    # reals must be finite JSON numbers: NaN, an infinity, a boolean or a
    # numeric string is refused, as are values out of range
    "sgm_step_c_nan": ("predict", {"seed": 1, "decoder": {**SGM_JSON, "step_c": NAN}}, "step_c"),
    "sgm_step_c_negative": ("predict", {"seed": 1, "decoder": {**SGM_JSON, "step_c": -1.0}},
                            "step_c"),
    "sgm_step_c_string": ("predict", {"seed": 1, "decoder": {**SGM_JSON, "step_c": "0.5"}},
                          "step_c"),
    "box_lo_above_hi": ("predict", {"seed": 1, "decoder": {
        **SGM_JSON, "projection": {"kind": "box", "lo": 1.0, "hi": -1.0}}}, "lo <= hi"),
    "box_hi_string": ("predict", {"seed": 1, "decoder": {
        **SGM_JSON, "projection": {"kind": "box", "lo": -1.0, "hi": "1"}}}, "projection.hi"),
    "lambda_true": ("train", {"lambda": True}, "train.lambda"),
    "lambda_infinite": ("train", {"lambda": INF}, "train.lambda"),
    "sigma_infinite": ("train", {"kernel": {"kind": "restriction",
                                            "base": {"kind": "gaussian", "sigma": INF}}},
                       "train.kernel.base.sigma"),
    # finite values whose use overflows: the fit's shift m * lambda, the
    # Gaussian's 2 sigma^2
    "lambda_times_m_overflows": ("train", {"lambda": 1e308}, "train.lambda"),
    "sigma_squared_overflows": ("train", {"kernel": {"kind": "restriction",
                                                     "base": {"kind": "gaussian", "sigma": 1e308}}},
                                "train.kernel.base.sigma"),
    "global_sigma_squared_overflows": ("train", {"kernel": {"kind": "gaussian_global",
                                                            "sigma": 1e308}},
                                       "train.kernel.sigma"),
    "pi_probs_strings": ("train", {"pi": {"kind": "weighted", "probs": ["0.5", "0.25", "0.25"]}},
                         "train.pi.probs"),
    "bench_synthetic_gamma_true": ("bench-synthetic", {"gamma": True}, "bench-synthetic.gamma"),
    "bench_synthetic_noise_std_string": ("bench-synthetic", {"noise_std": "0.5"},
                                         "bench-synthetic.noise_std"),
    "bench_angular_bandwidth_infinite": ("bench-angular", {"bandwidth": INF},
                                         "bench-angular.bandwidth"),
    "bench_angular_lambda_grid_nan": ("bench-angular", {"lambda_grid": [NAN]},
                                      "bench-angular.lambda_grid"),
    "bench_angular_lambda_grid_negative": ("bench-angular", {"lambda_grid": [-1e-3]},
                                           "lambda grid"),
}
# paths must be JSON strings, and an exact alphabet a list of symbols or a
# string of single characters; the key its error names
LS_JSON = {"method": "least_squares"}
STRICT_VALUES = {
    "train_dataset_null": ("train", {"dataset": None}, "train.dataset"),
    "train_dataset_number": ("train", {"dataset": 5}, "train.dataset"),
    "predict_model_null": ("predict", {"model": None, "decoder": LS_JSON}, "predict.model"),
    "predict_model_number": ("predict", {"model": 5, "decoder": LS_JSON}, "predict.model"),
    "predict_dataset_null": ("predict", {"dataset": None, "decoder": LS_JSON}, "predict.dataset"),
    "exact_alphabet_object": ("predict", {"decoder": {**EXACT_JSON, "alphabet": {"a": 1, "b": 2}}},
                              "predict.decoder.alphabet"),
    "exact_alphabet_number": ("predict", {"decoder": {**EXACT_JSON, "alphabet": 5}},
                              "predict.decoder.alphabet"),
    "exact_alphabet_null": ("predict", {"decoder": {**EXACT_JSON, "alphabet": None}},
                            "predict.decoder.alphabet"),
    "exact_alphabet_null_symbol": ("predict", {"decoder": {**EXACT_JSON, "alphabet": [None, 1]}},
                                   "predict.decoder.alphabet"),
}
BAD_INPUTS.update({name: row[:2] for name, row in {**STRICT_NUMBERS, **STRICT_VALUES}.items()})


@pytest.fixture(scope="module")
def vector_model(tmp_path_factory):
    """A vector dataset and a model trained on it."""
    d = tmp_path_factory.mktemp("vector_model")
    ds = d / "train.jsonl"
    _vector_dataset(ds, n=6)
    cfg = _write_json(d / "train.json", {**TRAIN_JSON, "dataset": str(ds)})
    assert run_command(["train", "--config", cfg, "--out", str(d)]) == 0
    return ds, d / "model.json"


def _set(*keys, value):
    """A model-document edit that sets the value at ``keys``."""
    def edit(doc):
        for k in keys[:-1]:
            doc = doc[k]
        doc[keys[-1]] = value
    return edit


# an edit that makes a trained model document bad, and the error kind it gives
BAD_MODELS = {
    "negative_sigma": (_set("kernel", "base", "sigma", value=-1), "parse"),
    "part_kernel": (_set("kernel", value={"kind": "linear"}), "parse"),
    "zero_block_dim": (_set("scheme", "block_dim", value=0), "parse"),
    "negative_lambda": (_set("lambda", value=-1), "parse"),
    "lambda_not_a_number": (_set("lambda", value="abc"), "parse"),
    "sample_input_out_of_range": (_set("samples", 0, "chi", value=6), "parse"),
    "negative_sample_input": (_set("samples", 0, "chi", value=-1), "parse"),
    "sample_part_out_of_range": (_set("samples", 0, "p", value=3), "parse"),
    "no_samples": (_set("samples", value=[]), "parse"),
    "block_dim_float": (_set("scheme", "block_dim", value=2.0), "parse"),
    "lambda_true": (_set("lambda", value=True), "parse"),
    "lambda_nan": (_set("lambda", value=float("nan")), "parse"),
    "sigma_infinite": (_set("kernel", "base", "sigma", value=float("inf")), "parse"),
    "sigma_string": (_set("kernel", "base", "sigma", value="1.0"), "parse"),
    "sigma_squared_overflows": (_set("kernel", "base", "sigma", value=1e308), "parse"),
    "lambda_times_m_overflows": (_set("lambda", value=1e308), "parse"),
    "version_99": (_set("version", value=99), "unsupported_version"),
}


class TestBadInput:
    @pytest.mark.parametrize("edit,kind", BAD_MODELS.values(), ids=BAD_MODELS.keys())
    def test_bad_model_file_fails_before_decoding(self, tmp_path, capsys, vector_model,
                                                  edit, kind):
        ds, model = vector_model
        doc = json.loads(model.read_text())
        edit(doc)
        out = tmp_path / "out"
        cfg = _write_json(tmp_path / "p.json", {
            "model": _write_json(tmp_path / "model.json", doc), "dataset": str(ds),
            "loss": "squared_vector", "decoder": {"method": "least_squares"}})
        capsys.readouterr()
        assert run_command(["predict", "--config", cfg, "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"]["kind"] == kind
        assert not out.exists() or not any(out.iterdir())

    def test_exact_budget_below_the_models_table(self, tmp_path, capsys):
        ds = tmp_path / "train.jsonl"
        write_dataset(ds, [("abcab", "bcabc"), ("cabca", "abcab"), ("bbaac", "ccbba")])
        cfg = _write_json(tmp_path / "train.json", {
            "seed": 2, "dataset": str(ds), "scheme": {"kind": "sequence_windows", "k": 5, "l": 2},
            "kernel": KERNEL_JSON, "lambda": 1e-3, "m": 12})
        model = tmp_path / "model"
        assert run_command(["train", "--config", cfg, "--out", str(model)]) == 0
        out = tmp_path / "out"
        pcfg = _write_json(tmp_path / "pred.json", {
            "model": str(model / "model.json"), "dataset": str(ds), "loss": "zero_one_window",
            "decoder": {"method": "exact", "budget": 10, "alphabet": "abc"}})
        capsys.readouterr()
        assert run_command(["predict", "--config", pcfg, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err["kind"] == "parse"
        assert "36" in err["message"] and "10" in err["message"]  # 4 windows x 3^2 values
        assert not out.exists()

    @pytest.mark.parametrize("command,change", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
    def test_parse_error_without_artefacts(self, tmp_path, capsys, vector_model, command, change):
        ds, model = vector_model
        out = tmp_path / "out"
        if command == "bound-check":
            argv = [command, *change]
        else:
            base = {"train": {**TRAIN_JSON, "dataset": str(ds)},
                    "predict": {"model": str(model), "dataset": str(ds), "loss": "squared_vector",
                                "decoder": {"method": "least_squares"}},
                    **BENCH_JSON}[command]
            argv = [command, "--config", _write_json(tmp_path / "c.json", {**base, **change})]
        capsys.readouterr()
        assert run_command(argv + ["--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"]["kind"] == "parse"
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command,change,key", [*STRICT_NUMBERS.values(),
                                                    *STRICT_VALUES.values()],
                             ids=[*STRICT_NUMBERS, *STRICT_VALUES])
    def test_lenient_number_names_its_key(self, tmp_path, capsys, vector_model, command,
                                          change, key):
        ds, model = vector_model
        base = {"train": {**TRAIN_JSON, "dataset": str(ds)},
                "predict": {"model": str(model), "dataset": str(ds), "loss": "squared_vector"},
                **BENCH_JSON}[command]
        cfg = _write_json(tmp_path / "c.json", {**base, **change})
        capsys.readouterr()
        assert run_command([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err["kind"] == "parse" and key in err["message"]

    def test_lenient_annotate_flag_rejected(self, tmp_path, capsys):
        ds = tmp_path / "d.jsonl"
        _vector_dataset(ds, n=4, seed=2)
        cfg = _write_json(tmp_path / "diag.json", {
            "dataset": str(ds), "scheme": SCHEME_JSON, "similarity": {"kind": "raw_inner"},
            "annotate": 1})
        capsys.readouterr()
        assert run_command(["diagnose", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err["kind"] == "parse" and "diagnose.annotate" in err["message"]

    @pytest.mark.parametrize("dataset", [None, 5])
    def test_diagnose_dataset_must_be_a_string(self, tmp_path, capsys, dataset):
        cfg = _write_json(tmp_path / "diag.json", {
            "dataset": dataset, "scheme": SCHEME_JSON, "similarity": {"kind": "raw_inner"}})
        capsys.readouterr()
        assert run_command(["diagnose", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "parse" and "diagnose.dataset" in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("alphabet,symbols", [
        ("abc", ("a", "b", "c")),
        (["a", "b", "c"], ("a", "b", "c")),
        ([0, 1.5], (0, 1.5)),
    ], ids=["string", "list_of_characters", "list_of_numbers"])
    def test_exact_alphabet_forms(self, alphabet, symbols):
        doc = {"model": "m.json", "dataset": "d.jsonl", "loss": "zero_one_window",
               "decoder": {"method": "exact", "budget": 10, "alphabet": alphabet}}
        assert config.parse_predict(doc).decoder.alphabet == symbols

    def test_unknown_method_lists_the_accepted_ones(self):
        doc = {"model": "m.json", "dataset": "d.jsonl", "loss": "squared_vector",
               "decoder": {"method": "ridge"}}
        with pytest.raises(ParseError, match=re.escape(
                "predict.decoder.method: unknown method 'ridge', expected one of "
                "['least_squares', 'angular', 'exact', 'sgm']")):
            config.parse_predict(doc)


# a boolean, or an integer beyond the float range, as a JSON leaf
BAD_LEAVES = st.sampled_from([True, False, int("9" * 400), -int("9" * 400)])
LS_PREDICT = {"loss": "squared_vector", "decoder": {"method": "least_squares"}}


def _with_leaf(plain: np.ndarray, pos: int, value):
    """``plain`` as nested JSON lists, with its ``pos``-th leaf (row-major)
    set to ``value``."""
    nested = plain.tolist()
    *outer, last = np.unravel_index(pos, plain.shape)
    node = nested
    for i in outer:
        node = node[i]
    node[last] = value
    return nested


def _run_quiet(command, doc, cfg: Path):
    """Exit status and the JSON error (None on success) of ``command`` on
    config ``doc``, written to ``cfg``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = run_command([command, "--config", _write_json(cfg, doc),
                          "--out", str(cfg.parent / "out")])
    return rc, json.loads(err.getvalue())["error"] if rc else None


@pytest.fixture(scope="module")
def value_models(vector_model, tmp_path_factory):
    """Trained models whose inputs and etas nest to depths 1 to 3: the vector
    model (6-vectors, 2-vectors) and a grid model (2 x 2 x 2 two-channel
    fields, 1 x 1 patches), each with a dataset it decodes."""
    d = tmp_path_factory.mktemp("value_models")
    rng = np.random.default_rng(3)
    ds = d / "grid.jsonl"
    write_dataset(ds, [(rng.standard_normal((2, 2, 2)), rng.standard_normal((2, 2)))
                       for _ in range(4)])
    grid = {"kind": "grid_patches", "width": 2, "height": 2, "patch_w": 1, "patch_h": 1,
            "stride": 1}
    rc, err = _run_quiet("train", {**TRAIN_JSON, "scheme": grid, "dataset": str(ds)},
                         d / "train.json")
    assert rc == 0, err
    return {"vector": (vector_model[1], vector_model[0]), "grid": (d / "out" / "model.json", ds)}


class TestValueReader:
    """One reader takes every structured value: a dataset's ``x`` and ``y``
    and a model file's ``inputs`` and sample ``eta``. A boolean or an
    integer beyond the float range at any depth is refused with a named
    kind (exit 2, never 1), and the same nesting of plain numbers loads."""

    @settings(max_examples=40, deadline=None)
    @given(shape=st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple),
           key=st.sampled_from(["x", "y"]), bad=BAD_LEAVES, data=st.data())
    def test_dataset_leaf(self, vector_model, tmp_path_factory, shape, key, bad, data):
        d = tmp_path_factory.mktemp("dataset_leaf")
        plain = np.arange(math.prod(shape)).reshape(shape) + 0.5
        pos = data.draw(st.integers(0, plain.size - 1))
        record = {"x": plain.tolist(), "y": plain.tolist()}
        ds = d / "values.jsonl"
        ds.write_text(json.dumps(record) + "\n"
                      + json.dumps({**record, key: _with_leaf(plain, pos, bad)}) + "\n")
        for command, doc in (("train", {**TRAIN_JSON, "dataset": str(ds)}),
                             ("predict", {**LS_PREDICT, "model": str(vector_model[1]),
                                          "dataset": str(ds)})):
            rc, err = _run_quiet(command, doc, d / "c.json")
            assert rc == 2, err
            assert err["kind"] == ("parse" if isinstance(bad, bool) else "non_finite")
            assert f"values.jsonl:2: '{key}'" in err["message"]
        ds.write_text(json.dumps({**record, key: _with_leaf(plain, pos, 7)}) + "\n")
        (x, y), = read_dataset(ds)
        plain.flat[pos] = 7
        assert np.array_equal({"x": x, "y": y}[key], plain)

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(["vector", "grid"]), key=st.sampled_from(["inputs", "eta"]),
           bad=BAD_LEAVES, data=st.data())
    def test_model_leaf(self, value_models, tmp_path_factory, name, key, bad, data):
        d = tmp_path_factory.mktemp("model_leaf")
        model, ds = value_models[name]
        doc = json.loads(model.read_text())
        if key == "inputs":
            i = data.draw(st.integers(0, len(doc["inputs"]) - 1))
            holder, field, where = doc["inputs"], i, f"model.inputs[{i}]"
        else:
            i = data.draw(st.integers(0, len(doc["samples"]) - 1))
            holder, field, where = doc["samples"][i], "eta", f"model.samples[{i}].eta"
        plain = np.asarray(holder[field])
        pos = data.draw(st.integers(0, plain.size - 1))
        holder[field] = _with_leaf(plain, pos, bad)
        path = _write_json(d / "model.json", doc)
        rc, err = _run_quiet("predict", {**LS_PREDICT, "model": path, "dataset": str(ds)},
                             d / "c.json")
        assert rc == 2, err
        assert err["kind"] == ("parse" if isinstance(bad, bool) else "non_finite")
        assert where in err["message"]
        holder[field] = _with_leaf(plain, pos, 7)
        loaded = load_model(_write_json(d / "model.json", doc))
        plain.flat[pos] = 7
        value = loaded.inputs[i] if key == "inputs" else loaded.aux[i].eta
        assert np.array_equal(value, plain)


class TestDiagnose:
    def test_artifacts_written(self, tmp_path):
        ds = tmp_path / "d.jsonl"
        _vector_dataset(ds, n=12, seed=2)
        cfg = _write_json(tmp_path / "diag.json", {
            "dataset": str(ds), "scheme": SCHEME_JSON,
            "similarity": {"kind": "squared_kernel", "base": {"kind": "gaussian", "sigma": 1.0}},
        })
        out = tmp_path / "out"
        assert run_command(["diagnose", "--config", cfg, "--out", str(out)]) == 0
        cov = (out / "cov_map.csv").read_text().splitlines()
        assert cov[0] == "p\\q,0,1,2"
        assert len(cov) == 4
        assert (out / "cov_std_err.csv").exists()
        svg = (out / "cov_map.svg").read_text()
        assert svg.startswith("<svg") and "rect" in svg
        consts = dict(line.split(",", 1) for line in
                      (out / "locality_constants.csv").read_text().splitlines()[1:])
        assert float(consts["r_sq"]) > 0
        assert "s_hat" in consts and "q_hat" in consts

    def test_raw_inner_map_skips_constants(self, tmp_path):
        ds = tmp_path / "d.jsonl"
        _vector_dataset(ds, n=6, seed=3)
        cfg = _write_json(tmp_path / "diag.json", {
            "dataset": str(ds), "scheme": SCHEME_JSON,
            "similarity": {"kind": "raw_inner"},
        })
        out = tmp_path / "out"
        assert run_command(["diagnose", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "locality_constants.csv").read_text()
        assert "s_hat" not in text


    @pytest.mark.parametrize("pairs,scheme,extra,kind", [
        ([(np.zeros(6), np.zeros(6)), (np.ones(6), np.ones(6))], SCHEME_JSON, {},
         "insufficient_data"),
        ([("abab", "baba"), ("aabb", "bbaa"), ("abba", "baab")],
         {"kind": "sequence_windows", "k": 4, "l": 2}, {}, "unsupported"),
        ([(np.full(6, float(i)), np.zeros(6)) for i in range(10)], SCHEME_JSON,
         {"subsample_pairs": 5, "seed": 0}, "unsupported"),
    ], ids=["two_records", "strings", "fewer_pairs_than_samples"])
    def test_locality_errors_have_a_kind(self, tmp_path, capsys, pairs, scheme, extra, kind):
        ds = tmp_path / "d.jsonl"
        write_dataset(ds, pairs)
        cfg = _write_json(tmp_path / "diag.json", {
            "dataset": str(ds), "scheme": scheme, "similarity": {"kind": "raw_inner"}, **extra})
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_command(["diagnose", "--config", cfg, "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"]["kind"] == kind
        assert not out.exists()

class TestBenchCommands:
    def test_synthetic_comparison_csv(self, tmp_path):
        cfg = _write_json(tmp_path / "b.json", {
            "seed": 3, "block_dim": 3, "num_parts": 4, "gamma": [0.0, 8.0],
            "n_train": 12, "n_test": 20, "repeats": 2,
            "lambda_grid": [1e-4, 1e-1],
        })
        out = tmp_path / "out"
        assert run_command(["bench-synthetic", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "bench_synthetic.csv").read_text().splitlines()
        assert lines[0] == "estimator,n,num_parts,gamma,repeat,lambda_chosen,test_error"
        assert len(lines) == 1 + 2 * 2 * 3  # gammas x repeats x estimators
        assert (out / "bench_synthetic.svg").exists()

    def test_learning_curve_mode(self, tmp_path):
        cfg = _write_json(tmp_path / "b.json", {
            "seed": 3, "block_dim": 3, "num_parts": 4, "gamma": 8.0,
            "n_train": [8, 16], "n_test": 20, "repeats": 2,
            "lambda_grid": [1e-3], "estimators": ["local_ls"],
        })
        out = tmp_path / "out"
        assert run_command(["bench-synthetic", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "bench_synthetic.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2

    def test_angular_curve(self, tmp_path):
        cfg = _write_json(tmp_path / "b.json", {
            "seed": 4, "n_train": [2, 4], "repeats": 2, "grid_size": 8,
            "patch": 4, "stride": 2, "m": 64, "n_test": 3,
            "lambda_grid": [1e-3],
        })
        out = tmp_path / "out"
        assert run_command(["bench-angular", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "bench_angular.csv").read_text().splitlines()
        assert len(lines) == 1 + 4
        assert all(line.startswith("local_delta") for line in lines[1:])

    @pytest.mark.parametrize("command", ["bench-synthetic", "bench-angular"])
    def test_failed_cells_exit_3_after_the_csv(self, tmp_path, capsys, monkeypatch, command):
        def broken(*args, **kwargs):
            raise RuntimeError("solver down")

        if command == "bench-synthetic":
            # local_ls reads every lambda out of the lambda path's readouts
            monkeypatch.setattr("locstruct.training._LambdaPath.readouts", broken)
            doc = {"seed": 3, "block_dim": 3, "num_parts": 4, "gamma": 8.0,
                   "n_train": 12, "n_test": 20, "repeats": 2, "lambda_grid": [1e-3]}
            failed = 2  # local_ls on each repeat; the baselines do not use the path
        else:
            monkeypatch.setattr("locstruct.training._factor_system", broken)
            doc = {"seed": 4, "n_train": [2, 4], "repeats": 2, "grid_size": 8,
                   "patch": 4, "stride": 2, "m": 64, "n_test": 3, "lambda_grid": [1e-3]}
            failed = 4
        out = tmp_path / "out"
        rc = run_command([command, "--config", _write_json(tmp_path / "b.json", doc),
                          "--out", str(out)])
        assert rc == 3
        csv = out / (command.replace("-", "_") + ".csv")
        rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
        assert sum(r[5] == r[6] == "nan" for r in rows) == failed
        assert not csv.with_suffix(".svg").exists()
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert err["kind"] == "failed_cells" and err["count"] == failed

    def test_non_finite_hold_out_error_exits_3(self, tmp_path, capsys, monkeypatch):
        # a NaN hold-out error at one lambda fails the cell instead of being skipped
        monkeypatch.setattr("locstruct.bench._ridge_path",
                            lambda A, B: lambda At, Bt, grid: [1.0, float("nan")])
        doc = dict(BENCH_JSON["bench-synthetic"], repeats=2, lambda_grid=[1e-3, 1e-1])
        out = tmp_path / "out"
        rc = run_command(["bench-synthetic", "--config", _write_json(tmp_path / "b.json", doc),
                          "--out", str(out)])
        assert rc == 3
        rows = [line.split(",") for line in
                (out / "bench_synthetic.csv").read_text().splitlines()[1:]]
        failed = [r[0] for r in rows if r[5] == r[6] == "nan"]
        assert sorted(failed) == ["global_ls", "global_ls",
                                  "independent_parts_ls", "independent_parts_ls"]
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert err["kind"] == "failed_cells" and err["count"] == 4

    def test_infinite_test_error_exits_3(self, tmp_path, capsys, monkeypatch):
        # a finite hold-out, then a test error that overflows to infinity
        monkeypatch.setattr("locstruct.bench._ridge_path", lambda A, B: lambda At, Bt, grid: (
            [1.0] * len(grid) if len(grid) > 1 else [float("inf")]))
        doc = dict(BENCH_JSON["bench-synthetic"], repeats=2, lambda_grid=[1e-3, 1e-1])
        out = tmp_path / "out"
        rc = run_command(["bench-synthetic", "--config", _write_json(tmp_path / "b.json", doc),
                          "--out", str(out)])
        assert rc == 3
        rows = [line.split(",") for line in
                (out / "bench_synthetic.csv").read_text().splitlines()[1:]]
        assert sorted(r[0] for r in rows if r[5] == r[6] == "nan") == [
            "global_ls", "global_ls", "independent_parts_ls", "independent_parts_ls"]
        assert not (out / "bench_synthetic.svg").exists()

    def test_unknown_estimator_rejected(self, tmp_path, capsys):
        cfg = _write_json(tmp_path / "b.json", {
            "seed": 3, "block_dim": 3, "num_parts": 4, "gamma": 8.0, "n_train": 12,
            "n_test": 20, "repeats": 1, "estimators": ["local_delta"],
        })
        assert run_command(["bench-synthetic", "--config", cfg, "--out",
                            str(tmp_path / "out")]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "parse"

    def test_lambda_overflowing_at_the_largest_n_train_is_refused(self, tmp_path, capsys):
        # m = n_train * num_parts: 32 * lam is finite, 64 * lam is not, so
        # only the n_train = 16 cells would overflow
        lam = sys.float_info.max / 40
        doc = {"seed": 3, "block_dim": 3, "num_parts": 4, "gamma": 8.0, "n_train": [8, 16],
               "n_test": 20, "repeats": 1, "lambda_grid": [1e-3, lam], "estimators": ["local_ls"]}
        out = tmp_path / "out"
        assert run_command(["bench-synthetic", "--config", _write_json(tmp_path / "b.json", doc),
                            "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "parse" and "bench-synthetic.lambda_grid" in err["message"]
        assert "m=64" in err["message"] and not out.exists()
        doc["n_train"] = [8]
        assert run_command(["bench-synthetic", "--config", _write_json(tmp_path / "b.json", doc),
                            "--out", str(out)]) == 0

    def test_baselines_check_lambda_against_n_train(self, tmp_path, capsys):
        # the baselines shift by n_train * lam; only local_ls fits
        # n_train * num_parts anchors, so lam passes without it
        lam = sys.float_info.max / 40
        doc = {"seed": 3, "block_dim": 3, "num_parts": 4, "gamma": 8.0, "n_train": 16,
               "n_test": 20, "repeats": 1, "lambda_grid": [1e-3, lam],
               "estimators": ["global_ls", "independent_parts_ls"]}
        out = tmp_path / "out"
        assert run_command(["bench-synthetic", "--config", _write_json(tmp_path / "b.json", doc),
                            "--out", str(out)]) == 0
        doc["estimators"].append("local_ls")
        assert run_command(["bench-synthetic", "--config", _write_json(tmp_path / "b.json", doc),
                            "--out", str(tmp_path / "out2")]) == 2
        assert "m=64" in json.loads(capsys.readouterr().err)["error"]["message"]

    def test_angular_lambda_whose_shift_overflows_is_refused(self, tmp_path, capsys):
        doc = dict(BENCH_JSON["bench-angular"], lambda_grid=[1e-3, sys.float_info.max / 10])
        out = tmp_path / "out"
        assert run_command(["bench-angular", "--config", _write_json(tmp_path / "b.json", doc),
                            "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "parse" and "bench-angular.lambda_grid" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("parts", [[2, 4], 4])
    def test_one_series_per_estimator_and_part_count(self, tmp_path, monkeypatch, parts):
        drawn = {}
        monkeypatch.setattr("locstruct.cli.line_plot", lambda path, series, **kw:
                            drawn.update(series))
        doc = {"seed": 3, "block_dim": 2, "num_parts": parts, "gamma": [0.0, 8.0],
               "n_train": 8, "n_test": 10, "repeats": 3, "lambda_grid": [1e-3, 1e-1]}
        out = tmp_path / "out"
        assert run_command(["bench-synthetic", "--config", _write_json(tmp_path / "b.json", doc),
                            "--out", str(out)]) == 0
        rows = [line.split(",") for line in
                (out / "bench_synthetic.csv").read_text().splitlines()[1:]]
        expected = {}
        for est in LS_ESTIMATORS:
            for P in parts if isinstance(parts, list) else [parts]:
                label = f"{est} P={P}" if isinstance(parts, list) else est
                expected[label] = ([0.0, 8.0], [
                    float(np.median([float(r[6]) for r in rows if (r[0], r[2], r[3]) ==
                                     (est, str(P), repr(g))])) for g in (0.0, 8.0)])
        assert drawn == expected

    @pytest.mark.parametrize("gamma", [1e17, 1e308])
    def test_one_huge_gamma_is_plotted(self, tmp_path, gamma):
        # the plot's x axis holds the one gamma: its span must be wide enough
        # for the tick loop's steps to advance at that magnitude
        ax = svgplot._Axis(gamma, gamma, 0, 1, log=False)
        assert ax.lo < ax.hi < math.inf and math.ulp(ax.hi) < (ax.hi - ax.lo) / 100
        doc = dict(BENCH_JSON["bench-synthetic"], gamma=gamma)
        out = tmp_path / "out"
        assert run_command(["bench-synthetic", "--config", _write_json(tmp_path / "b.json", doc),
                            "--out", str(out)]) == 0
        assert "<polyline" in (out / "bench_synthetic.svg").read_text()


    @pytest.mark.parametrize("ys", [[5e307, 6e307], [1e308, 1e308]], ids=["span", "one_value"])
    def test_near_limit_log_axis_is_plotted(self, tmp_path, ys):
        # a log axis widens to ten times its least value, which overflows here
        svgplot.line_plot(tmp_path / "p.svg", {"a": ([1, 2], ys)}, logy=True)
        assert "<polyline" in (tmp_path / "p.svg").read_text()


class TestBoundCheck:
    def test_hand_value_table(self, tmp_path, capsys):
        rc = run_command(["bound-check", "--gamma", "0.6931471805599453", "--parts", "2",
                          "--r2", "1", "--out", str(tmp_path / "o")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "s_exact=1.5" in out and "s_bound=4" in out and "holds=true" in out
        csv = (tmp_path / "o" / "bound_check.csv").read_text().splitlines()
        assert csv[0] == "gamma,num_parts,r_sq,s_exact,s_bound,holds"
        assert len(csv) == 2

    def test_grid_arguments(self, capsys):
        rc = run_command(["bound-check", "--gamma", "0.5,1.0", "--parts", "2,4"])
        assert rc == 0
        assert len(capsys.readouterr().out.splitlines()) == 4

    def test_rerun_byte_identical(self, tmp_path):
        for d in ("a", "b"):
            run_command(["bound-check", "--gamma", "1.25", "--parts", "3,9",
                         "--out", str(tmp_path / d)])
        assert ((tmp_path / "a" / "bound_check.csv").read_bytes()
                == (tmp_path / "b" / "bound_check.csv").read_bytes())


class TestParserCache:
    """The parser is built once per process; every call still parses into a
    namespace of its own and keeps the exit codes of argparse."""

    def test_calls_get_independent_namespaces(self, monkeypatch, capsys):
        from locstruct import cli

        seen = []
        for command in ("train", "bound-check"):
            monkeypatch.setitem(cli._DISPATCH, command, lambda args: seen.append(args) or 0)
        assert run_command(["train", "--config", "a.json", "--seed", "3"]) == 0
        assert run_command(["bound-check", "--gamma", "0.5", "--parts", "4"]) == 0
        assert run_command(["train", "--config", "b.json"]) == 0
        first, second, third = seen
        assert vars(first) == {"command": "train", "config": "a.json", "seed": 3, "out": "out"}
        assert vars(second) == {"command": "bound-check", "gamma": "0.5", "parts": "4",
                                "r2": 1.0, "out": None}
        assert vars(third) == {"command": "train", "config": "b.json", "seed": None, "out": "out"}
        assert cli._build_parser() is cli._build_parser()

        assert run_command(["train"]) == 2  # --config missing
        assert run_command(["train", "--config", "a.json", "--seed", "x"]) == 2
        assert run_command(["no-such-command"]) == 2
        assert run_command(["--help"]) == 0
        assert run_command(["predict", "--help"]) == 0
        assert "usage: locstruct predict" in capsys.readouterr().out
        assert len(seen) == 3



README = Path(__file__).resolve().parents[1] / "README.md"
# the config file each README example is named after, and its parser
README_PARSERS = {"train.json": config.parse_train, "predict.json": config.parse_predict,
                  "diagnose.json": config.parse_diagnose,
                  "bench.json": config.parse_bench_synthetic,
                  "angular.json": config.parse_bench_angular}


def _readme_configs():
    """Every JSON block of README.md under an ``Example `<name>.json`:``
    line, as (name, text)."""
    return re.findall(r"^Example `([\w-]+\.json)`:\n\n```json\n(.*?)^```", README.read_text(),
                      re.M | re.S)


class TestReadmeExamples:
    """The config examples of README.md parse, so a renamed or removed key
    fails here instead of leaving the docs stale."""

    def test_every_json_block_is_a_named_config(self):
        names = [name for name, _ in _readme_configs()]
        assert len(names) == len(re.findall(r"^```json$", README.read_text(), re.M))
        assert {"train.json", "predict.json"} <= set(names) <= README_PARSERS.keys()

    @pytest.mark.parametrize("name,text", [pytest.param(n, t, id=n) for n, t in _readme_configs()])
    def test_config_example_parses(self, name, text):
        README_PARSERS[name](json.loads(text))


def test_cli_import_leaves_scipy_out():
    """``locstruct.training`` imports ``scipy.linalg`` at the first factor or
    solve, so a command that fits nothing never loads it."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, locstruct.cli; print('scipy.linalg' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# each README config leaf is set in turn to each of these
SWEEP_VALUES = [True, "x", None, [], {}, -1, 0.5, 1e308]
README_COMMANDS = {"train.json": "train", "predict.json": "predict", "diagnose.json": "diagnose",
                   "bench.json": "bench-synthetic", "angular.json": "bench-angular"}


def _leaves(doc, path=()):
    """The key path of every scalar, empty list or empty object in ``doc``."""
    for key, v in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        if isinstance(v, (dict, list)) and v:
            yield from _leaves(v, path + (key,))
        else:
            yield path + (key,)


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


class TestConfigSweep:
    """Every leaf of every README config example, set in turn to each of
    ``SWEEP_VALUES``, either runs (exit 0), is refused with a named error
    kind (exit 2) and writes no file, or fails its cells (exit 3); never an
    error no kind names (exit 1). A ``lambda_grid`` entry of 1e308, whose
    shift ``m * lambda`` overflows, exits 2. ``predict`` loads and decodes
    with every model that a swept ``train`` writes."""

    def test_every_leaf_value_exits_cleanly(self, tmp_path, capsys):
        ds = tmp_path / "train.jsonl"
        _vector_dataset(ds, n=12, seed=5)
        docs = {README_COMMANDS[name]: json.loads(text) for name, text in _readme_configs()}
        docs["train"]["dataset"] = docs["diagnose"]["dataset"] = str(ds)
        docs["predict"]["dataset"] = str(ds)
        model = tmp_path / "model"
        assert run_command(["train", "--config", _write_json(tmp_path / "t.json", docs["train"]),
                            "--out", str(model)]) == 0
        docs["predict"]["model"] = str(model / "model.json")
        runs = 0

        def run(command, doc):
            nonlocal runs
            runs += 1
            out = tmp_path / f"run{runs}"
            capsys.readouterr()
            rc = run_command([command, "--config", _write_json(tmp_path / "c.json", doc),
                              "--out", str(out)])
            return rc, out, capsys.readouterr().err

        for command, doc in docs.items():  # the examples as written run
            assert run(command, doc)[0] == 0, command
        bad = []
        for command, doc in docs.items():
            for path in _leaves(doc):
                for value in SWEEP_VALUES:
                    rc, out, err = run(command, _replaced(doc, path, value))
                    if rc not in (0, 2, 3) or rc == 2 and out.exists():
                        bad.append((command, path, value, rc, err))
                    # a lambda_grid entry whose m * lambda overflows is refused at read
                    if "lambda_grid" in path and value == 1e308 and rc != 2:
                        bad.append((command, path, value, rc, err))
                    if command == "train" and rc == 0:
                        rc, _, err = run("predict", {**docs["predict"],
                                                     "model": str(out / "model.json")})
                        if rc != 0:
                            bad.append(("predict", path, value, rc, err))
        assert not bad
