import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from locstruct import config
from locstruct.cli import run_command
from locstruct.modelio import read_dataset, write_dataset


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
BAD_INPUTS.update({name: row[:2] for name, row in STRICT_NUMBERS.items()})


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

    @pytest.mark.parametrize("command,change,key", STRICT_NUMBERS.values(),
                             ids=STRICT_NUMBERS.keys())
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

    def test_unknown_estimator_rejected(self, tmp_path, capsys):
        cfg = _write_json(tmp_path / "b.json", {
            "seed": 3, "block_dim": 3, "num_parts": 4, "gamma": 8.0, "n_train": 12,
            "n_test": 20, "repeats": 1, "estimators": ["local_delta"],
        })
        assert run_command(["bench-synthetic", "--config", cfg, "--out",
                            str(tmp_path / "out")]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "parse"


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
