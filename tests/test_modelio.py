import json

import numpy as np
import pytest

from locstruct.kernels import GaussianGlobal, GaussianParts, LinearParts, Restriction, SumKernel
from locstruct.modelio import (
    ParseError,
    UnsupportedVersionError,
    kernel_from_json,
    kernel_to_json,
    load_model,
    read_dataset,
    save_model,
    scheme_from_json,
    scheme_to_json,
    write_dataset,
)
from locstruct.parts import (
    GridPatches,
    NonFiniteError,
    SequenceWindows,
    ShapeMismatchError,
    Uniform,
    VectorBlocks,
)
from locstruct.training import alpha_at, fit_alpha, generate_auxiliary, AuxiliarySample

SCHEME = VectorBlocks(block_dim=2, num_blocks=3)
GAUSS = Restriction(GaussianParts(1.0))


class TestCodecs:
    @pytest.mark.parametrize("scheme", [
        SequenceWindows(5, 2),
        VectorBlocks(3, 4),
        GridPatches(width=8, height=8, patch_w=4, patch_h=4, stride=2, circular=True),
    ])
    def test_scheme_round_trip(self, scheme):
        assert scheme_from_json(scheme_to_json(scheme)) == scheme

    @pytest.mark.parametrize("kernel", [
        LinearParts(),
        GaussianParts(0.3),
        Restriction(GaussianParts(2.0)),
        GaussianGlobal(1.5),
        SumKernel(GaussianGlobal(1.0), Restriction(LinearParts())),
    ])
    def test_kernel_round_trip(self, kernel):
        assert kernel_from_json(kernel_to_json(kernel)) == kernel

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParseError):
            scheme_from_json({"kind": "rings", "n": 3})
        with pytest.raises(ParseError):
            kernel_from_json({"kind": "polynomial", "degree": 2})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ParseError, match="unknown keys"):
            scheme_from_json({"kind": "vector_blocks", "block_dim": 2, "num_blocks": 3, "pad": 1})

    def test_unknown_kind_lists_the_accepted_kinds(self):
        with pytest.raises(ParseError, match=r"^scheme\.kind: unknown kind 'rings', expected one "
                                             r"of \['sequence_windows', 'vector_blocks', "
                                             r"'grid_patches'\]$"):
            scheme_from_json({"kind": "rings"})
        with pytest.raises(ParseError, match=r"unknown kind 'linear', expected one of "
                                             r"\['restriction', 'gaussian_global', 'sum'\]"):
            kernel_from_json({"kind": "sum", "universal": {"kind": "linear"},
                              "local": {"kind": "gaussian_global", "sigma": 1.0}})


class TestDataset:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.jsonl"
        rng = np.random.default_rng(0)
        pairs = [(rng.standard_normal(4), rng.standard_normal(4)) for _ in range(5)]
        pairs.append(("abcd", "dcba"))
        write_dataset(path, pairs)
        back = read_dataset(path)
        assert len(back) == 6
        for (x, y), (x2, y2) in zip(pairs, back):
            if isinstance(x, str):
                assert x2 == x and y2 == y
            else:
                assert np.array_equal(x2, x) and np.array_equal(y2, y)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"x": [1, 2], "y": [1, 2]}\n{"x": [1, 2], "y": oops}\n')
        with pytest.raises(ParseError, match=":2:"):
            read_dataset(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"x": [1], "y": [1], "z": 0}\n')
        with pytest.raises(ParseError, match="unknown keys"):
            read_dataset(path)

    def test_missing_y_rejected_when_required(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"x": [1]}\n')
        with pytest.raises(ParseError, match="missing 'y'"):
            read_dataset(path)
        assert read_dataset(path, require_y=False)[0][1] is None

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
    @pytest.mark.parametrize("key", ["x", "y"])
    def test_non_finite_value_names_its_line(self, tmp_path, token, key):
        path = tmp_path / "bad.jsonl"
        fields = {"x": "[1, 2]", "y": "[3, 4]"}
        fields[key] = f"[1, {token}]"
        path.write_text('{"x": [1, 2], "y": [3, 4]}\n'
                        f'{{"x": {fields["x"]}, "y": {fields["y"]}}}\n')
        with pytest.raises(NonFiniteError, match=f"bad.jsonl:2: '{key}'"):
            read_dataset(path)

    @pytest.mark.parametrize("first,second", [
        ('{"x": [1, 2], "y": [3, 4]}', '{"x": [1, 2, 3], "y": [3, 4]}'),
        ('{"x": [1, 2], "y": [3, 4]}', '{"x": [1, 2], "y": [[3, 4]]}'),
        ('{"x": "ab", "y": "ab"}', '{"x": "ab", "y": "abc"}'),
    ], ids=["x_length", "y_rank", "string_length"])
    def test_shape_differing_from_the_first_record_names_its_line(self, tmp_path, first, second):
        path = tmp_path / "bad.jsonl"
        path.write_text(f"{first}\n\n{second}\n")
        with pytest.raises(ShapeMismatchError, match="bad.jsonl:3:"):
            read_dataset(path)

    def test_ragged_array_is_a_shape_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"x": [[1, 2], [3]], "y": [1]}\n')
        with pytest.raises(ShapeMismatchError, match="bad.jsonl:1: 'x' is a ragged array"):
            read_dataset(path)

    @pytest.mark.parametrize("value", ['["a", 1]', '{"a": 1}', '[[1], ["b"]]'])
    def test_non_numeric_array_is_a_parse_error(self, tmp_path, value):
        path = tmp_path / "bad.jsonl"
        path.write_text(f'{{"x": {value}, "y": [1]}}\n')
        with pytest.raises(ParseError, match="bad.jsonl:1: 'x'"):
            read_dataset(path)

    def test_empty_dataset_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n")
        with pytest.raises(ParseError):
            read_dataset(path)


class TestModelRoundTrip:
    def test_toy_model_weight_preserved(self, tmp_path):
        x = np.zeros(6)
        aux = [AuxiliarySample(0, 0, np.zeros(2))]
        model = fit_alpha([x], aux, GAUSS, 1.0, SCHEME)
        save_model(model, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        assert alpha_at(model, x, 0)[0] == pytest.approx(0.5)
        assert alpha_at(loaded, x, 0)[0] == pytest.approx(0.5)

    def test_larger_model_weights_match_closely(self, tmp_path):
        rng = np.random.default_rng(1)
        train = [(rng.standard_normal(6), rng.standard_normal(6)) for _ in range(20)]
        aux = generate_auxiliary(train, 200, SCHEME, Uniform(3), rng)
        model = fit_alpha([x for x, _ in train], aux, GAUSS, 1e-3, SCHEME)
        save_model(model, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        worst = 0.0
        for _ in range(50):
            q = rng.standard_normal(6)
            p = int(rng.integers(3))
            worst = max(worst, np.max(np.abs(alpha_at(model, q, p) - alpha_at(loaded, q, p))))
        assert worst <= 1e-10

    def test_string_model_round_trip(self, tmp_path):
        scheme = SequenceWindows(4, 2)
        train = [("abab", "baba"), ("aabb", "bbaa")]
        aux = [AuxiliarySample(i, p, train[i][1][p:p + 2]) for i in range(2) for p in range(3)]
        model = fit_alpha([x for x, _ in train], aux, Restriction(GaussianParts(1.0)), 0.1, scheme)
        save_model(model, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        assert np.allclose(alpha_at(loaded, "abab", 1), alpha_at(model, "abab", 1), atol=1e-12)

    def test_truncated_file_rejected(self, tmp_path):
        x = np.zeros(6)
        aux = [AuxiliarySample(0, 0, np.zeros(2))]
        model = fit_alpha([x], aux, GAUSS, 1.0, SCHEME)
        save_model(model, tmp_path / "m.json")
        text = (tmp_path / "m.json").read_text()
        (tmp_path / "broken.json").write_text(text[: len(text) // 2])
        with pytest.raises(ParseError):
            load_model(tmp_path / "broken.json")

    @pytest.mark.parametrize("sample,message", [
        ({"chi": 0, "p": 3, "eta": [0.0, 0.0]},
         r"samples\[1\]\.p: expected an integer in \[0, 3\)"),
        ({"chi": True, "p": 0, "eta": [0.0, 0.0]}, r"samples\[1\]\.chi: expected an integer"),
        ({"chi": 0, "p": 0}, r"samples\[1\]: missing keys \['eta'\]"),
        ([0, 0, [0.0, 0.0]], r"samples\[1\]: expected an object"),
    ], ids=["part_out_of_range", "boolean_input", "no_eta", "not_an_object"])
    def test_bad_sample_is_named(self, tmp_path, sample, message):
        aux = [AuxiliarySample(0, p, np.zeros(2)) for p in range(3)]
        save_model(fit_alpha([np.zeros(6)], aux, GAUSS, 1.0, SCHEME), tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        doc["samples"][1] = sample
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=message):
            load_model(tmp_path / "m.json")

    def test_version_mismatch_rejected(self, tmp_path):
        x = np.zeros(6)
        aux = [AuxiliarySample(0, 0, np.zeros(2))]
        model = fit_alpha([x], aux, GAUSS, 1.0, SCHEME)
        save_model(model, tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        doc["version"] = 99
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(UnsupportedVersionError):
            load_model(tmp_path / "m.json")
