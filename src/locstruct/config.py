"""Strict parsing of command configuration files.

One JSON document per command. Unknown keys are rejected with the offending
key path, required keys are checked up front, and every stochastic command
must carry a master seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .bench import (
    DEFAULT_LAMBDA_GRID,
    LS_ESTIMATORS,
    AngularConfig,
    SyntheticConfig,
)
from .decoder import AngleWrap, BoxProjection, ClosedForm, ExactEnumeration, SGM
from .kernels import GaussianParts, LinearParts
from .locality import RawInner, SquaredKernel
from .losses import BY_NAME as LOSSES_BY_NAME
from .modelio import kernel_from_json, scheme_from_json


class ConfigError(ValueError):
    """Invalid configuration; the message names the key path."""


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"{path}: cannot read config ({e.strerror})") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}: invalid JSON ({e.msg})") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return doc


def _check(doc, required, optional, name):
    unknown = set(doc) - required - optional
    if unknown:
        raise ConfigError(f"{name}: unknown keys {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"{name}: missing keys {sorted(missing)}")


def _positive_int(doc, key, name):
    v = doc[key]
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise ConfigError(f"{name}.{key}: expected a positive integer")
    return v


def _seed(doc, name):
    v = doc["seed"]
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise ConfigError(f"{name}.seed: expected a nonnegative integer")
    return v


# ---------------------------------------------------------------------------
# Per-command configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    seed: int
    dataset: str
    scheme: object
    kernel: object
    lam: float
    m: int
    pi: Optional[dict]


def parse_train(doc: dict) -> TrainConfig:
    _check(doc, {"seed", "dataset", "scheme", "kernel", "lambda", "m"}, {"pi"}, "train")
    lam = float(doc["lambda"])
    if lam <= 0:
        raise ConfigError("train.lambda: must be positive")
    return TrainConfig(
        seed=_seed(doc, "train"),
        dataset=str(doc["dataset"]),
        scheme=scheme_from_json(doc["scheme"]),
        kernel=kernel_from_json(doc["kernel"]),
        lam=lam,
        m=_positive_int(doc, "m", "train"),
        pi=doc.get("pi"),
    )


@dataclass(frozen=True)
class PredictConfig:
    model: str
    dataset: str
    loss: object
    method_spec: dict
    seed: Optional[int]
    pi: Optional[dict]


def parse_predict(doc: dict) -> PredictConfig:
    _check(doc, {"model", "dataset", "loss", "decoder"}, {"seed", "pi"}, "predict")
    loss_name = doc["loss"]
    if loss_name not in LOSSES_BY_NAME:
        raise ConfigError(f"predict.loss: unknown loss {loss_name!r}")
    method = doc["decoder"]
    if not isinstance(method, dict) or "method" not in method:
        raise ConfigError("predict.decoder: expected an object with a 'method' key")
    seed = _seed(doc, "predict") if "seed" in doc else None
    if method["method"] == "sgm" and seed is None:
        raise ConfigError("predict.seed: required for the sgm decoder")
    return PredictConfig(
        model=str(doc["model"]),
        dataset=str(doc["dataset"]),
        loss=LOSSES_BY_NAME[loss_name],
        method_spec=method,
        seed=seed,
        pi=doc.get("pi"),
    )


def build_method(spec: dict, rng=None):
    """Decoder method object from its config stanza."""
    kind = spec["method"]
    if kind == "least_squares":
        _check(spec, {"method"}, {"normalize"}, "decoder")
        return ClosedForm(normalize=bool(spec.get("normalize", True)))
    if kind == "angular":
        _check(spec, {"method"}, set(), "decoder")
        return ClosedForm()
    if kind == "exact":
        _check(spec, {"method", "budget", "alphabet"}, set(), "decoder")
        try:
            return ExactEnumeration(budget=int(spec["budget"]), alphabet=tuple(spec["alphabet"]))
        except (TypeError, ValueError) as e:
            raise ConfigError(f"decoder: {e}") from None
    if kind == "sgm":
        _check(spec, {"method", "iterations"}, {"step_c", "projection", "average_tail"}, "decoder")
        proj = None
        pspec = spec.get("projection")
        if pspec is not None:
            pkind = pspec.get("kind")
            if pkind == "box":
                _check(pspec, {"kind", "lo", "hi"}, set(), "decoder.projection")
                proj = BoxProjection(lo=float(pspec["lo"]), hi=float(pspec["hi"]))
            elif pkind == "angle_wrap":
                _check(pspec, {"kind"}, set(), "decoder.projection")
                proj = AngleWrap()
            else:
                raise ConfigError(f"decoder.projection.kind: unknown kind {pkind!r}")
        return SGM(
            iterations=int(spec["iterations"]),
            rng=rng,
            step_c=float(spec["step_c"]) if "step_c" in spec else None,
            projection=proj,
            average_tail=bool(spec.get("average_tail", True)),
        )
    raise ConfigError(f"decoder.method: unknown method {kind!r}")


@dataclass(frozen=True)
class DiagnoseConfig:
    dataset: str
    scheme: object
    similarity: object
    annotate: bool
    subsample_pairs: Optional[int] = None
    seed: Optional[int] = None


def parse_diagnose(doc: dict) -> DiagnoseConfig:
    _check(doc, {"dataset", "scheme", "similarity"},
           {"annotate", "subsample_pairs", "seed"}, "diagnose")
    subsample = doc.get("subsample_pairs")
    if subsample is not None:
        subsample = _positive_int(doc, "subsample_pairs", "diagnose")
        if "seed" not in doc:
            raise ConfigError("diagnose.seed: required when subsample_pairs is set")
    sim_spec = doc["similarity"]
    if not isinstance(sim_spec, dict) or "kind" not in sim_spec:
        raise ConfigError("diagnose.similarity: expected an object with a 'kind' key")
    if sim_spec["kind"] == "raw_inner":
        _check(sim_spec, {"kind"}, set(), "diagnose.similarity")
        sim = RawInner()
    elif sim_spec["kind"] == "squared_kernel":
        _check(sim_spec, {"kind", "base"}, set(), "diagnose.similarity")
        base = kernel_from_json(sim_spec["base"], "diagnose.similarity.base")
        if not isinstance(base, (LinearParts, GaussianParts)):
            raise ConfigError("diagnose.similarity.base: must be a part kernel")
        sim = SquaredKernel(base)
    else:
        raise ConfigError(f"diagnose.similarity.kind: unknown kind {sim_spec['kind']!r}")
    return DiagnoseConfig(
        dataset=str(doc["dataset"]),
        scheme=scheme_from_json(doc["scheme"]),
        similarity=sim,
        annotate=bool(doc.get("annotate", False)),
        subsample_pairs=subsample,
        seed=_seed(doc, "diagnose") if "seed" in doc else None,
    )


@dataclass(frozen=True)
class BenchSyntheticConfig:
    seed: int
    block_dim: int
    num_parts: tuple
    gamma: tuple
    n_train: tuple
    learning_curve: bool
    n_test: int
    noise_std: float
    repeats: int
    lambda_grid: tuple
    estimators: tuple
    local_readout: str

    def cell(self, num_parts: int, gamma: float, n_train: int) -> SyntheticConfig:
        return SyntheticConfig(
            num_parts=num_parts, block_dim=self.block_dim, gamma=gamma,
            n_train=n_train, n_test=self.n_test, noise_std=self.noise_std,
            seed=self.seed, lambda_grid=self.lambda_grid,
            estimators=self.estimators, local_readout=self.local_readout,
        )


def _as_tuple(v, name, kind=float):
    vals = v if isinstance(v, list) else [v]
    if not vals:
        raise ConfigError(f"{name}: must not be empty")
    return tuple(kind(x) for x in vals)


def parse_bench_synthetic(doc: dict) -> BenchSyntheticConfig:
    _check(doc, {"seed", "block_dim", "num_parts", "gamma", "n_train", "n_test", "repeats"},
           {"noise_std", "lambda_grid", "estimators", "local_readout"}, "bench-synthetic")
    estimators = tuple(doc.get("estimators", LS_ESTIMATORS))
    bad = set(estimators) - set(LS_ESTIMATORS)
    if bad:
        raise ConfigError(f"bench-synthetic.estimators: unknown estimators {sorted(bad)}")
    n_train = _as_tuple(doc["n_train"], "bench-synthetic.n_train", int)
    learning_curve = isinstance(doc["n_train"], list)
    num_parts = _as_tuple(doc["num_parts"], "bench-synthetic.num_parts", int)
    gamma = _as_tuple(doc["gamma"], "bench-synthetic.gamma", float)
    if learning_curve and (len(num_parts) > 1 or len(gamma) > 1):
        raise ConfigError("bench-synthetic: an n_train grid needs scalar num_parts and gamma")
    return BenchSyntheticConfig(
        seed=_seed(doc, "bench-synthetic"),
        block_dim=_positive_int(doc, "block_dim", "bench-synthetic"),
        num_parts=num_parts,
        gamma=gamma,
        n_train=n_train,
        learning_curve=learning_curve,
        n_test=_positive_int(doc, "n_test", "bench-synthetic"),
        noise_std=float(doc.get("noise_std", 0.5)),
        repeats=_positive_int(doc, "repeats", "bench-synthetic"),
        lambda_grid=tuple(float(v) for v in doc.get("lambda_grid", DEFAULT_LAMBDA_GRID)),
        estimators=estimators,
        local_readout=str(doc.get("local_readout", "mean")),
    )


def parse_bench_angular(doc: dict) -> tuple[AngularConfig, tuple, int]:
    _check(doc, {"seed", "n_train", "repeats"},
           {"grid_size", "patch", "stride", "bandwidth", "m", "n_test",
            "input_noise", "freq_cutoff", "lambda_grid"}, "bench-angular")
    n_grid = _as_tuple(doc["n_train"], "bench-angular.n_train", int)
    kwargs = {}
    for key, conv in (("grid_size", int), ("patch", int), ("stride", int),
                      ("bandwidth", float), ("m", int), ("n_test", int),
                      ("input_noise", float), ("freq_cutoff", int)):
        if key in doc:
            kwargs[key] = conv(doc[key])
    if "lambda_grid" in doc:
        kwargs["lambda_grid"] = tuple(float(v) for v in doc["lambda_grid"])
    cfg = AngularConfig(seed=_seed(doc, "bench-angular"), **kwargs)
    return cfg, n_grid, _positive_int(doc, "repeats", "bench-angular")
