"""Strict parsing of command configurations.

Each command's JSON document becomes finished library objects when it is
parsed: the scheme, kernel, part distribution, loss and decoder method, or a
study's configuration, so a command only runs them. Unknown keys are rejected
with the offending key path, required keys are checked up front, the decoder
is checked against the loss, and every stochastic command must carry a
master seed. Every bad value is a ``ParseError`` naming its key path, raised
before the command reads a dataset or writes a file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product
from typing import Optional

from .bench import AngularConfig, SyntheticConfig
from .decoder import SGM, AngleWrap, BoxProjection, ClosedForm, ExactEnumeration
from .kernels import KernelSpec, PartKernel
from .locality import RawInner, SquaredKernel
from .losses import ANGULAR_SIN_SQ, SQUARED_VECTOR, ZERO_ONE_WINDOW, LossSpec
from .losses import BY_NAME as LOSSES_BY_NAME
from .modelio import (ParseError, _at, _check_keys, _flag, _get, _int, _integer, _lambda, _real,
                      _reals, kernel_from_json, pi_from_json, scheme_from_json)
from .parts import PartDistribution, PartScheme, Uniform, Weighted


def _decode(codec, doc, key, name, *args):
    """``codec(doc[key], *args, path)``: a stanza read by a ``modelio`` codec."""
    path = f"{name}.{key}"
    with _at(path):
        return codec(doc[key], *args, path)


def _values(v, kind) -> tuple:
    """A grid: a list, or one scalar, of ``kind`` values."""
    vals = tuple(kind(x) for x in (v if isinstance(v, list) else [v]))
    if not vals:
        raise ValueError("must not be empty")
    return vals


def _fields(doc, convs, name) -> dict:
    """The optional keys of ``convs`` present in ``doc``, each converted."""
    out = {}
    for key, conv in convs.items():
        if key in doc:
            with _at(f"{name}.{key}"):
                out[key] = conv(doc[key])
    return out


def _n_grid(doc, name) -> tuple:
    with _at(f"{name}.n_train"):
        grid = _values(doc["n_train"], _integer)
    if grid[0] < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ParseError(f"{name}.n_train: expected ascending sizes >= 1")
    return grid


# ---------------------------------------------------------------------------
# Per-command configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    seed: int
    dataset: str
    scheme: PartScheme
    kernel: KernelSpec
    lam: float
    m: int
    pi: PartDistribution


def parse_train(doc: dict) -> TrainConfig:
    _check_keys(doc, {"seed", "dataset", "scheme", "kernel", "lambda", "m", "pi"}, "train",
                optional={"pi"})
    scheme = _decode(scheme_from_json, doc, "scheme", "train")
    kernel = _decode(kernel_from_json, doc, "kernel", "train")
    if not isinstance(kernel, KernelSpec):
        raise ParseError("train.kernel: expected a restriction, gaussian_global or sum kernel")
    lam = _lambda(doc, "train.lambda")
    return TrainConfig(
        seed=_int(doc, "seed", "train", 0),
        dataset=str(doc["dataset"]),
        scheme=scheme,
        kernel=kernel,
        lam=lam,
        m=_int(doc, "m", "train"),
        pi=(_decode(pi_from_json, doc, "pi", "train", scheme.num_parts) if "pi" in doc
            else Uniform(scheme.num_parts)),
    )


@dataclass(frozen=True)
class PredictConfig:
    model: str
    dataset: str
    loss: LossSpec
    method: object  # ClosedForm, ExactEnumeration, or SGM without its rng
    seed: Optional[int]
    pi: Optional[Weighted]  # None: uniform over the model's parts


def parse_predict(doc: dict) -> PredictConfig:
    _check_keys(doc, {"model", "dataset", "loss", "decoder", "seed", "pi"}, "predict",
                optional={"seed", "pi"})
    loss = LOSSES_BY_NAME.get(doc["loss"]) if isinstance(doc["loss"], str) else None
    if loss is None:
        raise ParseError(f"predict.loss: unknown loss {doc['loss']!r}")
    method = _method(doc["decoder"], loss, "predict.decoder")
    seed = _int(doc, "seed", "predict", 0) if "seed" in doc else None
    if isinstance(method, SGM) and seed is None:
        raise ParseError("predict.seed: required for the sgm decoder")
    return PredictConfig(
        model=str(doc["model"]),
        dataset=str(doc["dataset"]),
        loss=loss,
        method=method,
        seed=seed,
        pi=_decode(pi_from_json, doc, "pi", "predict", None) if "pi" in doc else None,
    )


def _method(spec, loss: LossSpec, path: str):
    """Decoder method of a ``decoder`` stanza, checked against ``loss``."""
    kind = _get(spec, "method", path)
    if kind in ("least_squares", "angular"):
        _check_keys(spec, {"method", "normalize"} if kind == "least_squares" else {"method"},
                    path, optional={"normalize"})
        need = SQUARED_VECTOR if kind == "least_squares" else ANGULAR_SIN_SQ
        if loss != need:
            raise ParseError(f"predict.loss: the {kind} decoder needs the {need.kind} loss")
        return ClosedForm(normalize=_flag(spec, "normalize", path, True))
    if kind == "exact":
        _check_keys(spec, {"method", "budget", "alphabet"}, path)
        with _at(path):
            method = ExactEnumeration(budget=_int(spec, "budget", path),
                                      alphabet=tuple(spec["alphabet"]))
        if isinstance(method.alphabet[0], str) and loss != ZERO_ONE_WINDOW:
            raise ParseError("predict.loss: a string alphabet needs the zero_one_window loss")
        return method
    if kind == "sgm":
        _check_keys(spec, {"method", "iterations", "step_c", "projection", "average_tail"}, path,
                    optional={"step_c", "projection", "average_tail"})
        if not loss.is_subdifferentiable:
            raise ParseError(f"predict.loss: the sgm decoder needs a subdifferentiable loss, "
                             f"not {loss.kind}")
        pspec = spec.get("projection")
        projection = None if pspec is None else _projection(pspec, f"{path}.projection")
        step_c = None
        if "step_c" in spec:
            with _at(f"{path}.step_c"):
                step_c = _real(spec["step_c"])
        with _at(path):
            return SGM(
                iterations=_int(spec, "iterations", path),
                rng=None,
                step_c=step_c,
                projection=projection,
                average_tail=_flag(spec, "average_tail", path, True),
            )
    raise ParseError(f"{path}.method: unknown method {kind!r}")


def _projection(spec, path: str):
    kind = _get(spec, "kind", path)
    if kind == "box":
        _check_keys(spec, {"kind", "lo", "hi"}, path)
        bounds = {}
        for key in ("lo", "hi"):
            with _at(f"{path}.{key}"):
                bounds[key] = _real(spec[key])
        with _at(path):
            return BoxProjection(**bounds)
    if kind == "angle_wrap":
        _check_keys(spec, {"kind"}, path)
        return AngleWrap()
    raise ParseError(f"{path}.kind: unknown kind {kind!r}")


@dataclass(frozen=True)
class DiagnoseConfig:
    dataset: str
    scheme: PartScheme
    similarity: object
    annotate: bool
    subsample_pairs: Optional[int] = None
    seed: Optional[int] = None


def parse_diagnose(doc: dict) -> DiagnoseConfig:
    _check_keys(doc, {"dataset", "scheme", "similarity", "annotate", "subsample_pairs", "seed"},
                "diagnose", optional={"annotate", "subsample_pairs", "seed"})
    subsample = doc.get("subsample_pairs")
    if subsample is not None:
        subsample = _int(doc, "subsample_pairs", "diagnose")
        if "seed" not in doc:
            raise ParseError("diagnose.seed: required when subsample_pairs is set")
    path = "diagnose.similarity"
    sim = doc["similarity"]
    kind = _get(sim, "kind", path)
    if kind == "raw_inner":
        _check_keys(sim, {"kind"}, path)
        similarity = RawInner()
    elif kind == "squared_kernel":
        _check_keys(sim, {"kind", "base"}, path)
        base = _decode(kernel_from_json, sim, "base", path)
        if not isinstance(base, PartKernel):
            raise ParseError(f"{path}.base: must be a part kernel")
        similarity = SquaredKernel(base)
    else:
        raise ParseError(f"{path}.kind: unknown kind {kind!r}")
    return DiagnoseConfig(
        dataset=str(doc["dataset"]),
        scheme=_decode(scheme_from_json, doc, "scheme", "diagnose"),
        similarity=similarity,
        annotate=_flag(doc, "annotate", "diagnose", False),
        subsample_pairs=subsample,
        seed=_int(doc, "seed", "diagnose", 0) if "seed" in doc else None,
    )


_SYNTHETIC_FIELDS = {"noise_std": _real, "lambda_grid": _reals, "estimators": tuple}


def parse_bench_synthetic(doc: dict) -> tuple[SyntheticConfig, tuple, int]:
    """The study's first cell, its ``(num_parts, gamma, n_grid)`` grids and the
    repeat count. ``n_grid`` is None unless ``n_train`` is a list, which asks
    for a learning curve."""
    name = "bench-synthetic"
    _check_keys(doc, {"seed", "block_dim", "num_parts", "gamma", "n_train", "n_test", "repeats",
                      *_SYNTHETIC_FIELDS}, name, optional=_SYNTHETIC_FIELDS.keys())
    n_grid = _n_grid(doc, name)
    curve = isinstance(doc["n_train"], list)
    with _at(f"{name}.num_parts"):
        parts = _values(doc["num_parts"], _integer)
    with _at(f"{name}.gamma"):
        gammas = _values(doc["gamma"], _real)
    with _at(name):
        if curve and (len(parts) > 1 or len(gammas) > 1):
            raise ParseError(f"{name}: an n_train grid needs scalar num_parts and gamma")
        cfg = SyntheticConfig(num_parts=parts[0], block_dim=_int(doc, "block_dim", name),
                              gamma=gammas[0], n_train=n_grid[0], n_test=_int(doc, "n_test", name),
                              seed=_int(doc, "seed", name, 0),
                              **_fields(doc, _SYNTHETIC_FIELDS, name))
        for P, g in product(parts, gammas):  # every cell of the grid must be valid
            replace(cfg, num_parts=P, gamma=g)
    return cfg, (parts, gammas, n_grid if curve else None), _int(doc, "repeats", name)


_ANGULAR_FIELDS = {"grid_size": _integer, "patch": _integer, "stride": _integer,
                   "bandwidth": _real, "m": _integer, "n_test": _integer, "input_noise": _real,
                   "freq_cutoff": _integer, "lambda_grid": _reals}


def parse_bench_angular(doc: dict) -> tuple[AngularConfig, tuple, int]:
    name = "bench-angular"
    _check_keys(doc, {"seed", "n_train", "repeats", *_ANGULAR_FIELDS}, name,
                optional=_ANGULAR_FIELDS.keys())
    n_grid = _n_grid(doc, name)
    with _at(name):
        cfg = AngularConfig(seed=_int(doc, "seed", name, 0), **_fields(doc, _ANGULAR_FIELDS, name))
    return cfg, n_grid, _int(doc, "repeats", name)


def parse_bound_check(gamma: str, parts: str, r2: float) -> tuple[tuple, tuple, float]:
    """The decay rates and part counts of ``bound-check``'s comma-separated
    flags, and its similarity bound ``--r2``."""
    with _at("--gamma"):
        gammas = _values(gamma.split(","), float)
    with _at("--parts"):
        counts = _values(parts.split(","), int)
    if not all(0 < g < math.inf for g in gammas):
        raise ParseError(f"--gamma: decay rates must be positive and finite, got {gamma}")
    if min(counts) < 1:
        raise ParseError(f"--parts: part counts must be >= 1, got {parts}")
    if not 0 <= r2 < math.inf:
        raise ParseError(f"--r2: the similarity bound must be >= 0 and finite, got {r2}")
    return gammas, counts, r2
