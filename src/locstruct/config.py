"""Strict parsing of command configurations.

Each command's JSON document becomes finished library objects when it is
parsed: the scheme, kernel, part distribution, loss and decoder method, or a
study's configuration, so a command only runs them. A command's config is one
field table read by ``modelio._read``, which refuses unknown and missing keys
and names the key path of every bad value, plus its cross-field checks: the
lambda shift against the largest ``m`` the command fits (``train.lambda``
and every ``lambda_grid`` entry), the decoder against the loss, the seed
rules and the size grids. Every error is a ``ParseError``, raised before
the command reads a dataset or writes a file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import product
from typing import Optional

from .bench import LOCAL_LS, AngularConfig, SyntheticConfig
from .decoder import SGM, AngleWrap, BoxProjection, ClosedForm, ExactEnumeration
from .kernels import KernelSpec
from .locality import RawInner, SquaredKernel
from .losses import ANGULAR_SIN_SQ, SQUARED_VECTOR, ZERO_ONE_WINDOW, LossSpec
from .losses import BY_NAME as LOSSES_BY_NAME
from .modelio import (_PAIR_KERNELS, _PART_DISTRIBUTIONS, _PART_KERNELS, _SCHEMES, ParseError,
                      _at, _at_least, _bool, _check_shifts, _count, _Kinds, _pi_over, _read,
                      _real, _reals, _seed, _string)
from .parts import PartDistribution, PartScheme, Weighted


def _grid(read):
    """A reader of a grid: a JSON list, or one scalar, of ``read`` values."""
    def grid(v) -> tuple:
        vals = tuple(read(x) for x in (v if isinstance(v, list) else [v]))
        if not vals:
            raise ValueError("must not be empty")
        return vals
    return grid


def _sizes(v) -> tuple:
    """A grid of training-set sizes: ascending counts."""
    grid = _grid(_count)(v)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"expected ascending sizes, got {grid}")
    return grid


def _strings(v) -> tuple:
    """A JSON list of strings, as a tuple."""
    if not isinstance(v, list):
        raise ValueError(f"expected a list of strings, got {v!r}")
    return tuple(_string(x) for x in v)


def _loss(v) -> LossSpec:
    if not (isinstance(v, str) and v in LOSSES_BY_NAME):
        raise ValueError(f"unknown loss {v!r}, expected one of {list(LOSSES_BY_NAME)}")
    return LOSSES_BY_NAME[v]


def _alphabet(v) -> tuple:
    """An exact decoder's symbols: a JSON list of symbols (single characters
    or finite numbers), or a JSON string of single characters."""
    if not isinstance(v, (str, list)):
        raise ValueError(f"expected a list of symbols or a string, got {v!r}")
    for a in v:
        if not isinstance(a, str):
            _real(a)
    return tuple(v)


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


_TRAIN = {"seed": _seed, "dataset": _string, "scheme": _SCHEMES, "kernel": _PAIR_KERNELS,
          "lambda": _real, "m": _count, "pi": _PART_DISTRIBUTIONS}


def parse_train(doc: dict) -> TrainConfig:
    f = _read(doc, "train", _TRAIN, optional={"pi"})
    lam = f.pop("lambda")
    _check_shifts([lam], f["m"], "train.lambda")
    pi = _pi_over(f.pop("pi", None), f["scheme"].num_parts, "train.pi")
    return TrainConfig(lam=lam, pi=pi, **f)


@dataclass(frozen=True)
class PredictConfig:
    model: str
    dataset: str
    loss: LossSpec
    decoder: object  # ClosedForm, ExactEnumeration, or SGM without its rng
    seed: Optional[int] = None
    pi: Optional[Weighted] = None  # None: uniform over the model's parts


_PROJECTIONS = _Kinds({"box": (BoxProjection, {"lo": _real, "hi": _real}),
                       "angle_wrap": (AngleWrap, {})})
_DECODERS = _Kinds({
    "least_squares": (ClosedForm, {"normalize": _bool}, {"normalize"}),
    "angular": (ClosedForm, {}),
    "exact": (ExactEnumeration, {"budget": _count, "alphabet": _alphabet}),
    "sgm": (partial(SGM, rng=None), {"iterations": _count, "step_c": _real,
                                     "projection": _PROJECTIONS, "average_tail": _bool},
            {"step_c", "projection", "average_tail"}),
}, tag="method")
_PREDICT = {"model": _string, "dataset": _string, "loss": _loss, "decoder": _DECODERS,
            "seed": _seed, "pi": _PART_DISTRIBUTIONS}
# the loss each closed-form decoder needs
_CLOSED_FORM_LOSS = {"least_squares": SQUARED_VECTOR, "angular": ANGULAR_SIN_SQ}


def parse_predict(doc: dict) -> PredictConfig:
    cfg = PredictConfig(**_read(doc, "predict", _PREDICT, optional={"seed", "pi"}))
    kind, loss, decoder = doc["decoder"]["method"], cfg.loss, cfg.decoder
    need = _CLOSED_FORM_LOSS.get(kind)
    if need is not None and loss != need:
        raise ParseError(f"predict.loss: the {kind} decoder needs the {need.kind} loss")
    if isinstance(decoder, ExactEnumeration) and isinstance(decoder.alphabet[0], str) \
            and loss != ZERO_ONE_WINDOW:
        raise ParseError("predict.loss: a string alphabet needs the zero_one_window loss")
    if isinstance(decoder, SGM) and not loss.is_subdifferentiable:
        raise ParseError(f"predict.loss: the sgm decoder needs a subdifferentiable loss, "
                         f"not {loss.kind}")
    if isinstance(decoder, SGM) and cfg.seed is None:
        raise ParseError("predict.seed: required for the sgm decoder")
    return cfg


@dataclass(frozen=True)
class DiagnoseConfig:
    dataset: str
    scheme: PartScheme
    similarity: object
    annotate: bool = False
    subsample_pairs: Optional[int] = None
    seed: Optional[int] = None


_SIMILARITIES = _Kinds({"raw_inner": (RawInner, {}),
                        "squared_kernel": (SquaredKernel, {"base": _PART_KERNELS})})
_DIAGNOSE = {"dataset": _string, "scheme": _SCHEMES, "similarity": _SIMILARITIES,
             "annotate": _bool, "subsample_pairs": _count, "seed": _seed}


def parse_diagnose(doc: dict) -> DiagnoseConfig:
    cfg = DiagnoseConfig(**_read(doc, "diagnose", _DIAGNOSE,
                                 optional={"annotate", "subsample_pairs", "seed"}))
    if cfg.subsample_pairs is not None and cfg.seed is None:
        raise ParseError("diagnose.seed: required when subsample_pairs is set")
    return cfg


_SYNTHETIC = {"seed": _seed, "block_dim": _count, "num_parts": _grid(_count),
              "gamma": _grid(_real), "n_train": _sizes, "n_test": _count, "repeats": _count,
              "noise_std": _real, "lambda_grid": _reals, "estimators": _strings}


def parse_bench_synthetic(doc: dict) -> tuple[SyntheticConfig, tuple, int]:
    """The study's first cell, its ``(num_parts, gamma, n_grid)`` grids and the
    repeat count. ``n_grid`` is None unless ``n_train`` is a list, which asks
    for a learning curve. Every ``lambda_grid`` entry is checked against the
    largest system a cell fits: ``n_train * num_parts`` anchors at the
    largest of each when ``local_ls`` runs, else the baselines' ``n_train``."""
    name = "bench-synthetic"
    f = _read(doc, name, _SYNTHETIC, optional={"noise_std", "lambda_grid", "estimators"})
    parts, gammas, n_grid, repeats = (f.pop(k) for k in ("num_parts", "gamma", "n_train",
                                                         "repeats"))
    curve = isinstance(doc["n_train"], list)
    with _at(name):
        if curve and (len(parts) > 1 or len(gammas) > 1):
            raise ParseError(f"{name}: an n_train grid needs scalar num_parts and gamma")
        cfg = SyntheticConfig(num_parts=parts[0], gamma=gammas[0], n_train=n_grid[0], **f)
        for P, g in product(parts, gammas):  # every cell of the grid must be valid
            replace(cfg, num_parts=P, gamma=g)
    m = n_grid[-1] * (max(parts) if LOCAL_LS in cfg.estimators else 1)
    _check_shifts(cfg.lambda_grid, m, f"{name}.lambda_grid")
    return cfg, (parts, gammas, n_grid if curve else None), repeats


_ANGULAR_FIELDS = {"grid_size": _count, "patch": _count, "stride": _count, "bandwidth": _real,
                   "m": _count, "n_test": _count, "input_noise": _real,
                   "freq_cutoff": _at_least(0), "lambda_grid": _reals}


def parse_bench_angular(doc: dict) -> tuple[AngularConfig, tuple, int]:
    name = "bench-angular"
    f = _read(doc, name, {"seed": _seed, "n_train": _sizes, "repeats": _count,
                          **_ANGULAR_FIELDS}, optional=_ANGULAR_FIELDS.keys())
    n_grid, repeats = f.pop("n_train"), f.pop("repeats")
    with _at(name):
        cfg = AngularConfig(**f)
    _check_shifts(cfg.lambda_grid, cfg.m, f"{name}.lambda_grid")
    return cfg, n_grid, repeats


def parse_bound_check(gamma: str, parts: str, r2: float) -> tuple[tuple, tuple, float]:
    """The decay rates and part counts of ``bound-check``'s comma-separated
    flags, and its similarity bound ``--r2``."""
    with _at("--gamma"):
        gammas = _grid(float)(gamma.split(","))
    with _at("--parts"):
        counts = _grid(int)(parts.split(","))
    if not all(0 < g < math.inf for g in gammas):
        raise ParseError(f"--gamma: decay rates must be positive and finite, got {gamma}")
    if min(counts) < 1:
        raise ParseError(f"--parts: part counts must be >= 1, got {parts}")
    if not 0 <= r2 < math.inf:
        raise ParseError(f"--r2: the similarity bound must be >= 0 and finite, got {r2}")
    return gammas, counts, r2
