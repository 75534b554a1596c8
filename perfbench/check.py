"""Output check: reference outputs recorded per seed, and pass-to-pass equality.

Lists (chosen lambdas, exact-decoder strings, file digests) must match
exactly. Arrays (closed-form predictions) must match within ``RTOL``
relative, the tolerance the roadmap sets for a speed-up. A reference keeps
an array as its shape, its sum, its absolute sum and a fixed sample of its
entries, which keeps ``reference.json`` small.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

RTOL = 1e-8
SAMPLE = 64
REFERENCE = Path(__file__).with_name("reference.json")


class Tally:
    """Checked items, missed items, and one note per miss."""

    def __init__(self):
        self.checked = 0
        self.missed = 0
        self.notes: list[str] = []

    def item(self, ok: bool, note: str, count: int = 1) -> None:
        self.checked += count
        if not ok:
            self.missed += count
            self.notes.append(note)


def _sample_index(size: int) -> np.ndarray:
    rng = np.random.default_rng(size)
    return np.sort(rng.choice(size, size=min(SAMPLE, size), replace=False))


def _within(have, want, scale) -> np.ndarray:
    have, want = np.asarray(have, dtype=float), np.asarray(want, dtype=float)
    return np.abs(have - want) <= RTOL * np.maximum(np.abs(want), scale)


def digest(outputs: dict) -> dict:
    """JSON form of one run's reference outputs."""
    out = {}
    for key, value in outputs.items():
        if isinstance(value, np.ndarray):
            a = value.ravel()
            out[key] = {"shape": list(value.shape), "sum": float(a.sum()),
                        "abs_sum": float(np.abs(a).sum()),
                        "sample": a[_sample_index(a.size)].tolist()}
        else:
            out[key] = list(value)
    return out


def against_reference(outputs: dict, ref: dict, tally: Tally) -> None:
    for key, want in ref.items():
        have = outputs.get(key)
        if isinstance(want, dict):
            shape_ok = have is not None and list(have.shape) == want["shape"]
            tally.item(shape_ok, f"{key}: shape differs from the reference")
            if not shape_ok:
                continue
            a = have.ravel()
            scale = want["abs_sum"] / a.size
            ok = _within(a[_sample_index(a.size)], want["sample"], scale)
            tally.item(bool(ok.all()), f"{key}: {int((~ok).sum())} sampled entries off "
                                       f"by more than {RTOL:g} relative", count=ok.size)
            tol = RTOL * want["abs_sum"]
            tally.item(abs(a.sum() - want["sum"]) <= tol
                       and abs(np.abs(a).sum() - want["abs_sum"]) <= tol,
                       f"{key}: sums differ by more than {RTOL:g} relative")
        else:
            have = [] if have is None else list(have)
            tally.item(len(have) == len(want),
                       f"{key}: {len(have)} values, the reference has {len(want)}")
            for i, (h, w) in enumerate(zip(have, want)):
                tally.item(h == w, f"{key}[{i}]: {h!r}, the reference has {w!r}")


def across_passes(first: dict, later: dict, tally: Tally) -> None:
    for key, want in first.items():
        have = later.get(key)
        if isinstance(want, np.ndarray):
            ok = (have is not None and have.shape == want.shape
                  and bool(_within(have, want, np.abs(want).mean()).all()))
        else:
            ok = have is not None and list(have) == list(want)
        tally.item(ok, f"{key}: differs from the first pass")


def load_reference(workload: str, seed: int):
    """The recorded digest for (workload, seed), or None if none was recorded."""
    if not REFERENCE.exists():
        return None
    doc = json.loads(REFERENCE.read_text())
    return doc["seeds"].get(str(seed), {}).get(workload)
