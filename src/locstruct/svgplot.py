"""Minimal hand-rolled SVG plots: line charts and heatmaps.

No plotting dependency; output is deterministic for identical inputs, so
artifacts can be compared byte for byte across runs.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 40, 50  # margins


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _ticks(lo: float, hi: float, log: bool) -> list[float]:
    if log:
        lo_e = math.floor(math.log10(lo))
        hi_e = math.ceil(math.log10(hi))
        return [10.0**e for e in range(lo_e, min(hi_e, 308) + 1)]  # 1e309 overflows
    span = hi - lo or 1.0
    step = 10.0 ** math.floor(math.log10(span / 4))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * abs(span):
        ticks.append(t)
        t += step
    return ticks


class _Axis:
    def __init__(self, lo, hi, pix_lo, pix_hi, log):
        if log:
            lo = max(lo, 1e-300)
            hi = max(hi, min(float(lo) * 10, sys.float_info.max))
        if hi <= lo:  # one value: a span that scales with it, so tick steps advance
            span = max(1.0, abs(lo) * 1e-4)
            lo, hi = (lo, lo + span) if lo <= sys.float_info.max - span else (lo - span, lo)
        self.lo, self.hi, self.log = lo, hi, log
        self.pix_lo, self.pix_hi = pix_lo, pix_hi

    def __call__(self, v: float) -> float:
        if self.log:
            a = (math.log10(max(v, 1e-300)) - math.log10(self.lo)) / (
                math.log10(self.hi) - math.log10(self.lo))
        else:
            a = (v - self.lo) / (self.hi - self.lo)
        return self.pix_lo + a * (self.pix_hi - self.pix_lo)


def line_plot(path, series: dict, title: str = "", xlabel: str = "", ylabel: str = "",
              logx: bool = False, logy: bool = False) -> None:
    """Write a polyline chart; ``series`` maps a label to (xs, ys) arrays."""
    xs_all = np.concatenate([np.asarray(s[0], float) for s in series.values()])
    ys_all = np.concatenate([np.asarray(s[1], float) for s in series.values()])
    ax = _Axis(xs_all.min(), xs_all.max(), _ML, _W - _MR, logx)
    ay = _Axis(ys_all.min(), ys_all.max(), _H - _MB, _MT, logy)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
             f'font-family="sans-serif" font-size="12">',
             f'<rect width="{_W}" height="{_H}" fill="white"/>']
    if title:
        parts.append(f'<text x="{_W/2:.0f}" y="20" text-anchor="middle" '
                     f'font-size="14">{title}</text>')
    # axes box
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{_W-_ML-_MR}" height="{_H-_MT-_MB}" '
                 f'fill="none" stroke="black"/>')
    for t in _ticks(ax.lo, ax.hi, logx):
        if not (ax.lo <= t <= ax.hi):
            continue
        px = ax(t)
        parts.append(f'<line x1="{px:.1f}" y1="{_H-_MB}" x2="{px:.1f}" y2="{_H-_MB+5}" stroke="black"/>')
        parts.append(f'<text x="{px:.1f}" y="{_H-_MB+18}" text-anchor="middle">{_fmt(t)}</text>')
    for t in _ticks(ay.lo, ay.hi, logy):
        if not (ay.lo <= t <= ay.hi):
            continue
        py = ay(t)
        parts.append(f'<line x1="{_ML-5}" y1="{py:.1f}" x2="{_ML}" y2="{py:.1f}" stroke="black"/>')
        parts.append(f'<text x="{_ML-8}" y="{py+4:.1f}" text-anchor="end">{_fmt(t)}</text>')
    if xlabel:
        parts.append(f'<text x="{(_ML+_W-_MR)/2:.0f}" y="{_H-12}" text-anchor="middle">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{(_MT+_H-_MB)/2:.0f}" text-anchor="middle" '
                     f'transform="rotate(-90 16 {(_MT+_H-_MB)/2:.0f})">{ylabel}</text>')

    for i, (label, (xs, ys)) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{ax(float(x)):.1f},{ay(float(y)):.1f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{ax(float(x)):.1f}" cy="{ay(float(y)):.1f}" r="2.5" fill="{color}"/>')
        ly = _MT + 16 + 16 * i
        parts.append(f'<line x1="{_W-_MR-120}" y1="{ly}" x2="{_W-_MR-100}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_W-_MR-95}" y="{ly+4}">{label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def _color(a: float) -> str:
    """Linear white-to-blue scale for a in [0, 1]."""
    a = min(max(a, 0.0), 1.0)
    r = round(255 * (1 - a) + 8 * a)
    g = round(255 * (1 - a) + 48 * a)
    b = round(255 * (1 - a) + 107 * a)
    return f"rgb({r},{g},{b})"


def heatmap(path, matrix, title: str = "", annotate: bool = False) -> None:
    """Write a cell-grid heatmap of a 2-d matrix on a linear color scale."""
    M = np.asarray(matrix, dtype=float)
    n_rows, n_cols = M.shape
    lo, hi = float(M.min()), float(M.max())
    span = hi - lo or 1.0
    cell = max(6, min(40, int(520 / max(n_rows, n_cols))))
    w = _ML + n_cols * cell + _MR
    h = _MT + n_rows * cell + _MB
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
             f'font-family="sans-serif" font-size="11">',
             f'<rect width="{w}" height="{h}" fill="white"/>']
    if title:
        parts.append(f'<text x="{w/2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>')
    for i in range(n_rows):
        for j in range(n_cols):
            v = M[i, j]
            x = _ML + j * cell
            y = _MT + i * cell
            parts.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                         f'fill="{_color((v - lo) / span)}"/>')
            if annotate and cell >= 24:
                parts.append(f'<text x="{x + cell/2:.0f}" y="{y + cell/2 + 4:.0f}" '
                             f'text-anchor="middle">{_fmt(v)}</text>')
    parts.append(f'<text x="{_ML}" y="{_MT + n_rows*cell + 20}">min={_fmt(lo)}</text>')
    parts.append(f'<text x="{_ML + 130}" y="{_MT + n_rows*cell + 20}">max={_fmt(hi)}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
