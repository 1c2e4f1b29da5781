"""Minimal SVG line plots for sweep results — no plotting library, just
shapes on a fixed 640 x 480 canvas, so the output renders anywhere and is
byte-stable for regression diffs."""

from __future__ import annotations

import numpy as np

from .outputs import SweepResult

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 62, 14, 14, 46
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_YLABEL = "E/(π/d)^2"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if not hi > lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min(s * mag for s in (1.0, 2.0, 5.0, 10.0) if s * mag >= raw)
    start = np.ceil(lo / step) * step
    return [float(start + i * step) for i in range(int((hi - start) / step + 1e-9) + 1)]


def _fmt_tick(v: float) -> str:
    return f"{v:g}"


def write_sweep_svg(result: SweepResult, path: str, xlabel: str = "a/d") -> None:
    """One polyline per merged-ordinal eigenvalue branch, in (pi/d)^2
    energy units on the y axis."""
    pts: dict[int, list[tuple[float, float]]] = {}
    for r in result.rows:
        pts.setdefault(r.n, []).append((r.sweep_value, r.lam_pi2))
    xs = [p[0] for ps in pts.values() for p in ps] or [0.0, 1.0]
    ys = [p[1] for ps in pts.values() for p in ps] or [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    pad = 0.05 * (y_hi - y_lo) or 0.5
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y: float) -> float:
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{px(t):.2f}" y1="{_H - _MB}" x2="{px(t):.2f}" '
                     f'y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{px(t):.2f}" y="{_H - _MB + 18}" font-size="12" '
                     f'text-anchor="middle">{_fmt_tick(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{_ML - 5}" y1="{py(t):.2f}" x2="{_ML}" '
                     f'y2="{py(t):.2f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{py(t):.2f}" font-size="12" '
                     f'text-anchor="end" dominant-baseline="middle">{_fmt_tick(t)}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) / 2:.2f}" y="{_H - 10}" font-size="14" '
                 f'text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="16" y="{(_MT + _H - _MB) / 2:.2f}" font-size="14" '
                 f'text-anchor="middle" transform="rotate(-90 16 '
                 f'{(_MT + _H - _MB) / 2:.2f})">{_YLABEL}</text>')
    for i, n in enumerate(sorted(pts)):
        branch = sorted(pts[n])
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in branch)
        color = _COLORS[i % len(_COLORS)]
        if len(branch) == 1:
            x0, y0 = branch[0]
            parts.append(f'<circle cx="{px(x0):.2f}" cy="{py(y0):.2f}" r="3" '
                         f'fill="{color}"/>')
        else:
            parts.append(f'<polyline points="{coords}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts) + "\n")
