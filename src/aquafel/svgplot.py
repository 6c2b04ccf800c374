"""Minimal standalone SVG line chart for trajectory inspection.

Writes the field amplitude and |bunching| versus scaled time as two
polylines. The SVG is assembled from fixed-precision formatted numbers
only, so identical trajectories always produce byte-identical files
(matplotlib embeds timestamps and library versions, which would break
that guarantee).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .dynamics import Trajectory

_WIDTH, _HEIGHT = 720, 440
_ML, _MR, _MT, _MB = 70, 20, 40, 50  # margins
_LOG_FLOOR = 1e-12


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    # k / (count - 1) first, so a span near the largest double does not overflow
    return [lo + (hi - lo) * (k / (count - 1)) for k in range(count)]


def _finite(coord: float, axis: str, lo: float, hi: float) -> float:
    if not math.isfinite(coord):
        raise ValueError(f"cannot plot: the {axis} axis from {lo!r} to {hi!r} "
                         "maps a value to a non-finite coordinate")
    return coord


def render_svg(traj: Trajectory, log_scale: bool = False) -> str:
    """SVG text for amp(tau) and |b|(tau); raises ValueError on an empty
    trajectory or, naming the axis, on a value with no finite coordinate."""
    if len(traj) == 0:
        raise ValueError("cannot plot an empty trajectory")
    tau = traj.tau
    amp = traj.amp
    bmag = np.hypot(traj.bunch_re, traj.bunch_im)
    if log_scale:
        amp = np.log10(np.maximum(amp, _LOG_FLOOR))
        bmag = np.log10(np.maximum(bmag, _LOG_FLOOR))
        y_label = "log10 amplitude"
    else:
        y_label = "amplitude"

    x_lo = float(tau[0])
    x_hi = float(tau[-1])
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    y_lo = float(min(amp.min(), bmag.min()))
    y_hi = float(max(amp.max(), bmag.max()))
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    plot_w = _WIDTH - _ML - _MR
    plot_h = _HEIGHT - _MT - _MB

    def sx(x: float) -> float:
        return _finite(_ML + plot_w * (x - x_lo) / (x_hi - x_lo), "tau", x_lo, x_hi)

    def sy(y: float) -> float:
        return _finite(_MT + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo)), y_label, y_lo, y_hi)

    def polyline(xs, ys, color: str) -> str:
        pts = " ".join(f"{_fmt(sx(float(x)))},{_fmt(sy(float(y)))}" for x, y in zip(xs, ys))
        return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black" stroke-width="1"/>',
        f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" font-size="15" '
        'font-family="sans-serif">field amplitude and bunching vs scaled time</text>',
    ]
    for xt in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{_fmt(sx(xt))}" y1="{_MT + plot_h}" x2="{_fmt(sx(xt))}" '
            f'y2="{_MT + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(sx(xt))}" y="{_MT + plot_h + 20}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{xt:.4g}</text>'
        )
    for yt in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{_ML - 5}" y1="{_fmt(sy(yt))}" x2="{_ML}" y2="{_fmt(sy(yt))}" '
            'stroke="black"/>'
        )
        parts.append(
            f'<text x="{_ML - 9}" y="{_fmt(sy(yt) + 4.0)}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{yt:.4g}</text>'
        )
    parts.append(polyline(tau, amp, "#c22"))
    parts.append(polyline(tau, bmag, "#26c"))
    parts.append(
        f'<text x="{_WIDTH - _MR - 10}" y="{_MT + 18}" text-anchor="end" font-size="12" '
        'font-family="sans-serif" fill="#c22">amplitude</text>'
    )
    parts.append(
        f'<text x="{_WIDTH - _MR - 10}" y="{_MT + 34}" text-anchor="end" font-size="12" '
        'font-family="sans-serif" fill="#26c">|bunching|</text>'
    )
    parts.append(
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 12}" text-anchor="middle" font-size="12" '
        'font-family="sans-serif">scaled time</text>'
    )
    parts.append(
        f'<text x="16" y="{_MT + plot_h // 2}" font-size="12" font-family="sans-serif" '
        f'transform="rotate(-90 16 {_MT + plot_h // 2})" text-anchor="middle">{y_label}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plot(traj: Trajectory, path: str | Path, log_scale: bool = False) -> Path:
    """Write the SVG chart; byte-identical output for identical input."""
    path = Path(path)
    path.write_text(render_svg(traj, log_scale=log_scale))
    return path
