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


def _ticks(lo: float, hi: float) -> list[float]:
    # k / 4 first, so a span near the largest double does not overflow
    return [lo + (hi - lo) * (k / 4) for k in range(5)]


def _text(x, y, anchor: str, size: int, body: str, fill: str | None = None) -> str:
    """One <text> element in the chart's font, x and y written as given."""
    paint = "" if fill is None else f' fill="{fill}"'
    return (f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-size="{size}" '
            f'font-family="sans-serif"{paint}>{body}</text>')


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

    x_lo = float(tau.min())
    x_hi = float(tau.max())
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    y_lo = float(min(amp.min(), bmag.min()))
    y_hi = float(max(amp.max(), bmag.max()))
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    plot_w = _WIDTH - _ML - _MR
    plot_h = _HEIGHT - _MT - _MB

    def sx(x: float) -> float:
        # the fraction first, so a span near the largest double does not overflow
        return _finite(_ML + plot_w * ((x - x_lo) / (x_hi - x_lo)), "tau", x_lo, x_hi)

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
        _text(_WIDTH // 2, 24, "middle", 15, "field amplitude and bunching vs scaled time"),
    ]
    x_axis = _MT + plot_h
    for xt in _ticks(x_lo, x_hi):
        x = _fmt(sx(xt))
        parts.append(f'<line x1="{x}" y1="{x_axis}" x2="{x}" y2="{x_axis + 5}" stroke="black"/>')
        parts.append(_text(x, x_axis + 20, "middle", 11, f"{xt:.4g}"))
    for yt in _ticks(y_lo, y_hi):
        y = sy(yt)
        mark = _fmt(y)
        parts.append(f'<line x1="{_ML - 5}" y1="{mark}" x2="{_ML}" y2="{mark}" stroke="black"/>')
        parts.append(_text(_ML - 9, _fmt(y + 4.0), "end", 11, f"{yt:.4g}"))
    parts += [
        polyline(tau, amp, "#c22"),
        polyline(tau, bmag, "#26c"),
        _text(_WIDTH - _MR - 10, _MT + 18, "end", 12, "amplitude", "#c22"),
        _text(_WIDTH - _MR - 10, _MT + 34, "end", 12, "|bunching|", "#26c"),
        _text(_WIDTH // 2, _HEIGHT - 12, "middle", 12, "scaled time"),
        # the rotated label's attributes come in an order of their own
        f'<text x="16" y="{_MT + plot_h // 2}" font-size="12" font-family="sans-serif" '
        f'transform="rotate(-90 16 {_MT + plot_h // 2})" text-anchor="middle">{y_label}</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def emit_plot(traj: Trajectory, path: str | Path, log_scale: bool = False) -> Path:
    """Write the SVG chart as UTF-8 bytes; byte-identical output for identical
    input, on every platform."""
    path = Path(path)
    path.write_bytes(render_svg(traj, log_scale=log_scale).encode())
    return path
