"""Minimal static SVG figures: log-log kernel curves, ratio heatmaps, histograms.

Hand-rolled markup keeps the outputs byte-reproducible for identical
inputs, which the reporting contract requires.  The heatmap, one ``<rect>``
per matrix cell, colours all cells with array arithmetic and streams them to
the file one matrix row at a time, so it never holds the whole markup.
"""

from __future__ import annotations

import numpy as np

__all__ = ["line_plot", "heatmap", "histogram"]

_W, _H, _PAD = 640, 420, 50


def _scale(vals, lo, hi, out_lo, out_hi):
    vals = np.asarray(vals, dtype=float)
    if hi <= lo:
        hi = lo + 1.0
    return out_lo + (vals - lo) / (hi - lo) * (out_hi - out_lo)


def _axes(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="20" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{title}</text>',
    ]


def _log10(vals) -> np.ndarray:
    return np.log10(np.clip(np.asarray(vals, dtype=float), 1e-300, None))


def line_plot(path, xs, series: dict, title: str = "") -> None:
    """Log-log polyline plot of one or more named series against a shared axis."""
    tx = np.log10(np.asarray(xs, dtype=float))
    parts = _axes(title)
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    all_y = _log10(np.concatenate([np.asarray(v, dtype=float) for v in series.values()]))
    ylo, yhi = float(np.min(all_y)), float(np.max(all_y))
    for k, (name, ys) in enumerate(series.items()):
        ty = _log10(ys)
        px = _scale(tx, tx.min(), tx.max(), _PAD, _W - _PAD)
        py = _scale(ty, ylo, yhi, _H - _PAD, _PAD)
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        color = colors[k % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{_W - _PAD}" y="{_PAD + 16 * k}" text-anchor="end" '
                     f'font-size="12" font-family="sans-serif" fill="{color}">{name}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


def heatmap(path, matrix, title: str = "") -> None:
    """Color-cell heatmap of a matrix (blue low, white mid, red high).

    The colour range is the matrix's own [min, max].  A cell whose colour is
    undefined (NaN or infinite) raises ``ValueError`` before the file opens.
    """
    M = np.asarray(matrix, dtype=float)
    v_lo, v_hi = float(np.min(M)), float(np.max(M))
    n, m = M.shape
    cw = (_W - 2 * _PAD) / m
    ch = (_H - 2 * _PAD) / n
    span = max(v_hi - v_lo, 1e-300)
    t = (M - v_lo) / span           # in [0, 1]: rounding is monotone
    if np.isnan(t).any():
        raise ValueError("heatmap: a cell has no colour (NaN after scaling)")
    # colour code k < 256: rgb(k,k,255) from int(510 t); k >= 256: rgb(255,j,j)
    # with j = k - 256 from int(510 (1 - t)); the same products as per cell
    low = t < 0.5
    code = np.where(low, 510 * t, 510 * (1 - t)).astype(np.int64) + np.where(low, 0, 256)
    fills = [f'rgb({k},{k},255)"/>' for k in range(256)] + \
            [f'rgb(255,{k},{k})"/>' for k in range(256)]
    cols = [f'\n<rect x="{_PAD + j * cw:.2f}" y="' for j in range(m)]
    size = f'" width="{cw:.2f}" height="{ch:.2f}" fill="'
    with open(path, "w") as fh:
        fh.write("\n".join(_axes(title)))
        for i, row in enumerate(code.tolist()):
            rest = f"{_PAD + i * ch:.2f}{size}"
            fh.write("".join([c + rest + fills[k] for c, k in zip(cols, row)]))
        fh.write(f'\n<text x="{_PAD}" y="{_H - 12}" font-size="11" '
                 f'font-family="sans-serif">range [{v_lo:.4g}, {v_hi:.4g}]</text>\n</svg>')


def histogram(path, edges, counts, title: str = "") -> None:
    edges = np.asarray(edges, dtype=float)
    counts = np.asarray(counts, dtype=float)
    parts = _axes(title)
    top = max(float(np.max(counts)), 1.0)
    px = _scale(edges, edges.min(), edges.max(), _PAD, _W - _PAD)
    for k in range(len(counts)):
        h = counts[k] / top * (_H - 2 * _PAD)
        parts.append(f'<rect x="{px[k]:.2f}" y="{_H - _PAD - h:.2f}" '
                     f'width="{max(px[k + 1] - px[k] - 0.5, 0.5):.2f}" height="{h:.2f}" '
                     f'fill="#1f77b4"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
