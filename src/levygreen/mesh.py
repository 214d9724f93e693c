"""Graded composite quadrature meshes on intervals.

Kernels of the killed process vanish like a fractional power of the boundary
distance, so panels are graded toward both interval endpoints.  The map
``t -> t^q / (t^q + (1-t)^q)`` clusters breakpoints at both ends with
exponent q while staying symmetric; Gauss-Legendre nodes inside each panel
keep the nodes strictly interior and the weights positive.
"""

from __future__ import annotations

import numpy as np

__all__ = ["graded_breaks", "graded_panels", "graded_components", "graded_axis", "panel_rule",
           "power_panels", "domain_nodes"]

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def panel_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(order)
        _GL_CACHE[order] = (0.5 * (x + 1.0), 0.5 * w)   # nodes/weights on (0, 1)
    return _GL_CACHE[order]


def graded_breaks(a: float, b: float, t, grading: float) -> np.ndarray:
    """Image of t in [0, 1] under the symmetric grading map onto [a, b]."""
    tq, cq = t ** grading, (1.0 - t) ** grading
    return a + (b - a) * tq / (tq + cq)


def graded_panels(a: float, b: float, n_nodes: int, grading: float = 2.0,
                  order: int = 6) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on (a, b) graded toward both endpoints.

    grading is the clustering exponent (>= 1); n_nodes is rounded up to a
    whole number of panels of the given Gauss order.
    """
    if b <= a:
        raise ValueError("interval must have positive length")
    if grading < 1.0:
        raise ValueError("grading exponent must be >= 1")
    n_panels = max(2, int(np.ceil(n_nodes / order)))
    return _composite(graded_breaks(a, b, np.linspace(0.0, 1.0, n_panels + 1), grading), order)


def _composite(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The order-point Gauss rule on each panel between consecutive edges, in order."""
    xr, wr = panel_rule(order)
    left, width = edges[:-1, None], np.diff(edges)[:, None]
    return (left + width * xr).ravel(), (width * wr).ravel()


def graded_components(intervals, n_per_component: int,
                      grading: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Graded order-6 panels on each interval of a union, concatenated in order.

    Returns nodes, weights and the index of the interval each node lies in.
    """
    parts = [graded_panels(a, b, n_per_component, grading) for a, b in intervals]
    comp_id = [np.full(zn.shape, ci, dtype=int) for ci, (zn, _) in enumerate(parts)]
    return (np.concatenate([zn for zn, _ in parts]), np.concatenate([wn for _, wn in parts]),
            np.concatenate(comp_id))


def graded_axis(intervals, n: int) -> np.ndarray:
    """Deterministic evaluation grid clustered at every interval endpoint (grading 3)."""
    per = max(4, n // len(intervals))
    t = (np.arange(per) + 0.5) / per
    return np.concatenate([graded_breaks(a, b, t, 3.0) for a, b in intervals])


def power_panels(a: float, b: float, exponent: float, n_nodes: int, order: int = 8,
                 singular_end: str = "left") -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on (a, b) absorbing an algebraic endpoint singularity.

    Substituting distance = v**exponent turns an integrand that blows up like
    distance**(-p) into a smooth one whenever exponent * (1 - p) >= 1, so
    uniform panels in v converge at full Gauss order.  ``singular_end``
    selects which endpoint carries the singularity; use "both" for gaps
    between components (splits at the midpoint).
    """
    if singular_end == "both":
        mid = 0.5 * (a + b)
        nl, wl = power_panels(a, mid, exponent, n_nodes // 2, order, "left")
        nr, wr = power_panels(mid, b, exponent, n_nodes - n_nodes // 2, order, "right")
        return np.concatenate([nl, nr]), np.concatenate([wl, wr])
    length = b - a
    if length <= 0:
        raise ValueError("interval must have positive length")
    n_panels = max(2, int(np.ceil(n_nodes / order)))
    v, vw = _composite(np.linspace(0.0, length ** (1.0 / exponent), n_panels + 1), order)
    w = exponent * v ** (exponent - 1.0) * vw
    s = v ** exponent
    if singular_end == "left":
        return a + s, w
    if singular_end == "right":
        return (b - s)[::-1], w[::-1]
    raise ValueError("singular_end must be 'left', 'right' or 'both'")


def domain_nodes(intervals, splits, n_per_segment: int,
                 grading: float = 8.0) -> tuple[np.ndarray, np.ndarray]:
    """Order-6 power panels on a union of intervals split at the given interior points.

    Every segment end gets the power substitution: component endpoints carry
    algebraic boundary behavior of the kernels, interior split points carry
    half-integer kinks, and at genuinely smooth ends the extra clustering is
    merely harmless.
    """
    nodes, weights = [], []
    for a, b in intervals:
        cuts = sorted({a, b, *(float(s) for s in splits if a < s < b)})
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            zn, wn = power_panels(lo, hi, grading, n_per_segment, 6, "both")
            nodes.append(zn)
            weights.append(wn)
    return np.concatenate(nodes), np.concatenate(weights)
