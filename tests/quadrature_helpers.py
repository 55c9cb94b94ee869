"""Quadrature rules shared by the test modules."""
import math

import numpy as np


def gl_panels(a, b, width=0.5, order=24):
    """Composite Gauss-Legendre nodes with a forced breakpoint at 0."""
    pts = [a, 0.0, b] if a < 0.0 < b else [a, b]
    xs, ws = [], []
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    for lo, hi in zip(pts[:-1], pts[1:]):
        n = max(1, int(math.ceil((hi - lo) / width)))
        edges = np.linspace(lo, hi, n + 1)
        for e0, e1 in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (e0 + e1), 0.5 * (e1 - e0)
            xs.append(mid + half * base_x)
            ws.append(half * base_w)
    return np.concatenate(xs), np.concatenate(ws)
