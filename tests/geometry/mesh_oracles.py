"""Test-only reference implementations of the geometry fast paths.

Each oracle evaluates the same floating-point formula as the production
kernel it checks, one triangle (or one whole-array pass) at a time, so
the fast path must agree with it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.delaunay import DelaunayTriangulation
from repro.geometry.interpolation import LinearSurfaceInterpolator
from repro.geometry.predicates import EPSILON, barycentric_weights, incircle_det


def bad_triangle_slots_reference(
    dt: DelaunayTriangulation, px: float, py: float
) -> np.ndarray:
    """Determinant-form bad-triangle scan over ``dt``'s live slots.

    The in-circle determinant of :func:`repro.geometry.predicates.incircle`
    evaluated over every slot; the oracle for the cached-circumcircle scan
    ``DelaunayTriangulation._bad_triangle_slots``.
    """
    n = dt._nt
    det = incircle_det(*dt._tri_xy[:, :n], px, py)
    orient = dt._tri_orient[:n]
    bad = dt._tri_live[:n] & (
        ((orient > 0) & (det > EPSILON)) | ((orient < 0) & (-det > EPSILON))
    )
    return np.flatnonzero(bad)


def extrapolate_clamped_reference(
    interp: LinearSurfaceInterpolator, px: np.ndarray, py: np.ndarray
) -> np.ndarray:
    """Sequential per-triangle clamped extrapolation.

    The oracle for ``LinearSurfaceInterpolator._extrapolate_clamped``:
    every triangle proposes its clamped-barycentric value, and the first
    strictly least-violated triangle in ``simplices`` order wins.
    """
    best_violation = np.full(px.shape, np.inf, dtype=float)
    best_value = np.full(px.shape, np.nan, dtype=float)
    for ia, ib, ic in interp.simplices:
        a, b, c = interp.points[ia], interp.points[ib], interp.points[ic]
        wa, wb, wc = barycentric_weights(px, py, a, b, c)
        violation = -np.minimum(np.minimum(wa, wb), wc)
        ca = np.clip(wa, 0.0, None)
        cb = np.clip(wb, 0.0, None)
        cc = np.clip(wc, 0.0, None)
        value = (
            ca * interp.values[ia] + cb * interp.values[ib] + cc * interp.values[ic]
        ) / (ca + cb + cc)
        better = violation < best_violation
        best_violation[better] = violation[better]
        best_value[better] = value[better]
    return best_value
