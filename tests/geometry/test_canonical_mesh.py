"""The measurement mesh is a function of the sample set, not its order.

``delaunay_mesh`` (Qhull plus a lexicographic-rank Lawson flip pass) must
give bitwise-identical δ under any permutation of the samples, including
on the cocircular uniform grid and with coincident samples that carry
different values, and must agree triangle for triangle with the
incremental Bowyer--Watson oracle put through the same flip pass.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import (
    perturbed_grid_placement,
    random_placement,
    uniform_grid_placement,
)
from repro.fields.analytic import PeaksField
from repro.fields.base import GridSample, sample_grid
from repro.geometry.delaunay import (
    DelaunayTriangulation,
    canonical_simplices,
    delaunay_mesh,
    lawson_flip,
)
from repro.geometry.interpolation import LinearSurfaceInterpolator
from repro.geometry.primitives import BoundingBox
from repro.surfaces.metrics import volume_difference
from repro.surfaces.reconstruction import reconstruct_surface

_FIELD = PeaksField(side=100.0)
_REFERENCE = sample_grid(_FIELD, _FIELD.region, 41)
_REGION = BoundingBox.square(100.0)

layouts = st.sampled_from(["grid", "jittered", "random"])


def _layout(kind: str, k: int, seed: int) -> np.ndarray:
    if kind == "grid":
        return uniform_grid_placement(_REGION, k)
    if kind == "jittered":
        return perturbed_grid_placement(_REGION, k, jitter=2.0, seed=seed)
    return random_placement(_REGION, k, seed=seed)


def _delta(points: np.ndarray, values: np.ndarray) -> float:
    return reconstruct_surface(_REFERENCE, points, values=values).delta


def _delta_on(points, values, simplices) -> float:
    interp = LinearSurfaceInterpolator(points, values, triangulation=simplices)
    surface = GridSample(
        xs=_REFERENCE.xs,
        ys=_REFERENCE.ys,
        values=interp.evaluate_grid(_REFERENCE.xs, _REFERENCE.ys),
    )
    return volume_difference(_REFERENCE, surface)


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def _with_duplicates(points, values, rng, n_dup):
    """Append exact and 1e-12 near-copies of random samples, new values."""
    src = rng.integers(0, len(points), size=n_dup)
    angle = rng.uniform(0.0, 2.0 * np.pi, size=n_dup)
    gap = np.where(rng.random(n_dup) < 0.5, 0.0, 1e-12)
    copies = points[src] + gap[:, None] * np.column_stack(
        [np.cos(angle), np.sin(angle)]
    )
    return (
        np.vstack([points, copies]),
        np.concatenate([values, rng.normal(size=n_dup)]),
    )


class TestPermutationInvariance:
    @settings(max_examples=25, deadline=None)
    @given(kind=layouts, k=st.integers(3, 400), seed=st.integers(0, 2**16))
    def test_delta_bitwise(self, kind, k, seed):
        rng = np.random.default_rng(seed)
        pts = _layout(kind, k, seed)
        vals = _FIELD.sample(pts) + rng.normal(0.0, 0.1, size=k)
        perm = rng.permutation(k)
        assert _bits(_delta(pts[perm], vals[perm])) == _bits(_delta(pts, vals))

    @settings(max_examples=20, deadline=None)
    @given(
        kind=layouts,
        k=st.integers(3, 400),
        n_dup=st.integers(1, 20),
        seed=st.integers(0, 2**16),
    )
    def test_delta_bitwise_with_duplicates(self, kind, k, n_dup, seed):
        rng = np.random.default_rng(seed)
        pts, vals = _with_duplicates(
            _layout(kind, k, seed), rng.normal(size=k), rng, n_dup
        )
        perm = rng.permutation(len(pts))
        assert _bits(_delta(pts[perm], vals[perm])) == _bits(_delta(pts, vals))
        # Every copy collapses onto its source.
        mesh_pts, _, _ = delaunay_mesh(pts[perm], vals[perm])
        assert len(mesh_pts) == k

    def test_grid_six_permutations(self):
        # On the 10x10 grid every one of the 81 cells is a cocircular quad;
        # input order used to pick their diagonals.
        pts = uniform_grid_placement(_REGION, 100)
        vals = _FIELD.sample(pts)
        rng = np.random.default_rng(0)
        meshes, deltas = set(), set()
        for _ in range(6):
            perm = rng.permutation(len(pts))
            p, v, s = delaunay_mesh(pts[perm], vals[perm])
            meshes.add((p.tobytes(), v.tobytes(), s.tobytes()))
            deltas.add(_bits(_delta(pts[perm], vals[perm])))
        assert len(meshes) == 1
        assert len(deltas) == 1

    def test_coincident_samples_keep_lexicographic_first_value(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [0.0, 0.0]])
        for vals in ([1.0, 2.0, 3.0, -5.0], [-5.0, 2.0, 3.0, 1.0]):
            p, v, _ = delaunay_mesh(pts, np.array(vals))
            assert len(p) == 3
            assert v[0] == -5.0


class TestNoDroppedPoints:
    @settings(max_examples=15, deadline=None)
    @given(
        kind=layouts,
        k=st.integers(3, 300),
        gap=st.sampled_from([2e-9, 1e-8, 1e-6]),
        seed=st.integers(0, 2**16),
    )
    def test_near_pairs_survive(self, kind, k, gap, seed):
        # Pairs just further apart than the 1e-9 dedup tolerance are
        # distinct samples and must all be mesh vertices.
        rng = np.random.default_rng(seed)
        base = _layout(kind, k, seed)
        src = rng.choice(k, size=min(k, 10), replace=False)
        angle = rng.uniform(0.0, 2.0 * np.pi, size=len(src))
        near = base[src] + gap * np.column_stack([np.cos(angle), np.sin(angle)])
        pts = np.vstack([base, near])
        p, _, s = delaunay_mesh(pts, rng.normal(size=len(pts)))
        assert len(p) == len(pts)
        assert np.array_equal(np.unique(s), np.arange(len(p)))

    def test_qhull_coplanar_falls_back_to_incremental_build(self):
        # At 1e4-scale coordinates Qhull merges points 1.5e-9 apart and
        # reports them as coplanar; the builder keeps them anyway.
        from scipy.spatial import Delaunay

        rng = np.random.default_rng(1)
        base = rng.uniform(0.0, 1e4, size=(100, 2))
        angle = rng.uniform(0.0, 2.0 * np.pi, size=20)
        near = base[:20] + 1.5e-9 * np.column_stack([np.cos(angle), np.sin(angle)])
        pts = np.vstack([base, near])
        p, _, s = delaunay_mesh(pts, np.zeros(len(pts)))
        assert len(Delaunay(p).coplanar) > 0
        assert len(p) == len(pts)
        assert np.array_equal(np.unique(s), np.arange(len(p)))


class TestQhullMatchesOracle:
    @settings(max_examples=15, deadline=None)
    @given(kind=layouts, k=st.integers(3, 400), seed=st.integers(0, 2**16))
    def test_same_triangles_and_delta(self, kind, k, seed):
        rng = np.random.default_rng(seed)
        pts = _layout(kind, k, seed)
        vals = _FIELD.sample(pts) + rng.normal(0.0, 0.1, size=k)
        p, v, qhull = delaunay_mesh(pts, vals)
        oracle = canonical_simplices(
            lawson_flip(p, DelaunayTriangulation(p).simplices)
        )
        assert np.array_equal(qhull, oracle)
        assert _bits(_delta_on(p, v, qhull)) == _bits(_delta_on(p, v, oracle))
        assert _bits(_delta_on(p, v, oracle)) == _bits(_delta(pts, vals))

    def test_flip_is_idempotent_and_delaunay(self):
        pts = uniform_grid_placement(_REGION, 400)
        p, _, s = delaunay_mesh(pts, np.zeros(len(pts)))
        assert np.array_equal(canonical_simplices(lawson_flip(p, s)), s)
        dt = DelaunayTriangulation(p)
        assert len(s) == len(dt.simplices) - _flat_count(p, dt.simplices)


def _flat_count(points, simplices) -> int:
    a, b, c = (points[simplices[:, i]] for i in range(3))
    det = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
        c[:, 0] - a[:, 0]
    )
    return int(np.sum(np.abs(det) <= 1e-9))


class TestDegenerateInput:
    @pytest.mark.parametrize(
        "pts",
        [
            np.array([[1.0, 1.0]]),
            np.array([[1.0, 1.0], [2.0, 3.0]]),
            np.array([[0.0, 0.0], [5.0, 5.0], [10.0, 10.0]]),
            np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0 + 1e-12]]),
        ],
    )
    def test_empty_mesh(self, pts):
        p, v, s = delaunay_mesh(pts, np.arange(len(pts), dtype=float))
        assert s.shape == (0, 3)
        assert len(p) == len(v) >= 1
