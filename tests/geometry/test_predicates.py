"""Unit and property tests for geometric predicates."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.predicates import (
    barycentric_weights,
    circumcenter,
    collinear,
    incircle,
    incircle_perturbed,
    orientation,
    point_in_triangle,
    segments_intersect,
    signed_area,
    triangle_area,
)

import numpy as np

coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


class TestOrientation:
    def test_ccw(self):
        assert orientation((0, 0), (1, 0), (0, 1)) == 1

    def test_cw(self):
        assert orientation((0, 0), (0, 1), (1, 0)) == -1

    def test_collinear(self):
        assert orientation((0, 0), (1, 1), (2, 2)) == 0
        assert collinear((0, 0), (1, 1), (2, 2))

    @given(coord, coord, coord, coord, coord, coord)
    def test_antisymmetry(self, ax, ay, bx, by, cx, cy):
        assert orientation((ax, ay), (bx, by), (cx, cy)) == -orientation(
            (bx, by), (ax, ay), (cx, cy)
        )

    @given(coord, coord, coord, coord, coord, coord)
    def test_cyclic_invariance(self, ax, ay, bx, by, cx, cy):
        a, b, c = (ax, ay), (bx, by), (cx, cy)
        assert orientation(a, b, c) == orientation(b, c, a) == orientation(c, a, b)


class TestArea:
    def test_signed_area_sign(self):
        assert signed_area((0, 0), (1, 0), (0, 1)) == 0.5
        assert signed_area((0, 0), (0, 1), (1, 0)) == -0.5

    def test_triangle_area(self):
        assert triangle_area((0, 0), (4, 0), (0, 3)) == 6.0
        assert triangle_area((0, 0), (2, 2), (4, 4)) == 0.0


class TestIncircle:
    def test_inside(self):
        # Unit circle through (1,0), (0,1), (-1,0); origin is inside.
        assert incircle((1, 0), (0, 1), (-1, 0), (0, 0)) == 1

    def test_outside(self):
        assert incircle((1, 0), (0, 1), (-1, 0), (5, 5)) == -1

    def test_on_circle_is_tie(self):
        assert incircle((1, 0), (0, 1), (-1, 0), (0, -1)) == 0

    def test_orientation_independent(self):
        # Clockwise triangle must give the same classification.
        assert incircle((1, 0), (-1, 0), (0, 1), (0, 0)) == 1

    def test_degenerate_triangle(self):
        assert incircle((0, 0), (1, 1), (2, 2), (0.5, 0.5)) == -1

    @given(coord, coord)
    def test_vertex_never_strictly_inside(self, dx, dy):
        a, b, c = (0.0, 0.0), (10.0, dx % 7.0), (dy % 5.0, 10.0)
        if orientation(a, b, c) == 0:
            return
        for v in (a, b, c):
            assert incircle(a, b, c, v) <= 0


#: The 12 integer points on the circle x^2 + y^2 = 25, counter-clockwise.
_CIRCLE5 = sorted(
    [(x, y) for x in range(-5, 6) for y in range(-5, 6) if x * x + y * y == 25],
    key=lambda p: math.atan2(p[1], p[0]),
)


class TestIncirclePerturbed:
    """Symbolic-perturbation tie-break for cocircular quads."""

    @staticmethod
    def _legal(quad, ranks, diagonal):
        # Diagonal 0 joins quad[0]-quad[2], diagonal 1 joins quad[1]-quad[3].
        # The diagonal is legal when the far vertex is outside the circle of
        # either triangle next to it; both triangles must agree.
        i = diagonal
        p = [quad[(i + j) % 4] for j in range(4)]
        r = [ranks[(i + j) % 4] for j in range(4)]
        one = incircle_perturbed(p[0], p[1], p[2], p[3], r)
        two = incircle_perturbed(p[2], p[3], p[0], p[1], r[2:] + r[:2])
        assert one == two
        return one < 0

    @given(
        st.lists(st.integers(0, 11), min_size=4, max_size=4, unique=True),
        st.integers(1, 50),
        st.integers(-100, 100),
        st.integers(-100, 100),
        st.permutations([0, 1, 2, 3]),
    )
    def test_cocircular_quad_has_one_legal_diagonal(
        self, picks, scale, ox, oy, ranks
    ):
        quad = [
            (ox + scale * _CIRCLE5[i][0], oy + scale * _CIRCLE5[i][1])
            for i in sorted(picks)
        ]
        assert incircle(*quad) == 0
        legal = [self._legal(quad, list(ranks), d) for d in (0, 1)]
        assert legal.count(True) == 1

    @given(
        st.integers(-50, 50),
        st.integers(-50, 50),
        st.integers(1, 40),
        st.integers(1, 40),
    )
    def test_rectangle_lexicographic_rank(self, x0, y0, w, h):
        # Every grid cell is a cocircular rectangle; with lexicographic
        # ranks the legal diagonal is the same one in every cell.
        quad = [(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)]
        ranks = [0, 2, 3, 1]  # lexicographic (x, y) order of the corners
        assert not self._legal(quad, ranks, 0)
        assert self._legal(quad, ranks, 1)

    @given(coord, coord, coord, coord, coord, coord, coord, coord,
           st.permutations([0, 1, 2, 3]))
    def test_equals_incircle_off_ties(self, ax, ay, bx, by, cx, cy, dx, dy, r):
        a, b, c, d = (ax, ay), (bx, by), (cx, cy), (dx, dy)
        if orientation(a, b, c) < 0:
            b, c = c, b  # the perturbed test takes (a, b, c) counter-clockwise
        plain = incircle(a, b, c, d)
        perturbed = incircle_perturbed(a, b, c, d, r)
        if plain != 0:
            assert perturbed == plain
        else:
            assert perturbed in (-1, 1)

    def test_vectorised_matches_scalar(self):
        rng = np.random.default_rng(3)
        pts = rng.integers(-3, 4, size=(200, 4, 2)).astype(float)
        ranks = np.argsort(rng.random((200, 4)), axis=1).T
        out = incircle_perturbed(*pts.transpose(1, 0, 2), ranks)
        for i in range(200):
            assert out[i] == incircle_perturbed(*pts[i], ranks[:, i])


class TestPointInTriangle:
    def test_inside(self):
        assert point_in_triangle((1, 1), (0, 0), (4, 0), (0, 4))

    def test_boundary(self):
        assert point_in_triangle((2, 0), (0, 0), (4, 0), (0, 4))
        assert point_in_triangle((0, 0), (0, 0), (4, 0), (0, 4))

    def test_outside(self):
        assert not point_in_triangle((3, 3), (0, 0), (4, 0), (0, 4))

    def test_clockwise_triangle(self):
        assert point_in_triangle((1, 1), (0, 0), (0, 4), (4, 0))


class TestCircumcenter:
    def test_right_triangle(self):
        center, radius = circumcenter((0, 0), (2, 0), (0, 2))
        assert math.isclose(center.x, 1.0)
        assert math.isclose(center.y, 1.0)
        assert math.isclose(radius, math.sqrt(2))

    def test_collinear_raises(self):
        with pytest.raises(ValueError):
            circumcenter((0, 0), (1, 1), (2, 2))

    @given(coord, coord, coord, coord, coord, coord)
    def test_equidistance(self, ax, ay, bx, by, cx, cy):
        a, b, c = (ax, ay), (bx, by), (cx, cy)
        if orientation(a, b, c) == 0:
            return
        center, radius = circumcenter(a, b, c)
        for p in (a, b, c):
            assert math.isclose(
                center.distance_to(type(center).of(p)), radius,
                rel_tol=1e-6, abs_tol=1e-6,
            )


class TestSegments:
    def test_crossing(self):
        assert segments_intersect((0, 0), (2, 2), (0, 2), (2, 0))

    def test_disjoint(self):
        assert not segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))

    def test_touching_endpoint(self):
        assert segments_intersect((0, 0), (1, 1), (1, 1), (2, 0))

    def test_collinear_overlap(self):
        assert segments_intersect((0, 0), (2, 0), (1, 0), (3, 0))


class TestBarycentric:
    def test_vertices(self):
        a, b, c = (0.0, 0.0), (4.0, 0.0), (0.0, 4.0)
        wa, wb, wc = barycentric_weights(
            np.array([0.0, 4.0, 0.0]), np.array([0.0, 0.0, 4.0]), a, b, c
        )
        assert np.allclose(wa, [1, 0, 0])
        assert np.allclose(wb, [0, 1, 0])
        assert np.allclose(wc, [0, 0, 1])

    def test_weights_sum_to_one(self):
        a, b, c = (0.0, 0.0), (5.0, 1.0), (2.0, 7.0)
        px = np.linspace(-3, 8, 13)
        py = np.linspace(-2, 9, 13)
        wa, wb, wc = barycentric_weights(px, py, a, b, c)
        assert np.allclose(wa + wb + wc, 1.0)

    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            barycentric_weights(
                np.array([0.0]), np.array([0.0]), (0, 0), (1, 1), (2, 2)
            )
