"""Property-based and differential tests for ``Radio.neighbor_ids``.

The unit-disk neighbourhood is the foundation everything above it trusts
(exchange, LCM, the netmodel pipeline). Hypothesis checks its algebraic
invariants on arbitrary point sets; networkx's geometric-graph builder
provides an independent implementation to differential-test against,
including the boundary case of two nodes at *exactly* distance Rc.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geometry import spatial_index
from repro.sim.radio import Radio

RC = 5.0

# Integer coordinates keep pairwise distances exactly representable, so
# the boundary predicate (dist <= Rc) is unambiguous — e.g. (0,0)-(3,4)
# sits exactly on the disk edge.
int_points = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
    min_size=1,
    max_size=14,
)
float_points = st.lists(
    st.tuples(
        st.floats(0.0, 30.0, allow_nan=False),
        st.floats(0.0, 30.0, allow_nan=False),
    ),
    min_size=1,
    max_size=14,
)


def neighbor_sets(points, alive=None):
    ids = Radio(RC).neighbor_ids(np.asarray(points, dtype=float), alive=alive)
    return [set(nbrs) for nbrs in ids]


class TestInvariants:
    @given(points=float_points)
    def test_symmetry(self, points):
        sets = neighbor_sets(points)
        for i, nbrs in enumerate(sets):
            for j in nbrs:
                assert i in sets[j]

    @given(points=float_points)
    def test_self_exclusion(self, points):
        for i, nbrs in enumerate(neighbor_sets(points)):
            assert i not in nbrs

    @given(points=float_points, data=st.data())
    def test_dead_nodes_never_appear(self, points, data):
        alive = np.array(
            data.draw(
                st.lists(
                    st.booleans(),
                    min_size=len(points),
                    max_size=len(points),
                )
            )
        )
        sets = neighbor_sets(points, alive=alive)
        dead = {i for i, a in enumerate(alive) if not a}
        for i, nbrs in enumerate(sets):
            assert not (nbrs & dead)
            if i in dead:
                assert nbrs == set()

    @given(points=float_points)
    def test_killing_a_node_only_removes_it(self, points):
        """Masking node 0 dead removes exactly node 0 from the graph."""
        full = neighbor_sets(points)
        alive = np.ones(len(points), dtype=bool)
        alive[0] = False
        masked = neighbor_sets(points, alive=alive)
        assert masked[0] == set()
        for i in range(1, len(points)):
            assert masked[i] == full[i] - {0}


class TestNetworkxDifferential:
    nx = pytest.importorskip("networkx")

    def unit_disk_graph(self, points):
        """Independent unit-disk adjacency: edge iff distance <= Rc."""
        g = self.nx.Graph()
        g.add_nodes_from(range(len(points)))
        pts = np.asarray(points, dtype=float)
        g.add_edges_from(
            (i, j)
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
            if float(np.hypot(*(pts[i] - pts[j]))) <= RC
        )
        return g

    @given(points=int_points)
    def test_matches_networkx_adjacency(self, points):
        g = self.unit_disk_graph(points)
        for i, nbrs in enumerate(neighbor_sets(points)):
            assert nbrs == set(g.neighbors(i))

    @given(points=float_points)
    def test_matches_on_float_positions(self, points):
        g = self.unit_disk_graph(points)
        for i, nbrs in enumerate(neighbor_sets(points)):
            assert nbrs == set(g.neighbors(i))

    def test_exactly_at_rc_is_a_neighbor(self):
        """(0,0)-(3,4) is at distance exactly 5 = Rc: in range, both ways."""
        points = [(0.0, 0.0), (3.0, 4.0)]
        assert neighbor_sets(points) == [{1}, {0}]
        g = self.unit_disk_graph(points)
        assert set(g.neighbors(0)) == {1}

    def test_just_past_rc_is_not(self):
        points = [(0.0, 0.0), (3.0, 4.0 + 1e-9)]
        assert neighbor_sets(points) == [set(), set()]

    def test_random_geometric_graph_agrees(self):
        """Cross-check against networkx's own geometric-graph builder."""
        rng = np.random.default_rng(42)
        pts = rng.uniform(0, 20, size=(25, 2))
        pos = {i: tuple(p) for i, p in enumerate(pts)}
        g = self.nx.random_geometric_graph(25, RC, pos=pos)
        for i, nbrs in enumerate(neighbor_sets(pts)):
            assert nbrs == set(g.neighbors(i))

    def test_grid_path_agrees_with_networkx(self):
        """Above DENSE_CROSSOVER, neighbor_ids routes through the cell
        grid — differential it against networkx at fleet scale."""
        rng = np.random.default_rng(9)
        n = 120  # > DENSE_CROSSOVER
        pts = rng.uniform(0, 40, size=(n, 2))
        pos = {i: tuple(p) for i, p in enumerate(pts)}
        g = self.nx.random_geometric_graph(n, RC, pos=pos)
        for i, nbrs in enumerate(neighbor_sets(pts)):
            assert nbrs == set(g.neighbors(i))


class TestGridVsDensePath:
    """The two neighbor_ids implementations must agree bit for bit.

    The hypothesis tests patch the crossover directly (function-scoped
    fixtures don't mix with ``@given``) and restore it in ``finally``.
    """

    def both_paths(self, points, alive=None):
        pts = np.asarray(points, dtype=float)
        original = spatial_index.DENSE_CROSSOVER
        try:
            spatial_index.DENSE_CROSSOVER = 10**9
            dense = Radio(RC).neighbor_ids(pts, alive=alive)
            spatial_index.DENSE_CROSSOVER = 0
            grid = Radio(RC).neighbor_ids(pts, alive=alive)
        finally:
            spatial_index.DENSE_CROSSOVER = original
        return dense, grid

    @given(points=float_points)
    def test_float_positions(self, points):
        dense, grid = self.both_paths(points)
        assert dense == grid

    @given(points=int_points, data=st.data())
    def test_exact_boundary_with_dead_nodes(self, points, data):
        alive = np.array(
            data.draw(
                st.lists(
                    st.booleans(),
                    min_size=len(points),
                    max_size=len(points),
                )
            )
        )
        dense, grid = self.both_paths(points, alive=alive)
        assert dense == grid

    def test_fleet_scale(self):
        rng = np.random.default_rng(13)
        pts = rng.uniform(0, 60, size=(400, 2))
        dense, grid = self.both_paths(pts)
        assert dense == grid
