"""Spatial sharding: partition geometry, tile views, bit-identity.

The headline contract under test: a run executed as T tiles with
ghost-zone exchange (``tiles=T``) is ``np.array_equal`` to the
single-process engine — including under message loss, scheduled
failures, sensor noise and checkpoint/resume — because per-pair radio
decisions, per-read sensing and per-node planning are pure, subsets are
halo-complete, and every non-decomposable round falls back to the
barrier.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cma import CMAParams
from repro.core.problem import OSTDProblem
from repro.fields.greenorbs import GreenOrbsLightField
from repro.geometry.primitives import BoundingBox
from repro.obs import Instrumentation, use_instrumentation
from repro.runtime.checkpoint import CheckpointConfig
from repro.runtime.sharding import (
    ShardedScheduler,
    ShardedWorldState,
    ShardingConfig,
    TilePartition,
    TileRuntime,
    get_sharding_config,
    halo_width,
    resolve_tiles,
    use_sharding,
)
from repro.runtime.state import WorldState
from repro.sim.engine import MobileSimulation
from repro.sim.netmodel import BernoulliLink, NetworkModel, NodeFailureSchedule

REGION = BoundingBox(0.0, 0.0, 40.0, 20.0)


def make_sim(tiles=None, loss=False, failures=False, noise=False, k=25):
    field = GreenOrbsLightField(side=40.0, seed=3, freeze_sun_at=600.0)
    problem = OSTDProblem(
        field=field, region=field.region, k=k, rc=10.0, rs=5.0
    )
    kwargs = {}
    if loss:
        kwargs["network"] = NetworkModel(link=BernoulliLink(0.2, seed=3))
    if failures:
        kwargs["failure_schedule"] = NodeFailureSchedule({602.0: [1, 2]})
    if noise:
        kwargs.update(sensor_noise_std=0.05, sensor_noise_seed=11)
    return MobileSimulation(problem, resolution=41, tiles=tiles, **kwargs)


def assert_same_run(sim, base):
    __tracebackhide__ = True
    assert np.array_equal(sim.positions, base.positions)
    assert np.array_equal(sim.alive_mask, base.alive_mask)
    assert np.array_equal(
        [n.curvature for n in sim.nodes], [n.curvature for n in base.nodes]
    )


class TestHaloWidth:
    def test_max_of_radii(self):
        assert halo_width(CMAParams(rc=10.0, rs=5.0)) == 10.0
        assert halo_width(CMAParams(rc=4.0, rs=6.0)) == 6.0


class TestTilePartition:
    def test_bounds_cover_region_exactly(self):
        part = TilePartition(REGION, 4)
        assert part.n_tiles == 4
        tiles = [part.tile_bounds(t) for t in range(part.n_tiles)]
        assert min(b.xmin for b in tiles) == REGION.xmin
        assert max(b.xmax for b in tiles) == REGION.xmax
        assert min(b.ymin for b in tiles) == REGION.ymin
        assert max(b.ymax for b in tiles) == REGION.ymax
        assert sum(b.area for b in tiles) == pytest.approx(REGION.area)

    def test_wide_region_prefers_columns(self):
        part = TilePartition(REGION, 4)  # region is 2:1 wide
        assert (part.nx, part.ny) == (4, 1)

    def test_explicit_shape_tuple(self):
        part = TilePartition(REGION, (2, 2))
        assert (part.nx, part.ny) == (2, 2)

    def test_invalid_tile_count(self):
        with pytest.raises(ValueError):
            TilePartition(REGION, 0)

    def test_assignment_matches_bounds(self):
        part = TilePartition(REGION, (2, 2))
        rng = np.random.default_rng(5)
        pts = rng.uniform((0, 0), (40, 20), size=(200, 2))
        owner = part.assign(pts)
        for t in range(part.n_tiles):
            b = part.tile_bounds(t)
            mine = pts[owner == t]
            assert np.all(mine[:, 0] >= b.xmin)
            assert np.all(mine[:, 0] <= b.xmax)
            assert np.all(mine[:, 1] >= b.ymin)
            assert np.all(mine[:, 1] <= b.ymax)

    def test_every_position_owned_once(self):
        part = TilePartition(REGION, 4)
        pts = np.array([[0.0, 0.0], [40.0, 20.0], [10.0, 10.0], [39.9, 0.1]])
        owner = part.assign(pts)
        assert owner.shape == (4,)
        assert np.all((owner >= 0) & (owner < part.n_tiles))

    def test_out_of_region_clamped(self):
        part = TilePartition(REGION, 4)
        owner = part.assign(np.array([[-5.0, -5.0], [99.0, 99.0]]))
        assert owner[0] == 0
        assert owner[1] == part.n_tiles - 1

    def test_ghost_mask_closed_halo(self):
        part = TilePartition(REGION, (2, 1))  # split at x = 20
        halo = 3.0
        pts = np.array([
            [5.0, 10.0],    # deep in tile 0
            [23.0, 10.0],   # tile 1, exactly on tile 0's halo edge
            [23.1, 10.0],   # tile 1, just outside the halo
            [19.0, 10.0],   # tile 0 (owned, never a ghost of itself)
        ])
        mask = part.ghost_mask(pts, tile=0, halo=halo)
        assert mask.tolist() == [False, True, False, False]

    def test_ghost_mask_excludes_dead(self):
        part = TilePartition(REGION, (2, 1))
        pts = np.array([[21.0, 10.0], [22.0, 10.0]])
        alive = np.array([True, False])
        mask = part.ghost_mask(pts, tile=0, halo=5.0, alive=alive)
        assert mask.tolist() == [True, False]


def make_world(k=12, seed=0):
    rng = np.random.default_rng(seed)
    return WorldState(
        round_index=3,
        t=610.0,
        positions=rng.uniform((0, 0), (40, 20), size=(k, 2)),
        alive=rng.random(k) > 0.2,
        curvature=rng.normal(size=k),
        distance_travelled=rng.random(k),
        died_at=np.full(k, np.nan),
        curvature_scale=1.5,
    )


class TestShardedWorldState:
    def test_split_owned_sets_partition_the_fleet(self):
        world = make_world()
        part = TilePartition(REGION, 4)
        views = ShardedWorldState.split(world, part, halo=5.0)
        owned = np.concatenate([v.owned_ids for v in views])
        assert sorted(owned.tolist()) == list(range(world.k))

    def test_ghosts_are_alive_neighbours_of_other_tiles(self):
        world = make_world()
        part = TilePartition(REGION, 4)
        for view in ShardedWorldState.split(world, part, halo=5.0):
            for gid in view.ghost_ids:
                assert world.alive[gid]
                assert gid not in view.owned_ids.tolist()

    def test_rows_ascend_by_global_id(self):
        world = make_world()
        views = ShardedWorldState.split(
            world, TilePartition(REGION, 4), halo=5.0
        )
        for view in views:
            assert np.all(np.diff(view.ids) > 0)
            np.testing.assert_array_equal(
                view.state.positions, world.positions[view.ids]
            )

    def test_local_row_lookup(self):
        world = make_world()
        view = ShardedWorldState.split(
            world, TilePartition(REGION, 2), halo=5.0
        )[0]
        for row, gid in enumerate(view.ids):
            assert view.local_row(int(gid)) == row
        with pytest.raises(KeyError):
            view.local_row(10_000)

    def test_merge_into_round_trip(self):
        world = make_world()
        part = TilePartition(REGION, 4)
        views = ShardedWorldState.split(world, part, halo=5.0)
        for view in views:
            view.state.curvature[view.owned] += 100.0
            # Ghost edits must never leak back.
            view.state.curvature[~view.owned] = -999.0
        merged = make_world()
        for view in views:
            view.merge_into(merged)
        np.testing.assert_array_equal(
            merged.curvature, make_world().curvature + 100.0
        )
        np.testing.assert_array_equal(merged.positions, world.positions)


class TestWorldStateTakeScatter:
    def test_take_is_independent(self):
        world = make_world()
        sub = world.take([2, 5, 7])
        sub.positions += 50.0
        sub.curvature[:] = 0.0
        np.testing.assert_array_equal(world.positions, make_world().positions)
        np.testing.assert_array_equal(world.curvature, make_world().curvature)

    def test_scatter_inverts_take(self):
        world = make_world()
        ids = np.array([1, 4, 9])
        sub = world.take(ids)
        sub.positions += 7.0
        world.scatter(ids, sub)
        expected = make_world().positions
        expected[ids] += 7.0
        np.testing.assert_array_equal(world.positions, expected)

    def test_scatter_length_mismatch(self):
        world = make_world()
        with pytest.raises(ValueError):
            world.scatter([1, 2, 3], world.take([1, 2]))


class TestShardingConfig:
    def test_validates_tiles(self):
        with pytest.raises(ValueError):
            ShardingConfig(tiles=0)
        with pytest.raises(ValueError):
            ShardingConfig(tiles=2, workers=0)

    def test_ambient_stack(self):
        assert get_sharding_config() is None
        cfg = ShardingConfig(tiles=2)
        with use_sharding(cfg):
            assert get_sharding_config() is cfg
        assert get_sharding_config() is None

    def test_resolve_tiles_precedence(self):
        assert resolve_tiles(None) is None
        assert resolve_tiles(3).tiles == 3
        ambient = ShardingConfig(tiles=2, workers=4)
        with use_sharding(ambient):
            assert resolve_tiles(None) is ambient
            # Explicit kwarg overrides the tile count, keeps the policy.
            resolved = resolve_tiles(8)
            assert resolved.tiles == 8
            assert resolved.workers == 4


class TestShardedRunIdentity:
    """--tiles runs are np.array_equal to the single-process engine."""

    ROUNDS = 6

    def run_pair(self, tiles, **kwargs):
        base = make_sim(None, **kwargs)
        sim = make_sim(tiles, **kwargs)
        for _ in range(self.ROUNDS):
            base.step()
            sim.step()
        assert_same_run(sim, base)
        sim.close()
        return sim, base

    @pytest.mark.parametrize("tiles", [1, 2, 4])
    def test_clean_run(self, tiles):
        self.run_pair(tiles)

    @pytest.mark.parametrize("tiles", [2, 4])
    def test_under_bernoulli_loss(self, tiles):
        self.run_pair(tiles, loss=True)

    @pytest.mark.parametrize("tiles", [2, 4])
    def test_under_scheduled_failures(self, tiles):
        sim, base = self.run_pair(tiles, failures=True)
        assert not sim.alive_mask.all()  # the schedule actually fired

    @pytest.mark.parametrize("tiles", [2, 4])
    def test_under_sensor_noise(self, tiles):
        self.run_pair(tiles, noise=True)

    def test_all_fault_models_together(self):
        self.run_pair(4, loss=True, failures=True, noise=True)

    def test_records_and_deltas_match(self):
        base = make_sim(None)
        sim = make_sim(4)
        r_base = base.run(self.ROUNDS)
        r_sim = sim.run(self.ROUNDS)
        assert np.array_equal(r_sim.deltas, r_base.deltas)
        assert np.array_equal(r_sim.rmses, r_base.rmses)
        sim.close()

    def test_checkpoint_resume_sharded(self, tmp_path):
        base = make_sim(None)
        r_base = base.run(8)
        sim = make_sim(4)
        sim.run(5, checkpoint=CheckpointConfig(directory=tmp_path, every=5))
        resumed = make_sim(4)
        r2 = resumed.run(
            8, checkpoint=CheckpointConfig(
                directory=tmp_path, every=5, resume=True
            )
        )
        assert np.array_equal(resumed.positions, base.positions)
        assert np.array_equal(r2.deltas[-3:], r_base.deltas[-3:])
        resumed.close()

    def test_process_pool_matches_in_process(self):
        base = make_sim(None)
        with use_sharding(ShardingConfig(tiles=4, workers=2)):
            sim = make_sim()
        assert sim.sharding.workers == 2
        for _ in range(4):
            base.step()
            sim.step()
        assert_same_run(sim, base)
        sim.close()


class TestMigrationAndCounters:
    def test_nodes_migrate_between_tiles(self):
        """CMA contraction moves nodes across tile edges; ownership follows."""
        obs = Instrumentation.in_memory()
        with use_instrumentation(obs):
            sim = make_sim(4)
            part = sim.scheduler.partition
            before = part.assign(sim.positions)
            for _ in range(8):
                sim.step()
        after = part.assign(sim.positions)
        migrated = int((before != after).sum())
        assert migrated > 0
        assert obs.counter("shard.migrations").value >= migrated
        sim.close()

    def test_shard_counters_emitted(self):
        obs = Instrumentation.in_memory()
        with use_instrumentation(obs):
            sim = make_sim(4)
            for _ in range(3):
                sim.step()
        assert obs.counter("shard.rounds").value == 3
        # Round 0 is the calibration round: barrier fallback by design.
        assert obs.counter("shard.fallback_rounds").value == 1
        assert obs.counter("shard.ghost_nodes").value > 0
        assert obs.counter("shard.exchange_bytes").value == (
            24 * obs.counter("shard.ghost_nodes").value
        )
        sim.close()

    def test_fallback_every_round_under_loss(self):
        obs = Instrumentation.in_memory()
        with use_instrumentation(obs):
            sim = make_sim(2, loss=True)
            for _ in range(3):
                sim.step()
        assert obs.counter("shard.fallback_rounds").value == 3
        sim.close()


class TestTileObsShardLogs:
    def test_per_tile_logs_have_run_meta_and_rounds(self, tmp_path):
        import json

        shard_dir = tmp_path / "tiles"
        obs = Instrumentation.in_memory()
        with use_instrumentation(obs):
            with use_sharding(ShardingConfig(
                tiles=2,
                obs_shard_dir=str(shard_dir),
                run_meta={"scenario_id": "unit", "seed": 9,
                          "params": {"k": 25}},
            )):
                sim = make_sim()
            for _ in range(3):
                sim.step()
            sim.close()
        files = sorted(shard_dir.glob("tile-*.jsonl"))
        assert len(files) == 2
        for tile, path in enumerate(files):
            events = [json.loads(line) for line in path.read_text().splitlines()]
            head = events[0]
            assert head["event"] == "run_meta"
            assert head["scenario_id"] == "unit"
            assert head["seed"] == 9
            assert head["shard"] is True
            assert head["tile"] == tile
            rounds = [e for e in events if e["event"] == "shard.tile"]
            assert [e["round"] for e in rounds] == [0, 1, 2]
            assert all(e["tile"] == tile for e in rounds)
            assert sum(e["owned"] for e in rounds) > 0


class TestGuards:
    def test_tile_runtime_requires_calibration(self):
        sim = make_sim()
        world = sim.capture_state()
        world.curvature_scale = None
        part = TilePartition(sim.problem.region, 2)
        view = ShardedWorldState.split(world, part, halo=10.0)[0]
        runtime = TileRuntime(sim.problem, sim.params)
        from repro.fields.base import sample_grid
        from repro.runtime.sharding.worker import TileTask

        snap = sample_grid(
            sim.problem.field, sim.problem.region, 21, t=sim.t
        )
        task = TileTask(
            shard=view, snapshot_xs=snap.xs, snapshot_ys=snap.ys,
            snapshot_values=snap.values,
        )
        with pytest.raises(RuntimeError, match="calibration"):
            runtime.compute(task)

    def test_scheduler_rejects_unknown_tile_safe_run(self):
        class WeirdPhase:
            name = "weird"
            span_name = None
            tile_safe = True

            def run(self, ctx):
                pass

        sim = make_sim()
        with pytest.raises(ValueError, match="tile-safe run"):
            ShardedScheduler(
                sim,
                phases=[WeirdPhase()],
                config=ShardingConfig(tiles=2),
            )

    def test_close_is_idempotent(self):
        sim = make_sim(2)
        sim.close()
        sim.close()
