"""The sharded scheduler: per-tile phase pipelines with a round barrier.

:class:`ShardedScheduler` is a drop-in :class:`~repro.runtime.scheduler.
Scheduler` whose phase list has the maximal contiguous run of tile-safe
phases (sense → exchange → plan, see :func:`repro.runtime.phase.
tile_safe`) fused into one :class:`TileComputePhase`. Each round that
phase:

1. partitions the fleet by position (stateless, so tile migration is
   free), builds one :class:`~repro.runtime.sharding.state.
   ShardedWorldState` per tile — owned nodes plus the ghost halo —
2. fans the fused sense/exchange/plan computation out per tile, either
   in-process (default: deterministic, zero serialization) or on a
   persistent :class:`~concurrent.futures.ProcessPoolExecutor` (the
   harness's pool + shard-file pattern from the experiment fan-out), and
3. merges the owned nodes' curvatures and plans back into the canonical
   engine state at the barrier.

Everything after the barrier — constrained movement and LCM (which read
*live*, already-moved neighbour positions in global node order), trace
sampling, measurement — runs on the stock phases against the canonical
state, so checkpoints, obs logs and ``capture_state()``/
``restore_state()`` keep their formats unchanged, and netmodel beacon
delivery (when configured) routes through the barrier exchange rather
than per tile.

Barrier fallback
----------------
Whenever a round's tile-safe prefix is *not* decomposable — the round-0
curvature calibration (a global mean), sensor-noise reads (one RNG
stream drawn in fleet-wide node order) or the netmodel pipeline
(RNG/state consumed in fleet-wide directed-pair order) — the fused phase simply runs the original phases at the barrier.
That is what makes the headline contract unconditional: runs with
``--tiles`` 1..4 are ``np.array_equal`` to the single-process engine
*including* under faults, noise and checkpoint/resume.

Observability: ``shard.*`` counters (ghost size, migrations, exchange
bytes, fallback rounds) land in the metrics registry, and — when the
config names a shard directory — each tile gets its own JSONL shard log
headed by the same ``run_meta`` event as the parent run log.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

import numpy as np

from repro.fields.base import sample_grid
from repro.runtime.phase import Phase, RoundContext, tile_safe
from repro.runtime.scheduler import Scheduler
from repro.runtime.sharding.partition import TilePartition, halo_width
from repro.runtime.sharding.state import ShardedWorldState
from repro.runtime.sharding.worker import (
    TileResult,
    TileRuntime,
    TileTask,
    _compute_tile,
    _init_worker,
)
from repro.runtime.state import WorldState

__all__ = [
    "ShardingConfig",
    "ShardedScheduler",
    "TileComputePhase",
    "get_sharding_config",
    "resolve_tiles",
    "use_sharding",
]

#: Estimated wire size of one beacon payload (x, y, G as float64) — the
#: unit of the ``shard.exchange_bytes`` counter: every ghost entry is one
#: beacon's state shipped across a tile boundary per round.
BEACON_BYTES = 24

#: The only tile-safe prefix the fan-out currently implements.
_FUSABLE = ("sense", "exchange", "plan")


@dataclass(frozen=True)
class ShardingConfig:
    """How a run shards: tile count, execution mode, observability.

    ``workers=None`` (default) runs tiles sequentially in-process —
    bit-identical to the pooled mode and the right choice on machines
    without spare cores; ``workers=N`` keeps a persistent N-process pool.
    ``obs_shard_dir`` turns on per-tile JSONL shard logs (headed by
    ``run_meta`` built from ``run_meta``'s scenario/seed/params fields).
    """

    tiles: int
    workers: Optional[int] = None
    obs_shard_dir: Optional[str] = None
    run_meta: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if int(self.tiles) < 1:
            raise ValueError(f"tiles must be >= 1, got {self.tiles}")
        if self.workers is not None and int(self.workers) < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


_current: List[ShardingConfig] = []


def get_sharding_config() -> Optional[ShardingConfig]:
    """The ambient sharding policy, or ``None`` when sharding is off."""
    return _current[-1] if _current else None


@contextmanager
def use_sharding(config: ShardingConfig) -> Iterator[ShardingConfig]:
    """Install ``config`` as the ambient sharding policy for a region.

    Mobile engines constructed inside the ``with`` body without an
    explicit ``tiles=`` argument pick this up — how ``repro-exp run
    --tiles N`` reaches the simulations an experiment builds internally.
    """
    _current.append(config)
    try:
        yield config
    finally:
        _current.pop()


class TileComputePhase:
    """The fused tile-safe prefix: sense → exchange → plan, per tile."""

    name = "tile_compute"
    span_name = "tile_compute"

    def __init__(self, scheduler: "ShardedScheduler", inner: List[Phase]) -> None:
        self._scheduler = scheduler
        #: The original phase instances, kept for the barrier fallback
        #: (their state — e.g. the exchange phase's message tracer —
        #: stays live across modes).
        self.inner = list(inner)

    # ------------------------------------------------------------------
    def _must_fall_back(self, engine) -> Optional[str]:
        """Why this round cannot fan out, or ``None`` if it can."""
        if engine._curvature_scale is None:
            return "calibration"
        if engine.sensor_noise_std > 0.0:
            return "sensor_noise"
        if getattr(engine, "network", None) is not None:
            return "netmodel"
        return None

    def run(self, ctx: RoundContext) -> None:
        engine = ctx.engine
        sched = self._scheduler
        assignment = sched.partition.assign(ctx.positions)
        migrations = sched.count_migrations(assignment)
        reason = self._must_fall_back(engine)
        if reason is not None:
            for phase in self.inner:
                phase.run(ctx)
            sched.record_round_stats(
                ctx, assignment, migrations, n_ghosts=0, fallback=reason
            )
            return

        # Build the round's snapshot once at the barrier (measure needs
        # it too) and ship it to every tile.
        ctx.snapshot = sample_grid(
            engine.problem.field, engine.problem.region, engine.resolution,
            t=engine.t,
        )
        k = len(engine.nodes)
        world = WorldState(
            round_index=engine.round_index,
            t=engine.t,
            positions=ctx.positions,
            alive=ctx.alive_mask,
            curvature=np.asarray(
                [n.curvature for n in engine.nodes], dtype=float
            ),
            distance_travelled=np.asarray(
                [n.distance_travelled for n in engine.nodes], dtype=float
            ),
            died_at=np.asarray(
                [np.nan if n.died_at is None else n.died_at
                 for n in engine.nodes],
                dtype=float,
            ),
            curvature_scale=engine._curvature_scale,
        )
        shards = ShardedWorldState.split(
            world, sched.partition, sched.halo, assignment=assignment
        )
        tasks = [
            TileTask(
                shard=shard,
                snapshot_xs=ctx.snapshot.xs,
                snapshot_ys=ctx.snapshot.ys,
                snapshot_values=ctx.snapshot.values,
            )
            for shard in shards
            if bool((shard.owned & shard.state.alive).any())
        ]
        results = sched.execute(tasks)

        # Barrier merge: owned curvatures back onto the nodes, plans
        # re-ordered into the fleet-wide ascending-id order the
        # downstream (order-dependent) phases expect.
        plans_by_id: Dict[int, Any] = {}
        n_ghosts = 0
        for result in results:
            n_ghosts += result.n_ghosts
            for gid, curv in zip(result.node_ids, result.curvatures):
                engine.nodes[int(gid)].curvature = float(curv)
            for gid, plan in zip(result.node_ids, result.plans):
                plans_by_id[int(gid)] = plan
        ctx.plans = [plans_by_id[i] for i in ctx.alive_ids]
        sched.record_round_stats(
            ctx, assignment, migrations, n_ghosts=n_ghosts, fallback=None
        )


class ShardedScheduler(Scheduler):
    """A :class:`Scheduler` that executes the round as T spatial tiles.

    Same middleware threading, same ``advance`` hook, same return value
    — only the phase list differs (the tile-safe prefix is fused into a
    :class:`TileComputePhase`) plus the execution resources it owns: the
    tile partition, the optional persistent process pool, and the
    optional per-tile obs shard writers. ``close()`` releases both; the
    scheduler also registers a finalizer so an unclosed engine leaks no
    worker processes.
    """

    def __init__(
        self,
        engine: Any,
        phases: Iterable[Phase],
        middleware: Iterable[Any] = (),
        advance: Optional[Callable[[RoundContext], None]] = None,
        config: Optional[ShardingConfig] = None,
    ) -> None:
        self.config = config if config is not None else ShardingConfig(tiles=1)
        self.engine = engine
        self.partition = TilePartition(
            engine.problem.region, self.config.tiles
        )
        self.halo = halo_width(engine.params)
        super().__init__(
            self._fuse(list(phases)), middleware=middleware, advance=advance
        )
        #: In-process tile runtime (also the reference the pool replays).
        self._runtime: Optional[TileRuntime] = None
        self._pool = None
        self._pool_finalizer = None
        self._tile_obs: Optional[list] = None
        #: Previous round's tile assignment (migration accounting only —
        #: never feeds the computation, so it is transient state that
        #: resets on restore without touching checkpoint formats).
        self._last_assignment: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def _fuse(self, phases: List[Phase]) -> List[Phase]:
        fused: List[Phase] = []
        run: List[Phase] = []
        for phase in phases:
            if tile_safe(phase):
                run.append(phase)
                continue
            if run:
                fused.append(self._make_compute(run))
                run = []
            fused.append(phase)
        if run:
            fused.append(self._make_compute(run))
        return fused

    def _make_compute(self, run: List[Phase]) -> TileComputePhase:
        names = tuple(p.name for p in run)
        if names != _FUSABLE:
            raise ValueError(
                "sharded execution currently implements the "
                f"{'->'.join(_FUSABLE)} prefix; got a tile-safe run "
                f"{'->'.join(names)}"
            )
        return TileComputePhase(self, run)

    # ------------------------------------------------------------------
    def execute(self, tasks: List[TileTask]) -> List[TileResult]:
        """Run the round's tile tasks, in-process or on the pool."""
        workers = self.config.workers
        if workers is None or len(tasks) <= 1:
            if self._runtime is None:
                self._runtime = TileRuntime(
                    self.engine.problem, self.engine.params
                )
            return [self._runtime.compute(task) for task in tasks]
        pool = self._ensure_pool()
        futures = [pool.submit(_compute_tile, task) for task in tasks]
        return [f.result() for f in futures]

    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(
                max_workers=self.config.workers,
                initializer=_init_worker,
                initargs=(self.engine.problem, self.engine.params),
            )
            self._pool_finalizer = weakref.finalize(
                self, _shutdown_pool, self._pool
            )
        return self._pool

    # ------------------------------------------------------------------
    def count_migrations(self, assignment: np.ndarray) -> int:
        """Nodes whose owner tile changed since the previous round."""
        previous = self._last_assignment
        self._last_assignment = assignment
        if previous is None or len(previous) != len(assignment):
            return 0
        return int((previous != assignment).sum())

    def reset_transients(self) -> None:
        """Drop cross-round accounting state (after a restore)."""
        self._last_assignment = None

    def record_round_stats(
        self,
        ctx: RoundContext,
        assignment: np.ndarray,
        migrations: int,
        n_ghosts: int,
        fallback: Optional[str],
    ) -> None:
        """Fold the round's shard.* counters and per-tile shard events."""
        obs = self.engine.obs
        if obs.enabled:
            obs.counter("shard.rounds").inc()
            if fallback is not None:
                obs.counter("shard.fallback_rounds").inc()
            if migrations:
                obs.counter("shard.migrations").inc(migrations)
            if n_ghosts:
                obs.counter("shard.ghost_nodes").inc(n_ghosts)
                obs.counter("shard.exchange_bytes").inc(
                    BEACON_BYTES * n_ghosts
                )
        writers = self._tile_writers(obs)
        if writers is not None:
            counts = np.bincount(assignment, minlength=self.partition.n_tiles)
            for tile, tile_obs in enumerate(writers):
                tile_obs.emit(
                    "shard.tile",
                    round=self.engine.round_index,
                    tile=tile,
                    owned=int(counts[tile]),
                    migrations=migrations,
                    fallback=fallback or "",
                )

    def _tile_writers(self, obs) -> Optional[list]:
        """Per-tile shard-log instrumentations, created on first use."""
        if self.config.obs_shard_dir is None or not obs.enabled:
            return None
        if self._tile_obs is None:
            from repro.obs import Instrumentation
            from repro.obs.instrument import emit_run_meta

            shard_dir = Path(self.config.obs_shard_dir)
            shard_dir.mkdir(parents=True, exist_ok=True)
            meta = self.config.run_meta or {}
            self._tile_obs = []
            for tile in range(self.partition.n_tiles):
                tile_obs = Instrumentation.to_jsonl(
                    shard_dir / f"tile-{tile:02d}.jsonl", flush_every=1
                )
                emit_run_meta(
                    tile_obs,
                    scenario_id=str(meta.get("scenario_id", "sharded-run")),
                    seed=meta.get("seed"),
                    params=meta.get("params"),
                    shard=True,
                    tile=tile,
                    tiles=self.partition.n_tiles,
                )
                self._tile_obs.append(tile_obs)
        return self._tile_obs

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down and close any per-tile shard logs."""
        if self._pool is not None:
            if self._pool_finalizer is not None:
                self._pool_finalizer.detach()
                self._pool_finalizer = None
            _shutdown_pool(self._pool)
            self._pool = None
        if self._tile_obs is not None:
            for tile_obs in self._tile_obs:
                tile_obs.close()
            self._tile_obs = None


def _shutdown_pool(pool) -> None:
    pool.shutdown(wait=True, cancel_futures=True)


def resolve_tiles(
    tiles: Optional[int], config: Optional[ShardingConfig] = None
) -> Optional[ShardingConfig]:
    """Resolve an engine's effective config: explicit kwarg over ambient.

    ``config`` defaults to :func:`get_sharding_config`. An explicit
    ``tiles`` overrides the ambient tile count while keeping the rest of
    the ambient policy (workers, shard-log dir); with neither, sharding
    is off and the caller should build a plain scheduler.
    """
    if config is None:
        config = get_sharding_config()
    if tiles is None:
        return config
    if config is None:
        return ShardingConfig(tiles=int(tiles))
    return replace(config, tiles=int(tiles))
