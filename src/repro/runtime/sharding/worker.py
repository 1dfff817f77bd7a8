"""The per-tile compute kernel: fused sense → exchange → plan.

One :class:`TileTask` is one tile's work for one round: its
:class:`~repro.runtime.sharding.state.ShardedWorldState` view plus the
round's field snapshot. :class:`TileRuntime` executes the tile-safe
phase prefix against it — sense every local alive node, run the beacon
exchange over the owned+ghost point set, plan every owned alive node —
and returns a :class:`TileResult` the barrier merges back.

The same :class:`TileRuntime` code path serves both execution modes:
in-process (the scheduler holds one instance; tiles run sequentially —
deterministic, zero serialization, the default) and pooled (each
process-pool worker builds one instance in :func:`_init_worker` and
:func:`_compute_tile` dispatches to it). Identical numerics by
construction, so pooled and in-process runs are interchangeable.

Bit-identity
------------
For owned nodes, every result is bitwise what the fleet-wide phases
would have produced: sensing reads are per-node pure (pinned by the
``read_many`` property tests), subset neighbour decisions reuse the
spatial index's per-pair contract, local rows ascend by global id so
inbox orderings match, and ``plan_move`` is a pure function. The caller
guarantees the preconditions — calibration done, no sensor-noise RNG, no
loss/netmodel stream — by falling back to the barrier otherwise (see
:class:`~repro.runtime.sharding.scheduler.TileComputePhase`).

Imports from :mod:`repro.sim` stay function-local, mirroring
``cma_phases``: the sim package's init pulls in the engine facade, which
imports the runtime — a module-level import here would cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.cma import (
    CMAPlan,
    LocalSensing,
    estimate_own_curvature,
    plan_move,
)
from repro.fields.base import GridSample
from repro.runtime.sharding.state import ShardedWorldState

__all__ = ["TileTask", "TileResult", "TileRuntime"]


@dataclass
class TileTask:
    """One tile's inputs for one round (picklable across the pool)."""

    #: The tile's owned+ghost view; carries the clock and calibration.
    shard: ShardedWorldState
    #: The round's field snapshot grid (shared, read-only).
    snapshot_xs: np.ndarray
    snapshot_ys: np.ndarray
    snapshot_values: np.ndarray


@dataclass
class TileResult:
    """One tile's outputs: curvatures and plans for its owned alive nodes."""

    tile_index: int
    #: Ascending global ids of the tile's owned alive nodes.
    node_ids: np.ndarray
    #: Normalised own-curvature per ``node_ids`` entry (what the sense
    #: phase writes onto the node).
    curvatures: np.ndarray
    #: One plan per ``node_ids`` entry, same order.
    plans: List[CMAPlan]
    #: Ghost count of the view (halo-overhead observability).
    n_ghosts: int
    #: Total local rows (owned + ghosts).
    n_local: int


class TileRuntime:
    """Executes :class:`TileTask` items against a fixed configuration."""

    def __init__(self, problem, params) -> None:
        from repro.sim.radio import Radio

        self.problem = problem
        self.params = params
        #: Tile-local radio (lossy runs never reach the fan-out).
        self.radio = Radio(problem.rc)

    def compute(self, task: TileTask) -> TileResult:
        from repro.sim.sensing import DiskSensor

        shard = task.shard
        st = shard.state
        params = self.params
        pts = st.positions
        live = st.alive
        scale = st.curvature_scale
        if scale is None:
            raise RuntimeError(
                "tile compute requires a fixed curvature calibration; "
                "round 0 must run at the barrier"
            )
        snapshot = GridSample(
            xs=task.snapshot_xs,
            ys=task.snapshot_ys,
            values=task.snapshot_values,
        )
        sensor = DiskSensor(snapshot, self.problem.rs)

        # Sense every local alive node — ghosts included: their
        # normalised curvature rides in the beacons the owned nodes hear.
        alive_rows = np.flatnonzero(live)
        sensed = sensor.read_many([pts[r] for r in alive_rows])
        curv_local = st.curvature.copy()  # dead rows keep stale values
        raw_own = {}
        sensings = {}
        for r, sensing in zip(alive_rows, sensed):
            curvature = estimate_own_curvature(sensing, pts[r], params)
            raw_own[r] = curvature
            if params.normalize_curvature:
                cap = params.curvature_weight_cap
                thr = params.curvature_threshold
                curvature = float(
                    np.clip(curvature / scale - thr, 0.0, cap)
                )
                if sensing.m:
                    sensing = LocalSensing(
                        positions=sensing.positions,
                        values=sensing.values,
                        curvatures=np.clip(
                            sensing.curvatures / scale - thr, 0.0, cap
                        ),
                    )
            curv_local[r] = curvature
            sensings[r] = sensing

        # Subset beacon exchange: neighbour decisions are per-pair
        # bitwise-identical to the fleet-wide ones; ids= maps beacons
        # back to global node ids.
        inboxes = self.radio.exchange(
            pts, curv_local, alive=live, ids=shard.ids
        )

        node_ids: List[int] = []
        curvatures: List[float] = []
        plans: List[CMAPlan] = []
        for r in alive_rows:
            if not shard.owned[r]:
                continue
            gid = int(shard.ids[r])
            plans.append(plan_move(
                gid,
                pts[r],
                sensings[r],
                inboxes[r],
                params,
                self.problem.region,
                own_curvature=raw_own[r],
            ))
            node_ids.append(gid)
            curvatures.append(float(curv_local[r]))
        return TileResult(
            tile_index=shard.tile_index,
            node_ids=np.asarray(node_ids, dtype=int),
            curvatures=np.asarray(curvatures, dtype=float),
            plans=plans,
            n_ghosts=shard.n_ghosts,
            n_local=len(shard.ids),
        )


# ----------------------------------------------------------------------
# Process-pool entry points (module-level so they pickle by reference
# under every start method).

_RUNTIME: Optional[TileRuntime] = None


def _init_worker(problem, params) -> None:
    """Pool initializer: build the worker's runtime once, not per task."""
    global _RUNTIME
    _RUNTIME = TileRuntime(problem, params)


def _compute_tile(task: TileTask) -> TileResult:
    """Pool task: run one tile through the worker's resident runtime."""
    if _RUNTIME is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("tile worker used before _init_worker")
    return _RUNTIME.compute(task)
