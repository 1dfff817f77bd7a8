"""Benchmarks of the spatially sharded step (PR 9).

One full CMA round at constant node density, executed as ``tiles``
spatial tiles through :class:`repro.runtime.sharding.ShardedScheduler`
(in-process tile execution — the deterministic mode). ``tiles=1``
isolates the sharding machinery's own overhead against the unsharded
``test_bench_step_scaling`` series; 2 and 4 tiles measure what the
fan-out costs (split + ghost halo + merge) and what it saves (each tile
radio works a fraction of the fleet).

Honest-hardware note: these cases time the in-process (sequential)
sharded path, whose wins can only be algorithmic (smaller per-tile
neighbor problems), not parallel. Per-tile *processes*
(``ShardingConfig(workers=N)``) need spare cores to pay for their
serialization; time them separately on the target host.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.problem import OSTDProblem
from repro.fields.greenorbs import GreenOrbsLightField
from repro.sim.engine import MobileSimulation


def _sharded_step_simulation(k: int, tiles: int) -> MobileSimulation:
    """Mirror of test_bench_micro._step_simulation, plus tiling."""
    side = 100.0 * float(np.sqrt(k / 100.0))
    field = GreenOrbsLightField(side=side, seed=7, freeze_sun_at=600.0)
    problem = OSTDProblem(
        k=k, rc=10.0, rs=5.0, region=field.region, field=field,
        speed=1.0, t0=600.0, duration=45.0,
    )
    return MobileSimulation(problem, tiles=tiles)


@pytest.mark.parametrize("tiles", [1, 2, 4])
@pytest.mark.parametrize("k", [900, 2500, 10000])
def test_bench_step_sharded(benchmark, k, tiles):
    """Steady-state sharded round: warm round 0 (calibration runs at the
    barrier by design), then time fan-out rounds."""
    sim = _sharded_step_simulation(k, tiles)
    sim.step()  # calibration round, like the unsharded bench
    record = benchmark.pedantic(sim.step, rounds=3, iterations=1,
                                warmup_rounds=0)
    assert record.n_alive == k
    sim.close()
