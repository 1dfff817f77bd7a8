"""One workload in one fresh process: set up, run for a time budget, check.

``run.py`` starts this script in a single-threaded subprocess::

    python3 perfbench/worker.py --workload cma_served --seed 7 \
        --seconds 20 --trace 0

It prints ``READY`` once set-up is done (imports, field or reference
surface, one engine built), then repeats the workload body while the
next repetition is expected to end within ``--seconds`` (and at least
``--min-reps`` times), and prints one
JSON object with the raw measurements as its last line. ``--setup-only``
exits after ``READY``. With ``--trace 1`` the calls into each layer are
wrapped in spans (see ``tracing.py``).

Only public ``repro`` API is called.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.core.baselines import random_placement
from repro.core.fra import solve_osd
from repro.core.problem import OSDProblem, OSTDProblem
from repro.experiments import config
from repro.fields.base import sample_grid
from repro.fields.greenorbs import GreenOrbsLightField
from repro.fields.grid import GridField
from repro.obs import Instrumentation, emit_run_meta, use_instrumentation
from repro.obs.manifest import env_fingerprint
from repro.runtime import CheckpointConfig
from repro.sim import (
    GilbertElliottLink,
    MobileSimulation,
    NetworkModel,
    RandomChurn,
    RetryPolicy,
    UniformDelayModel,
)
from repro.surfaces.reconstruction import reconstruct_surface

import checks
import hostspeed
import tracing


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "cma" or "fra"
    k: int = 100
    side: float = 100.0
    rounds: int = 45
    resolution: int = 101
    #: JSONL obs log flushed every event + checkpoint every 5 rounds.
    served: bool = False
    #: Gilbert-Elliott links, delayed beacons, churn and sensor noise.
    faulty: bool = False
    k_sweep: tuple = ()
    n_random: int = 5


WORKLOADS: Dict[str, Workload] = {
    "cma_served": Workload("cma_served", "cma", k=100, side=100.0,
                           rounds=45, served=True),
    "cma_dense": Workload("cma_dense", "cma", k=900, side=300.0, rounds=10),
    "cma_faulty": Workload("cma_faulty", "cma", k=400, side=200.0,
                           rounds=45, faulty=True),
    "fra_sweep": Workload("fra_sweep", "fra",
                          k_sweep=config.FULL.k_sweep, n_random=5),
}

#: Small versions of every workload, for the benchmark's own tests.
TINY: Dict[str, Workload] = {
    name: (replace(w, k=16, side=40.0, rounds=3, resolution=21)
           if w.kind == "cma"
           else replace(w, k_sweep=(1, 5, 10), n_random=2, resolution=21))
    for name, w in WORKLOADS.items()
}

CHECKPOINT_EVERY = 5
#: Run records, spans and the served workload's scratch files.
OUT = Path(__file__).resolve().parent / "out"


class Failures:
    """Failure reasons per operation, tallied into ``ops_failed``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Dict[str, int] = {}

    def op(self, reasons: List[str]) -> None:
        self.attempted += 1
        if reasons:
            self.failed += 1
        for reason in reasons:
            self.reasons[reason] = self.reasons.get(reason, 0) + 1


# ---------------------------------------------------------------------------
# CMA workloads


class CmaScenario:
    def __init__(self, spec: Workload, seed: int, workdir: Path) -> None:
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        field = GreenOrbsLightField(
            side=spec.side, seed=seed, freeze_sun_at=config.T_REFERENCE
        )
        self.problem = OSTDProblem(
            k=spec.k, rc=config.RC, rs=config.RS, region=field.region,
            field=field, speed=config.SPEED, t0=config.T_REFERENCE,
            duration=float(spec.rounds),
        )
        self.params = config.cma_params()
        r = field.region
        self.bounds = (r.xmin, r.ymin, r.xmax, r.ymax)
        self.max_step = self.problem.speed * self.problem.dt
        self.first_deltas: Optional[List[float]] = None
        self.engine(obs=Instrumentation.disabled())

    def engine(self, obs) -> MobileSimulation:
        faults = {}
        if self.spec.faulty:
            s = self.seed
            faults = dict(
                network=NetworkModel(
                    GilbertElliottLink(p_fail=0.082, p_recover=0.25,
                                       loss_bad=0.9, seed=s + 1),
                    delay=UniformDelayModel(2, seed=s + 2),
                    retry=RetryPolicy(max_retries=1),
                    max_age=4,
                ),
                crash_model=RandomChurn(0.05, recover_prob=0.3, seed=s + 3),
                sensor_noise_std=0.5,
                sensor_noise_seed=s + 4,
            )
        return MobileSimulation(
            self.problem, params=self.params,
            resolution=self.spec.resolution, obs=obs, **faults,
        )

    def run_once(self, rep: int, tracer) -> dict:
        """One scenario from a fresh engine; only the body is timed."""
        spec = self.spec
        step_s: List[float] = []
        kernel_s: List[float] = []
        records: list = []
        error = None
        repdir = self.workdir / f"rep{rep:03d}"
        start = time.perf_counter()
        obs = (Instrumentation.to_jsonl(repdir / "obs.jsonl", flush_every=1)
               if spec.served else Instrumentation.disabled())
        try:
            with use_instrumentation(obs):
                if spec.served:
                    emit_run_meta(obs, scenario_id=spec.name, seed=self.seed,
                                  params={"k": spec.k, "rounds": spec.rounds})
                sim = self.engine(obs)
                initial = sim.positions
                if tracer is not None:
                    tracing.attach_phase_spans(sim, tracer)
                step = sim.step

                def timed_step():
                    t0 = time.perf_counter()
                    record = step()
                    step_s.append(time.perf_counter() - t0)
                    kernel_s.append(hostspeed.time_kernel())
                    records.append(record)
                    return record

                sim.step = timed_step
                checkpoint = (
                    CheckpointConfig(directory=repdir / "ckpt",
                                     every=CHECKPOINT_EVERY)
                    if spec.served else None
                )
                sim.run(checkpoint=checkpoint)
        except Exception:  # an operation that raises is a failed op
            error = traceback.format_exc()
        finally:
            obs.close()
        elapsed = time.perf_counter() - start - sum(kernel_s)
        out = {"elapsed": elapsed, "step_s": step_s, "kernel_s": kernel_s,
               "records": records,
               "initial": initial if records else None, "error": error}
        if spec.served:
            log = repdir / "obs.jsonl"
            out["log_rows"] = [json.loads(line) for line in
                               log.read_text(encoding="utf-8").splitlines()]
            out["log_bytes"] = log.stat().st_size
            out["log_events"] = len(out["log_rows"])
            ckpts = list((repdir / "ckpt").rglob("*.npz"))
            out["checkpoints"] = len(ckpts)
            out["checkpoint_bytes"] = sum(p.stat().st_size for p in ckpts)
            shutil.rmtree(repdir, ignore_errors=True)
        return out

    def check(self, rep: dict, failures: Failures, totals: dict) -> None:
        perfect = not self.spec.faulty
        records = rep["records"]
        deltas = [r.delta for r in records]
        if self.first_deltas is None and rep["error"] is None:
            self.first_deltas = deltas
        same = (checks.same_series(self.first_deltas[:len(deltas)], deltas)
                if self.first_deltas is not None else [True] * len(deltas))
        logged = (checks.obs_log_rounds(rep["log_rows"], deltas)
                  if self.spec.served else [True] * len(deltas))
        before = rep["initial"]
        for i, record in enumerate(records):
            reasons, over = checks.cma_round(
                before, record.positions, record.delta, record.n_alive,
                self.bounds, self.problem.rc, self.max_step, perfect,
            )
            before = record.positions
            if not same[i]:
                reasons.append("delta differs from first repetition")
            if not logged[i]:
                reasons.append("obs log round event missing or wrong")
            failures.op(reasons)
            totals["speed_cap_violations"] += over
            totals["nodes_moved"] += record.n_moved
            totals["lcm_moves"] += record.n_lcm_moves
        if rep["error"] is not None:
            failures.op(["raised"])
            print(rep["error"], file=sys.stderr)
        totals["ops"] += len(records)
        if self.spec.served:
            totals["log_events"] += rep["log_events"]
            totals["log_bytes"] += rep["log_bytes"]
            totals["checkpoints"] += rep["checkpoints"]
            totals["checkpoint_bytes"] += rep["checkpoint_bytes"]

    def quality(self, reps: List[dict]) -> dict:
        records = reps[0]["records"]
        deltas = np.asarray([r.delta for r in records], dtype=float)
        return {
            "delta_mean": float(np.nanmean(deltas)),
            "delta_converged": float(np.nanmedian(deltas[len(deltas) // 2:])),
            "connected_frac": float(np.mean([r.connected for r in records])),
        }


# ---------------------------------------------------------------------------
# FRA workload


class FraScenario:
    def __init__(self, spec: Workload, seed: int, workdir: Path) -> None:
        self.spec = spec
        self.seed = seed
        field = GreenOrbsLightField(side=config.SIDE, seed=seed)
        self.reference = sample_grid(field, field.region, spec.resolution,
                                     t=config.T_REFERENCE)
        self.grid_field = GridField(self.reference)
        self.first: Optional[list] = None

    def random_seed(self, k: int, i: int) -> int:
        return self.seed * 100_000 + k * 100 + i

    def run_once(self, rep: int, tracer) -> dict:
        spec = self.spec
        points = []
        solve_s: List[float] = []
        solve_k: List[int] = []
        kernel_s: List[float] = []
        start = time.perf_counter()
        for k in spec.k_sweep:
            point = {"k": k, "error": None, "random": [], "random_errors": 0}
            t0 = time.perf_counter()
            try:
                fra = solve_osd(OSDProblem(k=k, rc=config.RC,
                                           reference=self.reference))
                solve_s.append(time.perf_counter() - t0)
                solve_k.append(k)
                kernel_s.append(hostspeed.time_kernel())
                point.update(delta=fra.delta, positions=fra.positions,
                             refinements=fra.meta["n_refinement"],
                             relays=fra.meta["n_relays"])
            except Exception:
                point["error"] = traceback.format_exc()
            for i in range(spec.n_random):
                try:
                    pts = random_placement(self.reference.region, k,
                                           seed=self.random_seed(k, i))
                    recon = reconstruct_surface(
                        self.reference, pts, values=self.grid_field.sample(pts)
                    )
                    point["random"].append(recon.delta)
                except Exception:
                    point["random_errors"] += 1
                    print(traceback.format_exc(), file=sys.stderr)
            points.append(point)
        return {"elapsed": time.perf_counter() - start - sum(kernel_s),
                "step_s": solve_s, "kernel_s": kernel_s, "op_key": solve_k,
                "points": points}

    def check(self, rep: dict, failures: Failures, totals: dict) -> None:
        series = [(p.get("delta"), tuple(p["random"])) for p in rep["points"]]
        if self.first is None:
            self.first = series
        for point, mine, first in zip(rep["points"], series, self.first):
            if point["error"] is not None:
                failures.op(["raised"])
                print(point["error"], file=sys.stderr)
            else:
                reasons = checks.fra_solve(point["k"], point["positions"],
                                           point["delta"], point["random"],
                                           config.RC)
                if not checks.same_series([first[0]], [mine[0]])[0]:
                    reasons.append("delta differs from first repetition")
                failures.op(reasons)
                totals["ops"] += 1
                totals["fra_refinements"] += point["refinements"]
                totals["fra_relays"] += point["relays"]
            same = checks.same_series(first[1], mine[1])
            for delta, ok in zip(point["random"], same):
                reasons = checks.reconstruction(delta)
                if not ok:
                    reasons.append("delta differs from first repetition")
                failures.op(reasons)
            for _ in range(point["random_errors"]):
                failures.op(["raised"])

    def quality(self, reps: List[dict]) -> dict:
        points = [p for p in reps[0]["points"] if p["error"] is None]
        fra = np.asarray([p["delta"] for p in points], dtype=float)
        ratios = [float(np.mean(p["random"])) / p["delta"] for p in points
                  if p["random"]]
        return {
            "delta_mean": float(np.mean(fra)),
            "delta_converged": float(np.median(fra[len(fra) // 2:])),
            "random_over_fra": float(np.mean(ratios)),
            "connected_frac": float(np.mean(
                [checks.n_components(p["positions"], config.RC) == 1
                 for p in points])),
        }


# ---------------------------------------------------------------------------


def count_hooks() -> dict:
    """Per-span counters that read a wrapped call's result."""
    return {
        "sim.read_many": lambda tracer, result: tracer.count(
            "sim.sensed_samples", sum(s.m for s in result)),
        "sim.exchange": lambda tracer, result: tracer.count(
            "sim.beacons_heard", sum(len(inbox) for inbox in result)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=config.FIELD_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-reps", type=int, default=2)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true",
                        help="a seconds-long version of the workload")
    args = parser.parse_args(argv)

    spec = (TINY if args.tiny else WORKLOADS)[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    scenario = (CmaScenario if spec.kind == "cma" else FraScenario)(
        spec, args.seed, workdir)
    hostspeed.time_kernel()  # first call pays NumPy's lazy set-up
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(on_result=count_hooks())
    reps = []
    start = time.perf_counter()
    try:
        # Start another repetition only while it is expected to finish
        # inside the budget, so a run lasts about --seconds.
        while len(reps) < args.min_reps or (
            time.perf_counter() - start
            + statistics.median(rep["elapsed"] for rep in reps)
            <= args.seconds
        ):
            reps.append(scenario.run_once(len(reps), tracer))
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    failures = Failures()
    totals = dict.fromkeys(
        ("ops", "speed_cap_violations", "nodes_moved", "lcm_moves",
         "log_events", "log_bytes", "checkpoints", "checkpoint_bytes",
         "fra_refinements", "fra_relays"), 0)
    for rep in reps:
        scenario.check(rep, failures, totals)

    result = {
        "workload": spec.name,
        "seed": args.seed,
        "trace": args.trace,
        "timing": [{"elapsed": rep["elapsed"], "op_s": rep["step_s"],
                    "kernel_s": rep["kernel_s"],
                    **({"op_key": rep["op_key"]} if "op_key" in rep else {})}
                   for rep in reps],
        "attempted": failures.attempted,
        "failed": failures.failed,
        "failure_reasons": failures.reasons,
        "quality": scenario.quality(reps),
        "totals": totals,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host": {**env_fingerprint(), "nproc": os.cpu_count()},
    }
    if tracer is not None:
        ops = max(totals["ops"], 1)
        result["self_ms_per_op"] = {
            name: seconds * 1e3 / ops
            for name, seconds in tracer.self_times().items()
        }
        result["calls_per_op"] = {
            name: n / ops for name, n in tracer.calls().items()
        }
        result["counts_per_op"] = {
            name: n / ops for name, n in tracer.counts.items()
        }
        result["absent"] = tracer.absent
        OUT.mkdir(parents=True, exist_ok=True)
        spans = OUT / f"{spec.name}-seed{args.seed}-spans.json"
        tracer.dump(spans)
        result["spans_file"] = str(spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
