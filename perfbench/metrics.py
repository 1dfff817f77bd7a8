"""Metric definitions and their computation from worker results.

``END_TO_END`` and ``PER_LAYER`` are the metrics ``BENCHMARK.json``
lists, in order; ``tests/test_benchmark_json.py`` keeps the two in step.
Each per-layer metric names the end-to-end metric and the workloads it
should move (``moves``), which README.md tabulates.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

import hostspeed

#: Pinned in every worker's environment: the benchmark is single-threaded.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

WORKLOADS = {
    "cma_served": "the paper's 45-round k=100 CMA run as a served job: obs "
                  "log flushed per event, checkpoint every 5 rounds",
    "cma_dense": "k=900 CMA at paper density, perfect network, obs off: "
                 "measure and the per-node sense/plan/constrain kernels",
    "cma_faulty": "k=400 CMA with bursty loss, delayed beacons, churn and "
                  "sensor noise: the netmodel and noisy-sense paths",
    "fra_sweep": "Fig. 7 FRA k-sweep plus random baselines: incremental "
                 "Delaunay insert and relay planning, no CMA engine",
}

#: The highest percentile with at least ten round samples beyond it on
#: every workload in a 20-second run (cma_dense gets about 40 rounds).
TAIL = 75

# name -> (unit, better, bound). Bounds come from the spread across
# seeds: over 5 seeds the quartile spread reached 0.12 (run_s and
# op_ms_p75 on fra_sweep), 0.3 for setup_s and 0.01 for peak_rss_mb.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "run_s": ("s", "lower", 0.25),
    "op_ms_p50": ("ms", "lower", 0.25),
    f"op_ms_p{TAIL}": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

_CMA = ("cma_served", "cma_dense", "cma_faulty")

# name -> (unit, better, moves, workloads it should move on)
PER_LAYER = {
    "runtime.sense_ms": ("ms/op", "lower", "op_ms_p50", ("cma_dense",)),
    "runtime.exchange_ms": ("ms/op", "lower", "op_ms_p50", ("cma_faulty",)),
    "runtime.plan_ms": ("ms/op", "lower", "op_ms_p50", ("cma_dense",)),
    "runtime.constrain_move_ms": ("ms/op", "lower", "op_ms_p50",
                                  ("cma_dense",)),
    "runtime.lcm_ms": ("ms/op", "lower", "op_ms_p50", ("cma_dense",)),
    "runtime.measure_ms": ("ms/op", "lower", "op_ms_p50",
                           ("cma_dense", "cma_served")),
    "runtime.other_ms": ("ms/op", "lower", "op_ms_p50", _CMA),
    "fields.sample_grid_ms": ("ms/op", "lower", "op_ms_p50",
                              ("cma_served",)),
    "sim.read_many_ms": ("ms/op", "lower", "op_ms_p50", ("cma_dense",)),
    "sim.sensed_samples": ("count/op", "lower", "op_ms_p50", ("cma_dense",)),
    "sim.exchange_ms": ("ms/op", "lower", "op_ms_p50", ("cma_faulty",)),
    "sim.beacons_heard": ("count/op", "lower", "op_ms_p50", ("cma_faulty",)),
    "core.estimate_own_curvature_ms": ("ms/op", "lower", "op_ms_p50",
                                       ("cma_dense",)),
    "core.plan_move_ms": ("ms/op", "lower", "op_ms_p50", ("cma_dense",)),
    "core.plan_move_calls": ("count/op", "lower", "op_ms_p50",
                             ("cma_dense",)),
    "core.lcm_moves": ("count/op", "lower", "op_ms_p50",
                       ("cma_faulty", "cma_dense")),
    "core.nodes_moved": ("count/op", "lower", "op_ms_p50",
                         ("cma_faulty", "cma_dense")),
    "core.speed_cap_violations": ("count/op", "lower", "op_ms_p50",
                                  ("cma_faulty",)),
    "core.solve_osd_ms": ("ms/op", "lower", "run_s", ("fra_sweep",)),
    "core.fra_refinements": ("count/op", "lower", "run_s", ("fra_sweep",)),
    "core.fra_relays": ("count/op", "lower", "run_s", ("fra_sweep",)),
    "geometry.interp_build_ms": ("ms/op", "lower", "op_ms_p50",
                                 ("cma_dense", "cma_served")),
    "geometry.evaluate_grid_ms": ("ms/op", "lower", "op_ms_p50",
                                  ("cma_dense", "cma_served")),
    "geometry.delaunay_insert_ms": ("ms/op", "lower", "run_s",
                                    ("fra_sweep",)),
    "geometry.delaunay_inserts": ("count/op", "lower", "run_s",
                                  ("fra_sweep",)),
    "surfaces.reconstruct_ms": ("ms/op", "lower", "op_ms_p50",
                                _CMA + ("fra_sweep",)),
    "surfaces.reconstruct_calls": ("count/op", "lower", "op_ms_p50",
                                   _CMA + ("fra_sweep",)),
    "surfaces.delta_ms": ("ms/op", "lower", "op_ms_p50",
                          _CMA + ("fra_sweep",)),
    "graphs.unit_disk_graph_ms": ("ms/op", "lower", "op_ms_p50",
                                  ("cma_dense",)),
    "graphs.relay_ms": ("ms/op", "lower", "run_s", ("fra_sweep",)),
    "obs.events": ("count/op", "lower", "run_s", ("cma_served",)),
    "obs.log_bytes": ("B/op", "lower", "run_s", ("cma_served",)),
    "obs.sink_ms": ("ms/op", "lower", "run_s", ("cma_served",)),
    "runtime.checkpoint_ms": ("ms/op", "lower", "run_s", ("cma_served",)),
    "runtime.checkpoints": ("count/op", "lower", "run_s", ("cma_served",)),
    "runtime.checkpoint_bytes": ("B/op", "lower", "run_s", ("cma_served",)),
    "trace_overhead_frac": ("1", "lower", "run_s",
                            _CMA + ("fra_sweep",)),
}

#: Per-layer self times, by the span names ``tracing.py`` records.
_SELF_TIME_SPANS = {
    "runtime.other_ms": ("runtime.step", "runtime.other"),
}
#: Per-layer counts, by source: calls of a span, tracer counters, totals.
_CALLS = {
    "core.plan_move_calls": "core.plan_move",
    "geometry.delaunay_inserts": "geometry.delaunay_insert",
    "surfaces.reconstruct_calls": "surfaces.reconstruct",
}
_COUNTERS = ("sim.sensed_samples", "sim.beacons_heard")
_TOTALS = {
    "core.lcm_moves": "lcm_moves",
    "core.nodes_moved": "nodes_moved",
    "core.speed_cap_violations": "speed_cap_violations",
    "core.fra_refinements": "fra_refinements",
    "core.fra_relays": "fra_relays",
    "obs.events": "log_events",
    "obs.log_bytes": "log_bytes",
    "runtime.checkpoints": "checkpoints",
    "runtime.checkpoint_bytes": "checkpoint_bytes",
}


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the q-th percentile among n samples."""
    return max(1, -(-n * q // 100))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (a measured sample, never interpolated)."""
    return float(sorted(values)[_rank(len(values), q) - 1])


def _metric(value: float, unit: str, listed: bool = True) -> dict:
    return {"value": value, "unit": unit, "listed": listed}


def _factors(kernel_s: Sequence[float]) -> List[float]:
    """Per-op scale to the reference host, from the kernels timed just
    before the op, just after it and after the next op (their median)."""
    return [hostspeed.factor(statistics.median(kernel_s[max(0, i - 1):i + 2]))
            for i in range(len(kernel_s))]


def scaled(result: dict) -> Tuple[List[float], List[float]]:
    """(op times in reference-host ms, repetition times in reference-host s).

    A repetition scales each op by its own factor and the rest (engine
    construction, checkpoints, reconstructions between solves) by the
    median factor of the repetition.
    """
    ops: List[float] = []
    reps: List[float] = []
    for rep in result["timing"]:
        if not rep["kernel_s"]:
            reps.append(rep["elapsed"])
            continue
        factors = _factors(rep["kernel_s"])
        mine = [s * f for s, f in zip(rep["op_s"], factors)]
        rest = rep["elapsed"] - sum(rep["op_s"])
        reps.append(sum(mine) + rest * statistics.median(factors))
        ops.extend(s * 1e3 for s in mine)
    return ops, reps


def latency_samples(result: dict, ops: List[float]) -> List[float]:
    """The samples op percentiles are taken over.

    CMA rounds all do the same work, so every round is a sample. FRA
    solves differ by k by two orders of magnitude; there each k gives
    one sample, its median over the repetitions, so that a percentile
    names a k instead of falling between two of them at random.
    """
    keys = [k for rep in result["timing"] for k in rep.get("op_key", [])]
    if not keys:
        return ops
    by_key: Dict[int, List[float]] = {}
    for key, value in zip(keys, ops):
        by_key.setdefault(key, []).append(value)
    return [statistics.median(values) for values in by_key.values()]


def _wall(result: dict, key: str) -> List[float]:
    return [x for rep in result["timing"] for x in rep[key]]


def end_to_end(result: dict, setups: Sequence[Tuple[float, float]]
               ) -> Dict[str, dict]:
    """The ``--trace 0`` metrics, plus unlisted wall-clock and quality
    figures. ``setups`` holds (set-up seconds, kernel seconds) pairs."""
    ops, reps = scaled(result)
    if not ops:
        raise ValueError("the workload completed no timed operation")
    ops = latency_samples(result, ops)
    values = {
        "setup_s": statistics.median(
            s * hostspeed.factor(k) for s, k in setups),
        "run_s": statistics.median(reps),
        "op_ms_p50": percentile(ops, 50),
        f"op_ms_p{TAIL}": percentile(ops, TAIL),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    out = {name: _metric(values[name], END_TO_END[name][0])
           for name in END_TO_END}
    out["op_ms_p90"] = _metric(percentile(ops, 90), "ms", listed=False)
    wall = latency_samples(result, [s * 1e3 for s in _wall(result, "op_s")])
    for name, value, unit in (
        ("wall.setup_s", statistics.median(s for s, _k in setups), "s"),
        ("wall.run_s", statistics.median(
            rep["elapsed"] for rep in result["timing"]), "s"),
        ("wall.op_ms_p50", percentile(wall, 50), "ms"),
        (f"wall.op_ms_p{TAIL}", percentile(wall, TAIL), "ms"),
        ("host.kernel_ms",
         statistics.median(_wall(result, "kernel_s")) * 1e3, "ms"),
    ):
        out[name] = _metric(value, unit, listed=False)
    for name, value in result["quality"].items():
        out[name] = _metric(value, "1" if name.endswith("frac")
                            or name.startswith("random") else "field*m2",
                            listed=False)
    return out


def per_layer(traced: dict, plain: dict) -> Dict[str, dict]:
    """The ``--trace 1`` metrics from the traced and untraced workers.

    Self times are scaled to the reference host by the traced worker's
    median kernel time.
    """
    scale = hostspeed.factor(statistics.median(_wall(traced, "kernel_s")))
    self_ms = traced.get("self_ms_per_op", {})
    calls = traced.get("calls_per_op", {})
    counters = traced.get("counts_per_op", {})
    ops = max(traced["totals"]["ops"], 1)
    out = {}
    for name, (unit, _better, _moves, _on) in PER_LAYER.items():
        if name == "trace_overhead_frac":
            value = (statistics.median(scaled(traced)[1])
                     / statistics.median(scaled(plain)[1]) - 1.0)
        elif name in _SELF_TIME_SPANS:
            value = scale * sum(self_ms.get(s, 0.0)
                                for s in _SELF_TIME_SPANS[name])
        elif name in _CALLS:
            value = calls.get(_CALLS[name], 0.0)
        elif name in _COUNTERS:
            value = counters.get(name, 0.0)
        elif name in _TOTALS:
            value = traced["totals"][_TOTALS[name]] / ops
        else:
            value = scale * self_ms.get(name[:-len("_ms")], 0.0)
        out[name] = _metric(value, unit)
    return out


def report(workload: str, runs: List[dict], values: Dict[str, dict]) -> List[str]:
    """Human-readable lines: every metric with its unit, and run facts."""
    main = runs[-1]
    ops = latency_samples(main, _wall(main, "op_s"))
    op = "FRA solve" if workload == "fra_sweep" else "CMA round"
    lines = [
        f"# workload {workload} seed {main['seed']}: {WORKLOADS[workload]}",
        f"# op = one {op}; {len(main['timing'])} repetitions, {len(ops)} "
        f"latency samples{' (per-k medians)' if op == 'FRA solve' else ''}; "
        f"p{TAIL} has {len(ops) - _rank(len(ops), TAIL)} samples beyond it, "
        f"p90 {len(ops) - _rank(len(ops), 90)}",
        f"# host {main['host']}",
    ]
    for name, m in values.items():
        mark = "" if m["listed"] else "  (reported, not gated)"
        lines.append(f"{name:34s} {m['value']:.6g} {m['unit']}{mark}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    lines.append(f"{'ops_attempted':34s} {attempted} count")
    lines.append(f"{'ops_failed':34s} {failed} count")
    for run in runs:
        for reason, n in sorted(run["failure_reasons"].items()):
            lines.append(f"# failed: {reason} x{n}")
        for target in run.get("absent", []):
            lines.append(f"# warning: trace target absent: {target}")
    return lines
