"""The repository benchmark: one workload, end-to-end or traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cma_served --seed 7 --seconds 20 --trace 0

The workload body runs in a fresh single-threaded subprocess
(``worker.py``) for ``--seconds``; its outputs are checked there. With
``--trace 0`` set-up is also timed in several more fresh processes and
the end-to-end metrics are printed. With ``--trace 1`` the time is split
between an untraced and a traced process, and the per-layer metrics of
the traced one are printed, with ``trace_overhead_frac`` comparing the
two. Every metric is printed with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. The full record of the run, with host fingerprint and
sample counts, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402
import metrics  # noqa: E402

#: Fresh processes that only set up, on top of the measured run's own.
SETUP_REPEATS = 4
#: Hard limit for one subprocess.
CHILD_TIMEOUT_S = 150.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update(metrics.THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: List[str], deadline: float) -> Tuple[float, float, Optional[dict]]:
    """Start a worker; return (seconds until READY, host-speed kernel
    seconds just before the start, the worker's JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    kernel_s = statistics.median(hostspeed.time_kernel() for _ in range(5))
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            cwd=str(ROOT), text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0 or ready.strip() != "READY":
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, kernel_s, (json.loads(lines[-1]) if lines else None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long workload versions, for self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              *(["--tiny"] if args.tiny else [])]

    try:
        if args.trace:
            # One repetition suffices here: the untraced runs gate the
            # repeat-determinism check.
            half = ["--seconds", str(args.seconds / 2), "--min-reps", "1"]
            *_, plain = run_child([*common, *half, "--trace", "0"], deadline)
            *_, traced = run_child([*common, *half, "--trace", "1"], deadline)
            runs = [plain, traced]
            values = metrics.per_layer(traced, plain)
        else:
            setup, kernel, result = run_child(
                [*common, "--seconds", str(args.seconds), "--trace", "0"],
                deadline)
            setups = [(setup, kernel)] + [
                run_child([*common, "--setup-only"], deadline)[:2]
                for _ in range(SETUP_REPEATS)
            ]
            runs = [result]
            values = metrics.end_to_end(result, setups)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "thread_env": metrics.THREAD_ENV,
        "metrics": values,
        "runs": runs,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    for line in metrics.report(args.workload, runs, values):
        print(line)
    print(json.dumps({
        "correct": failed == 0 and attempted >= 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in values.items() if m["listed"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
