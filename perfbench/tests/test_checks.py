"""Synthetic records that break a gated invariant must count as ops_failed."""

from types import SimpleNamespace

import numpy as np
import pytest

import checks
from worker import TINY, CmaScenario, Failures, FraScenario


def record(positions, delta=100.0, n_alive=None):
    positions = np.asarray(positions, dtype=float)
    return SimpleNamespace(
        positions=positions, delta=delta,
        n_alive=len(positions) if n_alive is None else n_alive,
        n_moved=0, n_lcm_moves=0, connected=True,
    )


LINE = np.array([[10.0, 10.0], [15.0, 10.0], [20.0, 10.0], [25.0, 10.0]])


def run_checks(scenario, *reps):
    failures = Failures()
    totals = dict.fromkeys(
        ("ops", "speed_cap_violations", "nodes_moved", "lcm_moves",
         "log_events", "log_bytes", "checkpoints", "checkpoint_bytes"), 0)
    for rep in reps:
        scenario.check(rep, failures, totals)
    return failures, totals


def rep(*records, initial=LINE, **extra):
    return {"records": list(records), "initial": initial, "error": None,
            **extra}


@pytest.fixture
def perfect(tmp_path):
    return CmaScenario(TINY["cma_dense"], 7, tmp_path)


@pytest.fixture
def faulty(tmp_path):
    return CmaScenario(TINY["cma_faulty"], 7, tmp_path)


def test_a_valid_round_passes(perfect):
    failures, _ = run_checks(perfect, rep(record(LINE + [0.5, 0.0])))
    assert (failures.attempted, failures.failed) == (1, 0)


CORNER = np.array([[0.5, 0.5], [5.0, 0.5], [0.5, 5.0], [5.0, 5.0]])
STRETCHED = np.array([[0.5, 0.5], [5.0, 0.5], [0.5, 5.0], [14.5, 5.0]])


def moved(layout, node, dx):
    out = layout.copy()
    out[node, 0] += dx
    return out


@pytest.mark.parametrize("initial, after, delta, reason", [
    (CORNER, CORNER, float("nan"), "delta not finite"),
    (CORNER, moved(CORNER, 0, -0.8), 1.0, "node outside region"),
    (STRETCHED, moved(STRETCHED, 3, 0.9), 1.0, "fleet disconnected"),
    (CORNER, moved(CORNER, 0, 1.5), 1.0, "speed cap exceeded"),
])
def test_each_broken_invariant_is_one_failed_op(perfect, initial, after,
                                                delta, reason):
    failures, _ = run_checks(
        perfect, rep(record(after, delta=delta), initial=initial))
    assert (failures.attempted, failures.failed) == (1, 1)
    assert failures.reasons == {reason: 1}


def test_faults_count_but_do_not_gate_the_speed_cap(faulty):
    jump = moved(CORNER, 0, 1.9)
    failures, totals = run_checks(faulty, rep(record(jump), initial=CORNER))
    assert failures.failed == 0
    assert totals["speed_cap_violations"] == 1


def test_faults_gate_nan_delta_only_while_a_node_is_alive(faulty):
    nan = float("nan")
    failures, _ = run_checks(faulty, rep(record(LINE, delta=nan, n_alive=0)))
    assert failures.failed == 0
    failures, _ = run_checks(faulty, rep(record(LINE, delta=nan, n_alive=2)))
    assert failures.failed == 1


def test_a_repetition_with_another_delta_series_fails(perfect):
    first = rep(record(LINE, delta=1.0), record(LINE, delta=2.0))
    again = rep(record(LINE, delta=1.0), record(LINE, delta=np.nextafter(2, 3)))
    failures, _ = run_checks(perfect, first, again)
    assert (failures.attempted, failures.failed) == (4, 1)
    assert failures.reasons == {"delta differs from first repetition": 1}


def test_a_raising_run_is_a_failed_op(perfect):
    broken = {"records": [], "initial": None, "error": "Traceback: boom"}
    failures, _ = run_checks(perfect, broken)
    assert (failures.attempted, failures.failed) == (1, 1)


def test_obs_log_must_carry_each_round_delta():
    deltas = [3.0, 4.0]
    good = [{"event": "run_meta"}, {"event": "round", "round": 0, "delta": 3.0},
            {"event": "round", "round": 1, "delta": 4.0}]
    assert checks.obs_log_rounds(good, deltas) == [True, True]
    assert checks.obs_log_rounds(good[:2], deltas) == [True, False]
    assert checks.obs_log_rounds(good + good[2:], deltas) == [True, False]
    wrong = good[:2] + [{"event": "round", "round": 1, "delta": 4.5}]
    assert checks.obs_log_rounds(wrong, deltas) == [True, False]


def test_fra_checks():
    line = LINE
    assert checks.fra_solve(100, line, 10.0, [12.0, 13.0], 10.0) == []
    assert checks.fra_solve(5, line, 10.0, [8.0], 10.0) == []
    assert checks.fra_solve(75, line, 10.0, [8.0], 10.0) == [
        "random deployment beats FRA"]
    apart = np.vstack([line, [[80.0, 80.0]]])
    assert checks.fra_solve(5, apart, 10.0, [], 10.0) == [
        "FRA layout disconnected"]
    assert checks.fra_solve(5, line, float("nan"), [], 10.0) == [
        "delta not finite"]


def test_fra_scenario_counts_every_solve_and_reconstruction(tmp_path):
    scenario = FraScenario(TINY["fra_sweep"], 7, tmp_path)
    result = scenario.run_once(0, None)
    failures = Failures()
    totals = dict.fromkeys(("ops", "fra_refinements", "fra_relays"), 0)
    scenario.check(result, failures, totals)
    spec = TINY["fra_sweep"]
    assert failures.attempted == len(spec.k_sweep) * (1 + spec.n_random)
    assert failures.failed == 0
    result["points"][0]["random"][0] = float("nan")
    scenario.check(result, failures, totals)
    assert failures.failed == 1
    assert failures.reasons == {"delta not finite": 1,
                                "delta differs from first repetition": 1}
