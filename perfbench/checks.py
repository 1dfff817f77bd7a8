"""Gating checks on workload outputs.

Each check takes plain outputs (positions, δ values, layouts) and returns
the reasons the operation failed, empty when it passed. An operation is
one CMA round, one FRA solve or one reconstruction; an operation with a
reason counts toward ``ops_failed``.

The checks are computed here, independently of the code under test:
connectivity is a union of unit disks taken from the raw positions, not
the engine's own ``connected`` flag. Only invariants that hold at every
seed tried are gated (see README.md).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

#: Relative slack on the speed cap and on the radio range. Measured
#: per-round displacement maxima sit at v·dt·(1 + 1e-14).
REL_TOL = 1e-9

#: FRA must beat random deployment from this budget on.
FRA_BEATS_RANDOM_FROM_K = 75


def n_components(points: np.ndarray, rc: float) -> int:
    """Components of the unit-disk graph (range ``rc·(1 + REL_TOL)``)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) == 0:
        return 0
    diff = pts[:, None, :] - pts[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    linked = d2 <= (rc * (1.0 + REL_TOL)) ** 2
    count, _labels = connected_components(csr_matrix(linked), directed=False)
    return int(count)


def inside(points: np.ndarray, bounds: Sequence[float]) -> bool:
    """All points inside the closed box ``(xmin, ymin, xmax, ymax)``."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    xmin, ymin, xmax, ymax = bounds
    return bool(
        np.all((pts[:, 0] >= xmin) & (pts[:, 0] <= xmax)
               & (pts[:, 1] >= ymin) & (pts[:, 1] <= ymax))
    )


def over_cap(before: np.ndarray, after: np.ndarray, max_step: float) -> int:
    """Nodes whose displacement this round exceeds ``max_step``."""
    step = np.linalg.norm(np.asarray(after) - np.asarray(before), axis=1)
    return int(np.count_nonzero(step > max_step * (1.0 + REL_TOL)))


def cma_round(
    before: np.ndarray,
    positions: np.ndarray,
    delta: float,
    n_alive: int,
    bounds: Sequence[float],
    rc: float,
    max_step: float,
    perfect_network: bool,
) -> Tuple[List[str], int]:
    """Check one CMA round; returns (failure reasons, speed-cap violations).

    With a perfect network the fleet must stay one component, every node
    must respect the speed cap and δ must be finite. Under faults only
    region containment and a finite δ while a node is alive are gated;
    the speed cap is counted but not gated, because LCM followers acting
    on stale beacons exceed it.
    """
    reasons = []
    violations = over_cap(before, positions, max_step)
    if (perfect_network or n_alive > 0) and not np.isfinite(delta):
        reasons.append("delta not finite")
    if not inside(positions, bounds):
        reasons.append("node outside region")
    if perfect_network:
        if n_components(positions, rc) != 1:
            reasons.append("fleet disconnected")
        if violations:
            reasons.append("speed cap exceeded")
    return reasons, violations


def fra_solve(k: int, positions: np.ndarray, delta: float,
              random_deltas: Iterable[float], rc: float) -> List[str]:
    """Check one FRA solve against its random-deployment baselines."""
    reasons = []
    if not np.isfinite(delta):
        reasons.append("delta not finite")
    if n_components(positions, rc) != 1:
        reasons.append("FRA layout disconnected")
    randoms = list(random_deltas)
    if k >= FRA_BEATS_RANDOM_FROM_K and randoms and not (
        float(np.mean(randoms)) / delta > 1.0
    ):
        reasons.append("random deployment beats FRA")
    return reasons


def reconstruction(delta: float) -> List[str]:
    return [] if np.isfinite(delta) else ["delta not finite"]


def same_series(first: Sequence[float], again: Sequence[float]) -> List[bool]:
    """Per-position bitwise equality of a repeated δ series."""
    a = np.asarray(first, dtype=float)
    b = np.asarray(again, dtype=float)
    if a.shape != b.shape:
        return [False] * len(b)
    return [x.tobytes() == y.tobytes() for x, y in zip(a, b)]


def obs_log_rounds(log_rows: Iterable[Dict], deltas: Sequence[float]) -> List[bool]:
    """Per round: the log holds exactly one ``round`` event with its δ."""
    events: Dict[int, List[float]] = {}
    for row in log_rows:
        if row.get("event") == "round":
            events.setdefault(int(row["round"]), []).append(row["delta"])
    if set(events) - set(range(len(deltas))):
        return [False] * len(deltas)
    ok = []
    for index, delta in enumerate(deltas):
        logged = events.get(index, [])
        ok.append(len(logged) == 1 and np.float64(logged[0]).tobytes()
                  == np.float64(delta).tobytes())
    return ok
