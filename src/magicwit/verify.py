"""Verification checks runnable from the CLI (`magicwit verify`) and pytest.

Each check pins its tolerances and seeds, raises InvariantError on failure
(an AssertionError raised explicitly, so the checks also run under
`python -O`) and returns a short human-readable detail string on success.
`Check.run` times each check; the slow ones carry a time limit in seconds,
set in `CHECKS`, and fail when they reach it.  `magicwit verify` prints one
line per check, with that one time, as the check ends.  The quick subset
finishes in a few seconds; the full set re-derives every headline number of
the pipeline.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from magicwit import algebra, bell, graphs, optimize, states
from magicwit.errors import require


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


@dataclass(frozen=True)
class Check:
    name: str
    quick: bool
    fn: Callable[[], str]
    limit: float = math.inf  # seconds

    def run(self) -> CheckResult:
        """Run the check, timed; one that passes but takes `limit` seconds or more fails."""
        t0 = time.perf_counter()
        try:
            detail = self.fn()
            seconds = time.perf_counter() - t0
            require(seconds < self.limit, f"took {seconds:.1f}s, limit {self.limit:g}s")
        except AssertionError as exc:
            detail = str(exc) or "assertion failed"
            return CheckResult(self.name, False, detail, time.perf_counter() - t0)
        return CheckResult(self.name, True, detail, seconds)


# ---------------------------------------------------------------------------
# Orbit structure
# ---------------------------------------------------------------------------


def check_orbit_counts() -> str:
    for n, d, classes, total in (
        (2, 2, 2, 2),
        (3, 2, 5, 8),
        (4, 2, 18, 64),
        (5, 2, 93, 1024),
        (6, 2, 760, 32768),
        (2, 3, 2, 3),
    ):
        cat = graphs.enumerate_classes(n, d)
        require(len(cat) == classes, f"(n={n}, d={d}): {len(cat)} classes, expected {classes}")
        require(
            cat.total == total, f"(n={n}, d={d}): orbit sizes sum to {cat.total}, expected {total}"
        )
        require(cat.total == d ** (n * (n - 1) // 2), f"(n={n}, d={d}): total is not d^(n(n-1)/2)")
    return "class counts 2/5/18/93/760/2 with totals 2/8/64/1024/32768/3"


def _distinct(vectors: np.ndarray) -> np.ndarray:
    """One row per state up to global phase.

    A row's key is its entries divided by the phase of the first above 1e-9, rounded to 1e-8.
    """
    first = np.argmax(np.abs(vectors) > 1e-9, axis=1)
    lead = vectors[np.arange(len(vectors)), first]
    v = vectors / (lead / np.abs(lead))[:, None]
    keys = np.round(np.concatenate([v.real, v.imag], axis=1) * 1e8).astype(np.int64)
    return vectors[np.unique(keys, axis=0, return_index=True)[1]]


def _local_cliffords(d: int) -> np.ndarray:
    """The single-site Clifford group up to phase, (d^3 (d^2 - 1), d, d).

    The closure of the DFT F, the phase gate S = diag(e^(i pi j (j + d) / d))
    and the shift X.  F and S alone generate only 24 elements at d = 3.
    """
    j = np.arange(d)
    gens = np.stack([
        np.exp(2j * np.pi * np.outer(j, j) / d) / np.sqrt(d),
        np.diag(np.exp(1j * np.pi * j * (j + d) / d)),
        algebra.shift_matrix(d),
    ])
    group = np.eye(d, dtype=complex)[None]
    while True:
        products = (gens[:, None] @ group).reshape(-1, d, d)
        grown = _distinct(np.concatenate([group, products]).reshape(-1, d * d))
        if len(grown) == len(group):
            return group
        group = grown.reshape(-1, d, d)


def _generator_image(t: np.ndarray, a: graphs.AdjacencyMatrix, parties, i: int) -> np.ndarray:
    """Generator i of graph `a` on `parties`, X_i prod_j Z_j^(A_ij), applied to the state tensor t.

    Index arithmetic, no operator matrix: X|k> = |k+1> rolls party i's axis by
    one, and the clocks Z|k> = omega^k |k> multiply by omega^(sum_j A_ij k_j).
    """
    k = np.indices(t.shape)[list(parties)]
    clocks = np.exp(2j * np.pi * np.tensordot(a.entries[i], k, axes=1) / a.d)
    return clocks * np.roll(t, 1, axis=parties[i])


def _fixed_class_states(dims: tuple[int, ...]) -> np.ndarray:
    """Every class state `states.assemble_cluster_state` builds on `dims`, stacked.

    Each must first be fixed by the generators of every cluster's graph.
    """
    family = graphs.cluster_representatives(dims)
    found = []
    for assignment in family.assignments():
        t = states.assemble_cluster_state(family, assignment).amplitudes.reshape(dims)
        for block, a in zip(family.blocks, assignment):
            for i in range(a.n):
                err = np.linalg.norm(_generator_image(t, a, block.parties, i) - t)
                require(
                    err <= 1e-9,
                    f"{dims}: generator {i} of {a!r} on parties {block.parties} "
                    f"moves the state by {err:.2g}",
                )
        found.append(t.reshape(-1))
    return np.array(found)


def check_stabilizer_count_formula() -> str:
    # n independent generators fix one state, so a class state they fix is the
    # graph state of its class, a product across clusters.  Its local Clifford
    # images are stabilizer states, and the catalog covers them all exactly when
    # they number prod over clusters of d^n prod_i (d^i + 1) (Gross, JMP 47,
    # 122107 (2006)).  At d = 5 the images are too many to count this way, so
    # (5, 5) has its fixed points checked only.
    cliffords = {d: _local_cliffords(d) for d in (2, 3)}
    for d, group in cliffords.items():
        order = d**3 * (d**2 - 1)
        require(len(group) == order, f"d={d}: {len(group)} local Cliffords, expected {order}")
    counts = []
    for dims, expected in (((2, 2), 60), ((2, 2, 2), 1080), ((3, 3), 360), ((2, 2, 3), 720)):
        found = _fixed_class_states(dims)
        for site, d in enumerate(dims):
            # (Clifford, output index, state, other sites), then the index back in its place.
            t = np.tensordot(cliffords[d], found.reshape(-1, *dims), axes=([2], [1 + site]))
            found = _distinct(np.moveaxis(t, 1, 2 + site).reshape(-1, math.prod(dims)))
        counts.append(len(found))
        require(counts[-1] == expected, f"{dims}: {counts[-1]} states, expected {expected}")
    _fixed_class_states((5, 5))
    return (
        f"class states of (2,2)/(2,2,2)/(3,3)/(2,2,3)/(5,5) fixed by their generators; "
        f"their local Clifford images number {'/'.join(map(str, counts))} "
        "stabilizer states on the first four"
    )


# ---------------------------------------------------------------------------
# Curves and tables
# ---------------------------------------------------------------------------


def check_tilted_chsh_curve() -> str:
    cfg = optimize.OptimizerConfig(seed=2)
    worst_s = worst_q = 0.0
    for row in optimize.gap_scan(bell.catalog_tilted_chsh, np.arange(0.0, 2.0, 0.25), cfg):
        alpha, stab, quant, gap = row.param, row.stabilizer, row.quantum, row.gap
        require(abs(row.local - (2.0 + alpha)) <= 1e-9, f"alpha={alpha}: local {row.local}")
        stab_closed = max(2.0 * np.sqrt(2.0), 2.0 + alpha)
        quant_closed = np.sqrt(8.0 + 2.0 * alpha**2)
        require(
            abs(stab - stab_closed) <= 1e-5, f"alpha={alpha}: stabilizer {stab} vs {stab_closed}"
        )
        require(
            abs(quant - quant_closed) <= 1e-5, f"alpha={alpha}: quantum {quant} vs {quant_closed}"
        )
        if quant_closed - stab_closed > 1e-12:
            require(gap > 0.0, f"alpha={alpha}: gap should be positive, got {gap}")
        else:
            require(abs(gap) <= 2e-5, f"alpha={alpha}: gap should vanish, got {gap}")
        worst_s = max(worst_s, abs(stab - stab_closed))
        worst_q = max(worst_q, abs(quant - quant_closed))
    return f"8 grid points, worst errors {worst_s:.1e}/{worst_q:.1e}"


def check_cglmp_table() -> str:
    cfg = optimize.OptimizerConfig(seed=5)
    table = {3: (2.8729, 2.9149), 5: (2.9105, 3.0157), 7: (2.9272, 3.0776)}
    details = []
    rows = optimize.gap_scan(bell.catalog_cglmp, list(table), cfg)
    for (d, (stab_ref, quant_ref)), row in zip(table.items(), rows):
        stab, quant = row.stabilizer, row.quantum
        require(abs(row.local - 2.0) <= 1e-9, f"d={d}: local {row.local} vs 2")
        stab_tol = 5e-4 if d == 3 else 1e-3
        require(abs(stab - stab_ref) <= stab_tol, f"d={d}: stabilizer {stab} vs {stab_ref}")
        require(abs(quant - quant_ref) <= 1e-3, f"d={d}: quantum {quant} vs {quant_ref}")
        details.append(f"d={d}: {stab:.4f}/{quant:.4f}")
    return "; ".join(details)


def check_tripartite_witness() -> str:
    ineq = bell.catalog_svetlichny_r2()
    cfg = optimize.OptimizerConfig(seed=11)
    rep = optimize.stabilizer_value(ineq, cfg)
    require(abs(rep.value - 6.0) <= 1e-5, f"stabilizer value {rep.value} vs 6")
    require(len(rep.class_values) == 5, f"{len(rep.class_values)} class values, expected 5")
    require(all(v <= 6.0 + 1e-5 for v in rep.class_values), f"class values {rep.class_values}")

    w_theta = float(np.arccos(1.0 / np.sqrt(3.0)))
    thetas = [0.0, np.pi / 4, w_theta, np.pi / 2]
    phis = [0.0, np.pi / 4, np.pi / 2]
    heat = optimize.w_heatmap(thetas, phis, cfg)
    w_val = heat[2, 1]
    require(abs(w_val - 7.26) <= 0.02, f"W-state value {w_val} vs 7.26")
    require(heat.max() <= w_val + 1e-6, "grid peak should sit at the W state")
    for line in (heat[0, :], heat[:, 0], heat[:, 2]):
        require(np.all(line <= 6.0 + 1e-6), f"biseparable line exceeds 6: {line}")
    return f"all 5 classes at 6, W point {w_val:.4f}"


def _haar_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def check_coprime_local_cap() -> str:
    # A (2, 3) register holds only product stabilizer states, which give
    # local behaviors: no restart may pass the local bound, and the best
    # must reach it.  A Haar-random product state checks the same with
    # factors that are not stabilizer states.
    rng = np.random.default_rng(321)
    state_rng = np.random.default_rng(322)
    cfg = optimize.OptimizerConfig(seed=17)
    for trial in range(20):
        coeffs = rng.uniform(-1.0, 1.0, size=(2, 3, 2, 2))
        ineq = bell.BellInequality((2, 3), (2, 2), coeffs, name=f"random-{trial}")
        loc = bell.local_bound(ineq)
        product = np.kron(_haar_vector(state_rng, 2), _haar_vector(state_rng, 3))
        for what, rep in (
            ("stabilizer", optimize.stabilizer_value(ineq, cfg)),
            ("Haar product", optimize.optimize_measurements(ineq, product, cfg)),
        ):
            top = max(rep.restart_values)
            require(top <= loc + 1e-6, f"trial {trial}: {what} restart {top} above local {loc}")
            require(rep.value >= loc - 1e-9, f"trial {trial}: {what} {rep.value} below local {loc}")
    return "20 random (2,3) inequalities at their local bounds on two product states"


# ---------------------------------------------------------------------------
# Property suites
# ---------------------------------------------------------------------------


def check_seesaw_monotonicity() -> str:
    cfg = optimize.OptimizerConfig(restarts=8, seed=23)
    reports = [
        optimize.stabilizer_value(bell.catalog_tilted_chsh(0.7), cfg),
        optimize.quantum_value(bell.catalog_cglmp(3), cfg),
    ]
    for rep in reports:
        trace = np.asarray(rep.trace)
        drops = np.diff(trace) < -1e-9 * (1.0 + np.abs(trace[:-1]))
        require(not drops.any(), "objective decreased during a see-saw")
    return "traces non-decreasing on qubit and qutrit runs"


def check_bound_sandwich() -> str:
    cfg = optimize.OptimizerConfig(restarts=16, seed=29)
    catalog = [
        bell.catalog_tilted_chsh(0.5),
        bell.catalog_cglmp(3),
        bell.catalog_svetlichny_r2(),
    ]
    for ineq in catalog:
        loc = bell.local_bound(ineq)
        stab = optimize.stabilizer_value(ineq, cfg).value
        quant = optimize.quantum_value(ineq, cfg).value
        require(loc <= stab + 1e-6, f"{ineq.name}: local {loc} above stabilizer {stab}")
        require(stab <= quant + 1e-6, f"{ineq.name}: stabilizer {stab} above quantum {quant}")
    return "local <= stabilizer <= quantum on the catalog"


def check_scan_determinism() -> str:
    cmd = [
        sys.executable, "-m", "magicwit", "scan", "tilted-chsh",
        "--start", "0", "--stop", "1", "--step", "0.5",
        "--seed", "7", "--restarts", "16",
    ]
    runs = [subprocess.run(cmd, capture_output=True, check=True).stdout for _ in range(2)]
    require(runs[0] == runs[1], "same seed gave different CSV bytes")
    lines = runs[0].decode().strip().splitlines()
    require(lines[0] == "param,local,stab,quantum,gap", f"CSV header {lines[0]!r}")
    require(len(lines) == 4, f"{len(lines)} CSV lines, expected 4")
    # Each restart draws from its own spawned seed, so a run's first restarts
    # do not depend on how many follow them in the batch.
    ineq = bell.catalog_tilted_chsh(0.5)
    few = optimize.quantum_value(ineq, optimize.OptimizerConfig(restarts=8, seed=7))
    more = optimize.quantum_value(ineq, optimize.OptimizerConfig(restarts=16, seed=7))
    require(few.restart_values == more.restart_values[:8], "restart values depend on the batch")
    return "byte-identical CSV across runs, restarts 8 a prefix of 16"


CHECKS: tuple[Check, ...] = (
    Check("orbit-counts", True, check_orbit_counts, limit=1.0),
    Check("stabilizer-count-formula", True, check_stabilizer_count_formula, limit=60.0),
    Check("tilted-chsh-curve", False, check_tilted_chsh_curve, limit=60.0),
    Check("cglmp-table", False, check_cglmp_table, limit=600.0),
    Check("tripartite-witness", False, check_tripartite_witness, limit=300.0),
    Check("coprime-local-cap", True, check_coprime_local_cap),
    Check("seesaw-monotonicity", True, check_seesaw_monotonicity),
    Check("bound-sandwich", False, check_bound_sandwich),
    Check("scan-determinism", False, check_scan_determinism),
)
