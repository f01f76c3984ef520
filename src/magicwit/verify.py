"""Verification checks runnable from the CLI (`magicwit verify`) and pytest.

Each check pins its tolerances and seeds, raises InvariantError on failure
(an AssertionError raised explicitly, so the checks also run under
`python -O`) and returns a short human-readable detail string on success.
The quick subset finishes in a few seconds; the full set re-derives every
headline number of the pipeline.
"""

from __future__ import annotations

import itertools
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from magicwit import bell, graphs, optimize, states
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

    def run(self) -> CheckResult:
        t0 = time.perf_counter()
        try:
            detail = self.fn()
            ok = True
        except AssertionError as exc:
            detail = str(exc) or "assertion failed"
            ok = False
        return CheckResult(self.name, ok, detail, time.perf_counter() - t0)


def _elapsed_under(t0: float, limit: float, what: str) -> float:
    dt = time.perf_counter() - t0
    require(dt < limit, f"{what} took {dt:.1f}s, limit {limit:.0f}s")
    return dt


# ---------------------------------------------------------------------------
# Orbit structure
# ---------------------------------------------------------------------------


def check_orbit_counts() -> str:
    t0 = time.perf_counter()
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
    dt = _elapsed_under(t0, 1.0, "orbit enumeration")
    return f"class counts 2/5/18/93/760/2 with totals 2/8/64/1024/32768/3 in {dt:.2f}s"


def _count_qubit_stabilizer_groups(n: int) -> int:
    """Brute-force count of n-qubit stabilizer groups.

    Elements are signed Pauli strings encoded as (p, x, z) for i^p X^x Z^z
    with p in Z4 and x, z bit masks; valid group members square to +1,
    which forces p = |x & z| mod 2.  Groups are deduplicated as frozensets
    of their 2^n elements.
    """
    pop = [bin(i).count("1") for i in range(1 << n)]

    def mul(g, h):
        return ((g[0] + h[0] + 2 * pop[g[2] & h[1]]) % 4, g[1] ^ h[1], g[2] ^ h[2])

    elems = [
        (p, x, z)
        for x in range(1 << n)
        for z in range(1 << n)
        for p in range(4)
        if (p - pop[x & z]) % 2 == 0 and (x, z) != (0, 0)
    ]
    m = len(elems)
    commutes = np.zeros((m, m), dtype=bool)
    for i in range(m):
        for j in range(m):
            gi, gj = elems[i], elems[j]
            commutes[i, j] = (pop[gi[1] & gj[2]] + pop[gi[2] & gj[1]]) % 2 == 0
    identity = (0, 0, 0)
    minus_identity = (2, 0, 0)
    groups = set()
    for combo in itertools.combinations(range(m), n):
        ok = True
        for i, j in itertools.combinations(combo, 2):
            if not commutes[i, j]:
                ok = False
                break
        if not ok:
            continue
        group = {identity}
        for i in combo:
            group |= {mul(elems[i], h) for h in group}
        if len(group) != 1 << n or minus_identity in group:
            continue
        groups.add(frozenset(group))
    return len(groups)


def check_stabilizer_count_formula() -> str:
    t0 = time.perf_counter()
    for n, expected in ((2, 60), (3, 1080)):
        formula = 2**n * int(np.prod([2**i + 1 for i in range(1, n + 1)]))
        require(formula == expected, f"n={n}: formula gives {formula}, expected {expected}")
        got = _count_qubit_stabilizer_groups(n)
        require(got == expected, f"n={n}: counted {got} stabilizer groups, expected {expected}")
    dt = _elapsed_under(t0, 60.0, "stabilizer group enumeration")
    return f"60 and 1080 qubit stabilizer groups in {dt:.1f}s"


# ---------------------------------------------------------------------------
# Curves and tables
# ---------------------------------------------------------------------------


def check_tilted_chsh_curve() -> str:
    t0 = time.perf_counter()
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
    dt = _elapsed_under(t0, 60.0, "tilted CHSH curve")
    return f"8 grid points, worst errors {worst_s:.1e}/{worst_q:.1e}, {dt:.1f}s"


def check_cglmp_table() -> str:
    t0 = time.perf_counter()
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
    dt = _elapsed_under(t0, 600.0, "CGLMP table")
    return "; ".join(details) + f" in {dt:.0f}s"


def check_tripartite_witness() -> str:
    t0 = time.perf_counter()
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
    dt = _elapsed_under(t0, 300.0, "tripartite witness")
    return f"all 5 classes at 6, W point {w_val:.4f}, {dt:.0f}s"


def _haar_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def check_coprime_local_cap() -> str:
    # A (2, 3) register holds only product stabilizer states, which give
    # local behaviors: no restart may pass the local bound, and the best
    # must reach it.  A Haar-random product state checks the same with
    # factors that are not stabilizer states.
    t0 = time.perf_counter()
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
    dt = time.perf_counter() - t0
    return f"20 random (2,3) inequalities at their local bounds on two product states, {dt:.1f}s"


# ---------------------------------------------------------------------------
# Property suites
# ---------------------------------------------------------------------------


def _representative_states():
    for n, d in ((2, 2), (3, 2), (2, 3), (2, 5)):
        for rep in graphs.enumerate_classes(n, d).representatives:
            yield rep


def check_stabilizer_fixed_points() -> str:
    count = 0
    for rep in _representative_states():
        gs = states.build_graph_state(rep)
        for g in states.stabilizer_generators(rep):
            err = np.linalg.norm(g @ gs.amplitudes - gs.amplitudes)
            require(err <= 1e-9, f"{rep!r}: generator moves the state by {err}")
        count += 1
    return f"{count} representatives fixed by all generators within 1e-9"


def check_graph_state_constructions() -> str:
    count = 0
    for rep in _representative_states():
        a = states.build_graph_state(rep).amplitudes
        b = states.build_graph_state_by_gates(rep).amplitudes
        require(np.max(np.abs(a - b)) <= 1e-12, f"{rep!r}: construction paths disagree")
        count += 1
    rng = np.random.default_rng(7)
    for d, n in ((2, 4), (3, 3), (5, 2)):
        m = np.zeros((n, n), dtype=int)
        for i in range(n):
            for j in range(i + 1, n):
                m[i, j] = m[j, i] = rng.integers(0, d)
        rep = graphs.AdjacencyMatrix(d, m)
        a = states.build_graph_state(rep).amplitudes
        b = states.build_graph_state_by_gates(rep).amplitudes
        require(np.max(np.abs(a - b)) <= 1e-12, f"{rep!r}: construction paths disagree")
        count += 1
    return f"{count} graphs agree between phase polynomial and gate path within 1e-12"


def check_cluster_purity() -> str:
    family = graphs.cluster_representatives((2, 2, 3))
    count = 0
    for assignment in family.assignments():
        gs = states.assemble_cluster_state(family, assignment)
        for keep in ((2,), (0, 1)):
            purity = states.reduced_purity(gs, keep)
            require(abs(purity - 1.0) <= 1e-9, f"purity across clusters is {purity}")
        count += 1
    return f"{count} direct sums have purity 1 across the dimension split"


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
    t0 = time.perf_counter()
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
    dt = time.perf_counter() - t0
    return f"local <= stabilizer <= quantum on the catalog, {dt:.0f}s"


def check_scan_determinism() -> str:
    t0 = time.perf_counter()
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
    dt = time.perf_counter() - t0
    return f"byte-identical CSV across runs, restarts 8 a prefix of 16, {dt:.0f}s"


CHECKS: tuple[Check, ...] = (
    Check("orbit-counts", True, check_orbit_counts),
    Check("stabilizer-count-formula", False, check_stabilizer_count_formula),
    Check("tilted-chsh-curve", False, check_tilted_chsh_curve),
    Check("cglmp-table", False, check_cglmp_table),
    Check("tripartite-witness", False, check_tripartite_witness),
    Check("coprime-local-cap", True, check_coprime_local_cap),
    Check("stabilizer-fixed-points", True, check_stabilizer_fixed_points),
    Check("graph-state-constructions", True, check_graph_state_constructions),
    Check("cluster-purity", True, check_cluster_purity),
    Check("seesaw-monotonicity", True, check_seesaw_monotonicity),
    Check("bound-sandwich", False, check_bound_sandwich),
    Check("scan-determinism", False, check_scan_determinism),
)


def run_checks(quick: bool = False) -> list[CheckResult]:
    return [c.run() for c in CHECKS if c.quick or not quick]
