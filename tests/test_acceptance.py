"""End-to-end acceptance suite.

Each check of the package lives in magicwit.verify so the CLI's `verify`
subcommand and this module exercise exactly the same assertions, with all
tolerances pinned inside the checks and the time limits in `verify.CHECKS`.
Three more checks run here only: they compare the package's graph states
with the test-local oracles of test_states (gate construction, dense
generators, reduced purity), which the package itself does not ship.  Run
with -v to get one pass/fail line per check.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
from test_states import build_graph_state_by_gates, reduced_purity, stabilizer_generators

from magicwit import graphs, states, verify
from magicwit.errors import require


def _representative_states():
    for n, d in ((2, 2), (3, 2), (2, 3), (2, 5)):
        yield from graphs.enumerate_classes(n, d).representatives


def check_stabilizer_fixed_points() -> str:
    count = 0
    for rep in _representative_states():
        gs = states.build_graph_state(rep)
        for g in stabilizer_generators(rep):
            err = np.linalg.norm(g @ gs.amplitudes - gs.amplitudes)
            require(err <= 1e-9, f"{rep!r}: generator moves the state by {err}")
        count += 1
    return f"{count} representatives fixed by all dense generators within 1e-9"


def check_graph_state_constructions() -> str:
    reps = list(_representative_states())
    rng = np.random.default_rng(7)
    for d, n in ((2, 4), (3, 3), (5, 2)):
        m = np.zeros((n, n), dtype=int)
        for i in range(n):
            for j in range(i + 1, n):
                m[i, j] = m[j, i] = rng.integers(0, d)
        reps.append(graphs.AdjacencyMatrix(d, m))
    for rep in reps:
        a = states.build_graph_state(rep).amplitudes
        b = build_graph_state_by_gates(rep).amplitudes
        require(np.max(np.abs(a - b)) <= 1e-12, f"{rep!r}: construction paths disagree")
    return f"{len(reps)} graphs agree between phase polynomial and gate path within 1e-12"


def check_cluster_purity() -> str:
    family = graphs.cluster_representatives((2, 2, 3))
    count = 0
    for assignment in family.assignments():
        gs = states.assemble_cluster_state(family, assignment)
        for keep in ((2,), (0, 1)):
            purity = reduced_purity(gs, keep)
            require(abs(purity - 1.0) <= 1e-9, f"purity across clusters is {purity}")
        count += 1
    return f"{count} direct sums have purity 1 across the dimension split"


ORACLE_CHECKS = (
    verify.Check("stabilizer-fixed-points", True, check_stabilizer_fixed_points),
    verify.Check("graph-state-constructions", True, check_graph_state_constructions),
    verify.Check("cluster-purity", True, check_cluster_purity),
)


@pytest.mark.parametrize("check", verify.CHECKS + ORACLE_CHECKS, ids=lambda c: c.name)
def test_acceptance(check):
    # Through `run`, so a check that passes but reaches its time limit fails here too.
    result = check.run()
    assert result.ok, result.detail
    assert result.detail
    print(f"[{check.name}] ({result.seconds:.2f}s) {result.detail}")


def test_a_check_that_reaches_its_limit_fails():
    result = verify.Check("slow", True, lambda: "ok", 0.0).run()
    assert not result.ok
    assert result.detail.startswith("took ") and result.detail.endswith(", limit 0s")


def test_every_check_is_registered_once():
    names = [c.name for c in verify.CHECKS]
    assert len(names) == len(set(names))
    assert len(names) == 9
    quick = [c.name for c in verify.CHECKS if c.quick]
    assert "orbit-counts" in quick and "cglmp-table" not in quick
    assert "stabilizer-count-formula" in quick
    limits = {c.name: c.limit for c in verify.CHECKS if c.limit < math.inf}
    assert limits == {
        "orbit-counts": 1.0,
        "stabilizer-count-formula": 60.0,
        "tilted-chsh-curve": 60.0,
        "cglmp-table": 600.0,
        "tripartite-witness": 300.0,
    }


def test_fault_injection_is_caught(monkeypatch):
    # Corrupting a pipeline ingredient must flip its check to a failure
    # (and with it the verify exit code) rather than pass silently.
    real = graphs.enumerate_classes

    def corrupted(n, d):
        cat = real(n, d)
        return graphs.OrbitCatalog(
            n=cat.n,
            d=cat.d,
            representatives=cat.representatives[:-1],
            orbit_sizes=cat.orbit_sizes[:-1],
        )

    monkeypatch.setattr(verify.graphs, "enumerate_classes", corrupted)
    for name in ("orbit-counts", "stabilizer-count-formula"):
        result = next(c for c in verify.CHECKS if c.name == name).run()
        assert not result.ok, name
        assert "expected" in result.detail

    # A class state with one amplitude off by a phase is no longer fixed by
    # its generators, and the check names the first one that moves it.
    monkeypatch.undo()
    real_state = verify.states.assemble_cluster_state

    def wrong_phase(family, assignment):
        gs = real_state(family, assignment)
        amps = gs.amplitudes.copy()
        amps[-1] *= 1j
        return verify.states.GraphState(gs.dims, amps, gs.source)

    monkeypatch.setattr(verify.states, "assemble_cluster_state", wrong_phase)
    result = next(c for c in verify.CHECKS if c.name == "stabilizer-count-formula").run()
    assert not result.ok
    generator = "(2, 2): generator 0 of AdjacencyMatrix(d=2, n=2, edges=[]) on parties (0, 1)"
    assert result.detail.startswith(generator + " moves the state by")


FAULT_UNDER_O = """
from magicwit import graphs, verify

real = graphs.enumerate_classes


def corrupted(n, d):
    cat = real(n, d)
    return graphs.OrbitCatalog(
        n=cat.n, d=cat.d,
        representatives=cat.representatives[:-1], orbit_sizes=cat.orbit_sizes[:-1],
    )


verify.graphs.enumerate_classes = corrupted
print(next(c for c in verify.CHECKS if c.name == "orbit-counts").run().ok)
print(verify.Check("slow", True, lambda: "ok", 0.0).run().ok)
"""


def test_fault_injection_is_caught_under_python_O():
    # `python -O` strips assert statements; the checks and the time limits must still fail.
    out = subprocess.run(
        [sys.executable, "-O", "-c", FAULT_UNDER_O],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == ["False", "False"]
