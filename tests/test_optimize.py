import numpy as np
import pytest

from magicwit import optimize
from magicwit.bell import (
    behavior_from_state,
    catalog_cglmp,
    catalog_svetlichny_r2,
    catalog_tilted_chsh,
    evaluate,
    local_bound,
)
from magicwit.graphs import AdjacencyMatrix
from magicwit.optimize import (
    OptimizerConfig,
    gap_scan,
    optimize_measurements,
    quantum_value,
    stabilizer_value,
    w_heatmap,
    w_state,
)
from magicwit.states import build_graph_state

CFG = OptimizerConfig(restarts=16, seed=7)


def edge_state():
    return build_graph_state(AdjacencyMatrix(2, [[0, 1], [1, 0]]))


def test_chsh_on_epr_class():
    rep = optimize_measurements(catalog_tilted_chsh(0.0), edge_state(), CFG)
    assert rep.value == pytest.approx(2 * np.sqrt(2), abs=1e-6)


def test_chsh_matches_bloch_grid_oracle():
    # Independent oracle: party 1 sweeps two polar angles on a 721x721 grid
    # in the x-z plane; party 2's best response is closed form.  The state
    # is the edge-class graph state, whose correlation matrix block on
    # (x, z) is [[0, 1], [1, 0]].
    gs = edge_state().amplitudes
    paulis = {
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    r = np.zeros((2, 2))
    for i, ci in enumerate(("x", "z")):
        for j, cj in enumerate(("x", "z")):
            op = np.kron(paulis[ci], paulis[cj])
            r[i, j] = np.real(np.vdot(gs, op @ gs))
    t = np.linspace(0.0, 2 * np.pi, 721)
    t0, t1 = np.meshgrid(t, t, indexing="ij")
    u0 = np.stack([np.sin(t0), np.cos(t0)])
    u1 = np.stack([np.sin(t1), np.cos(t1)])
    w_plus = np.einsum("ci,ixy->cxy", r.T, u0 + u1)
    w_minus = np.einsum("ci,ixy->cxy", r.T, u0 - u1)
    grid_max = np.max(
        np.sqrt((w_plus**2).sum(axis=0)) + np.sqrt((w_minus**2).sum(axis=0))
    )
    rep = optimize_measurements(catalog_tilted_chsh(0.0), edge_state(), CFG)
    assert abs(rep.value - grid_max) <= 1e-3


@pytest.mark.parametrize("alpha", [0.3, 1.2])
def test_tilted_on_product_state_reaches_local_bound(alpha):
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    rep = optimize_measurements(catalog_tilted_chsh(alpha), psi, CFG)
    assert rep.value == pytest.approx(2.0 + alpha, abs=1e-6)


def test_tilted_on_partially_entangled_state():
    theta = np.pi / 8
    alpha = 2.0 / np.sqrt(2.0 * np.tan(2 * theta) ** 2 + 1.0)
    psi = np.zeros(4, dtype=complex)
    psi[0] = np.cos(theta)
    psi[3] = np.sin(theta)
    rep = optimize_measurements(catalog_tilted_chsh(alpha), psi, CFG)
    assert rep.value == pytest.approx(np.sqrt(8.0 + 2.0 * alpha**2), abs=1e-5)


def test_report_value_matches_reevaluation():
    rep = optimize_measurements(catalog_tilted_chsh(0.5), edge_state(), CFG)
    p = behavior_from_state(rep.state, rep.measurements)
    assert rep.value == pytest.approx(evaluate(catalog_tilted_chsh(0.5), p), abs=1e-8)


def test_measurements_are_qubit_observables():
    rep = optimize_measurements(catalog_tilted_chsh(0.0), edge_state(), CFG)
    for per_party in rep.measurements:
        for basis in per_party:
            # A +-1 observable with a unit Bloch vector: traceless, squares to 1.
            obs = basis @ np.diag([1.0, -1.0]) @ basis.conj().T
            assert abs(np.trace(obs)) <= 1e-10
            assert np.max(np.abs(obs @ obs - np.eye(2))) <= 1e-10


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.83, 1.5])
def test_stabilizer_value_tilted(alpha):
    rep = stabilizer_value(catalog_tilted_chsh(alpha), CFG)
    assert rep.value == pytest.approx(max(2 * np.sqrt(2), 2 + alpha), abs=1e-5)
    assert len(rep.class_values) == 2
    assert rep.best_class is not None


def test_stabilizer_value_svetlichny():
    rep = stabilizer_value(catalog_svetlichny_r2(), CFG)
    assert rep.value == pytest.approx(6.0, abs=1e-5)
    assert len(rep.class_values) == 5


def test_quantum_value_chsh():
    rep = quantum_value(catalog_tilted_chsh(0.0), CFG)
    assert rep.value == pytest.approx(2 * np.sqrt(2), abs=1e-6)


def test_quantum_value_tilted_one():
    rep = quantum_value(catalog_tilted_chsh(1.0), CFG)
    assert rep.value == pytest.approx(np.sqrt(10.0), abs=1e-5)


def test_quantum_value_cglmp3():
    rep = quantum_value(catalog_cglmp(3), CFG)
    assert rep.value == pytest.approx(2.9149, abs=1e-3)


def test_seesaw_traces_are_monotone():
    for rep in (
        optimize_measurements(catalog_tilted_chsh(0.7), edge_state(), CFG),
        quantum_value(catalog_cglmp(3), OptimizerConfig(restarts=8, seed=3)),
    ):
        trace = np.asarray(rep.trace)
        assert np.all(np.diff(trace) >= -1e-9 * (1.0 + np.abs(trace[:-1])))


def _haar_qubit(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_local_unitary_invariance():
    ineq = catalog_tilted_chsh(0.0)
    base = optimize_measurements(ineq, edge_state(), CFG).value
    rng = np.random.default_rng(31)
    for _ in range(10):
        u = np.kron(_haar_qubit(rng), _haar_qubit(rng))
        rep = optimize_measurements(ineq, u @ edge_state().amplitudes, CFG)
        assert rep.value == pytest.approx(base, abs=1e-6)


def test_bound_sandwich_tilted():
    ineq = catalog_tilted_chsh(0.9)
    loc = local_bound(ineq)
    stab = stabilizer_value(ineq, CFG).value
    quant = quantum_value(ineq, CFG).value
    assert loc <= stab + 1e-6
    assert stab <= quant + 1e-6


def test_reproducibility_and_worker_independence():
    ineq = catalog_tilted_chsh(0.4)
    r1 = quantum_value(ineq, CFG)
    r2 = quantum_value(ineq, CFG)
    assert r1.value == r2.value
    assert r1.restart_values == r2.restart_values
    r3 = quantum_value(ineq, OptimizerConfig(restarts=16, seed=7, jobs=2))
    assert r1.value == r3.value
    assert r1.restart_values == r3.restart_values


def test_worker_pool_is_capped_by_tasks_and_cores(monkeypatch):
    # The fake pool records its size and starts no process.
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(optimize, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(optimize.os, "cpu_count", lambda: 4)
    ineq = catalog_tilted_chsh(0.4)
    serial = quantum_value(ineq, OptimizerConfig(restarts=3, seed=7))
    capped = quantum_value(ineq, OptimizerConfig(restarts=3, seed=7, jobs=10**6))
    assert sizes == [3]
    assert capped.restart_values == serial.restart_values
    quantum_value(ineq, OptimizerConfig(restarts=9, seed=7, jobs=10**6))
    assert sizes == [3, 4]
    monkeypatch.setattr(optimize.os, "cpu_count", lambda: None)
    quantum_value(ineq, OptimizerConfig(restarts=3, seed=7, jobs=10**6))
    assert sizes == [3, 4]  # an unknown core count runs serially


def test_seed_changes_restart_stream():
    ineq = catalog_tilted_chsh(0.4)
    r1 = quantum_value(ineq, OptimizerConfig(restarts=4, seed=1))
    r2 = quantum_value(ineq, OptimizerConfig(restarts=4, seed=2))
    assert r1.restart_values != r2.restart_values


def test_state_dimension_guard():
    with pytest.raises(ValueError):
        optimize_measurements(catalog_tilted_chsh(0.0), np.ones(3) / np.sqrt(3), CFG)


def test_non_convergence_is_flagged_but_returns_value():
    tight = OptimizerConfig(restarts=2, max_iters=1, tol=1e-15, seed=13)
    rep = quantum_value(catalog_cglmp(3), tight)
    assert not rep.converged
    assert np.isfinite(rep.value)
    assert rep.iterations == 1


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(tol=0.0)


def test_gap_scan_rows():
    cfg = OptimizerConfig(restarts=8, seed=5)
    rows = gap_scan(catalog_tilted_chsh, [0.0, 1.0, 2.0], cfg)
    assert [r.param for r in rows] == [0.0, 1.0, 2.0]
    assert rows[0].gap == pytest.approx(0.0, abs=1e-6)
    # closed forms: sqrt(8 + 2 alpha^2) - max(2 sqrt(2), 2 + alpha)
    assert rows[1].gap == pytest.approx(np.sqrt(10) - 3.0, abs=1e-5)
    assert rows[2].gap == pytest.approx(0.0, abs=1e-6)
    assert rows[0].local == 2.0 and rows[2].local == 4.0
    quantum = [r.quantum for r in rows]
    assert quantum == sorted(quantum)


def _svetlichny_only():
    import itertools

    from magicwit.bell import BellInequality

    c = np.zeros((2, 2, 2, 2, 2, 2))
    sign = {0: 1.0, 1: 1.0, 2: -1.0, 3: -1.0}
    for xs in itertools.product(range(2), repeat=3):
        for outs in itertools.product(range(2), repeat=3):
            c[outs + xs] += sign[sum(xs)] * (-1.0) ** sum(outs)
    return BellInequality((2, 2, 2), (2, 2, 2), c, name="svetlichny-only")


def _exchange_terms_only():
    import itertools

    from magicwit.bell import BellInequality

    c = np.zeros((2, 2, 2, 2, 2, 2))
    for p, q in ((0, 1), (0, 2), (1, 2)):
        r = 3 - p - q
        for i in (0, 1):
            for xr in (0, 1):
                xs = [0, 0, 0]
                xs[p], xs[q], xs[r] = i, i ^ 1, xr
                for outs in itertools.product(range(2), repeat=3):
                    c[outs + tuple(xs)] += 0.5 * (-1.0) ** (outs[p] + outs[q])
    return BellInequality((2, 2, 2), (2, 2, 2), c, name="exchange-only")


def test_biseparable_caps_for_witness_parts():
    # On a maximally entangled pair next to a free qubit the two pieces of
    # the three-party witness cap separately: the exchange part at 2 (the
    # pair's reductions are maximally mixed) and the Svetlichny part at 4.
    pair_with_spectator = np.zeros(8, dtype=complex)
    pair_with_spectator[0] = pair_with_spectator[6] = 1 / np.sqrt(2)  # (|000>+|110>)/sqrt(2)
    both = _svetlichny_only(), _exchange_terms_only()
    svet = optimize_measurements(both[0], pair_with_spectator, CFG)
    exch = optimize_measurements(both[1], pair_with_spectator, CFG)
    assert svet.value <= 4.0 + 1e-6
    assert exch.value <= 2.0 + 1e-6
    # the sum of the two tensors is the shipped witness
    total = both[0].coeffs + both[1].coeffs
    assert np.allclose(total, catalog_svetlichny_r2().coeffs)


def test_w_state_vector():
    theta = np.arccos(1 / np.sqrt(3))
    psi = w_state(theta, np.pi / 4)
    assert np.linalg.norm(psi) == pytest.approx(1.0)
    assert psi[1] == pytest.approx(1 / np.sqrt(3))
    assert psi[2] == pytest.approx(1 / np.sqrt(3))
    assert psi[4] == pytest.approx(1 / np.sqrt(3))


def test_w_heatmap_grid_and_peak():
    cfg = OptimizerConfig(restarts=12, seed=9)
    thetas = [0.0, np.arccos(1 / np.sqrt(3))]
    phis = [0.0, np.pi / 4, np.pi / 2]
    heat = w_heatmap(thetas, phis, cfg)
    assert heat.shape == (2, 3)
    assert np.all(heat[0, :] <= 6.0 + 1e-6)
    assert heat[1, 1] == pytest.approx(7.26, abs=0.02)


def test_w_heatmap_range_guard():
    with pytest.raises(ValueError):
        w_heatmap([0.0, 4.0], [0.0, 1.0], CFG)
