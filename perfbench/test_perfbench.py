"""Tests of the benchmark itself: its oracles, its checks and its workloads.

    python3 -m pytest perfbench

Each workload runs at a tiny size, so the whole file takes seconds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from magicwit import bell, graphs, optimize, states  # noqa: E402

TINY = {
    "cglmp": lambda: workloads.cglmp(0, ds=(3,), restarts=2),
    "tripartite": lambda: workloads.tripartite(
        0, thetas=(0.0, workloads.W_THETA), phis=(np.pi / 4, np.pi / 2), restarts=2
    ),
    "enumerate": lambda: workloads.enumerate_(0, shapes=((3, 2), (2, 3)), settings=3, count=1),
}


@pytest.fixture(scope="module")
def tiny_outputs():
    out = {}
    for name, build in TINY.items():
        wl = build()
        out[name] = (wl, {op.name: op.call() for op in wl.operations})
    return out


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_its_checks(tiny_outputs, name):
    wl, outputs = tiny_outputs[name]
    assert set(outputs) == {op.name for op in wl.operations}
    assert dict(wl.check(outputs)) == {}


def _off(x):
    return x + 1e-3


def _report_off(rep):
    return dataclasses.replace(rep, value=rep.value - 1e-3)


def _product_point_off(heat):
    heat = heat.copy()
    heat[0, 0] += 1e-3  # theta = 0 is the product state |100>
    return heat


def _orbit_size_off(cat):
    sizes = (cat.orbit_sizes[0] + 1,) + cat.orbit_sizes[1:]
    return dataclasses.replace(cat, orbit_sizes=sizes)


@pytest.mark.parametrize(
    "name, op, corrupt",
    [
        ("cglmp", "local d=3", _off),
        ("cglmp", "stabilizer d=3", _report_off),
        ("cglmp", "quantum d=3", _report_off),
        ("tripartite", "local", _off),
        ("tripartite", "stabilizer", _report_off),
        ("tripartite", "heatmap", _product_point_off),
        ("enumerate", "local random-0", _off),
        ("enumerate", "classes n=3 d=2", _orbit_size_off),
    ],
)
def test_injected_error_fails_the_check(tiny_outputs, name, op, corrupt):
    wl, outputs = tiny_outputs[name]
    failures = wl.check({**outputs, op: corrupt(outputs[op])})
    assert set(failures) == {op}


def test_stabilizer_check_rejects_a_state_of_another_class(tiny_outputs):
    wl, outputs = tiny_outputs["cglmp"]
    rep = outputs["stabilizer d=3"]
    assert rep.best_class[0].edges()  # the entangled class beats the product class
    other = graphs.AdjacencyMatrix(3, np.zeros((2, 2), dtype=int))
    wrong = dataclasses.replace(rep, best_class=(other,))
    failures = wl.check({**outputs, "stabilizer d=3": wrong})
    assert any("generators" in m for m in failures["stabilizer d=3"])


def test_oracle_local_bound_matches_the_package():
    rng = np.random.default_rng(7)
    for outcomes, settings in (((2, 2), (3, 3)), ((3, 2), (2, 3)), ((2, 2, 2), (2, 2, 2))):
        q = bell.BellInequality(outcomes, settings, rng.standard_normal(outcomes + settings))
        own = oracles.local_bound(q.coeffs, outcomes, settings)
        assert own == pytest.approx(bell.local_bound(q), abs=1e-12)


def test_oracle_born_value_matches_the_package():
    rng = np.random.default_rng(8)
    ineq = bell.catalog_cglmp(3)
    bases = [[optimize._random_basis(rng, 3) for _ in range(2)] for _ in range(2)]
    psi = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    psi /= np.linalg.norm(psi)
    want = bell.evaluate(ineq, bell.behavior_from_state(psi, bases))
    assert oracles.born_value(ineq.coeffs, psi, bases) == pytest.approx(want, abs=1e-12)


def test_oracle_generators_fix_graph_states_only():
    a = graphs.AdjacencyMatrix(3, [[0, 1, 2], [1, 0, 0], [2, 0, 0]])
    psi = states.build_graph_state(a).amplitudes
    assert oracles.is_stabilized(psi, (3, 3, 3), (a,))
    b = graphs.AdjacencyMatrix(3, [[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    assert not oracles.is_stabilized(psi, (3, 3, 3), (b,))


def test_traced_pass_reports_every_per_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wl = TINY["cglmp"]()
    tr = tracer.Tracer()
    with tr.installed():
        wall, failures = run.run_pass(wl)
    assert failures == {}
    assert not hasattr(optimize.stabilizer_value, "__wrapped__")
    metrics = tracer.layer_metrics(tr.spans)
    assert set(metrics) | {"trace.overhead_s"} == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"] + spec["end_to_end"]:
        assert run.unit(m["name"]) == m["unit"], m["name"]
    assert metrics["optimize.restarts"] == 2 * 3  # two classes and one quantum value
    assert metrics["graphs.matrices"] == 3
    assert metrics["bell.strategies"] == 3**4
    edgeless = metrics["optimize.edgeless_class.s"]
    assert 0 < edgeless < metrics["optimize.optimize_measurements.s"] < wall


def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    names = {m["name"] for m in spec["end_to_end"]}
    assert names == {"wall_s", "setup_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS) == set(workloads.BY_NAME)


def test_run_refuses_a_checkout_without_the_package(tmp_path):
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    args = ["--workload", "cglmp", "--seed", "0", "--seconds", "1"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
