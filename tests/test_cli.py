import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import magicwit
from magicwit import verify
from magicwit.bell import BellInequality, catalog_tilted_chsh, local_bound
from magicwit.cli import _config, build_parser, load_inequality_file, main
from magicwit.optimize import OptimizerConfig

FAST = ["--restarts", "8", "--seed", "3"]


def inequality_to_json(ineq: BellInequality) -> dict:
    """Sparse JSON form of an inequality, the format `load_inequality_file` reads."""
    records = []
    n = ineq.parties
    for index in np.ndindex(*ineq.coeffs.shape):
        value = float(ineq.coeffs[index])
        if value != 0.0:
            records.append({"a": list(index[:n]), "x": list(index[n:]), "value": value})
    return {
        "name": ineq.name,
        "parties": n,
        "outcomes": list(ineq.outcomes),
        "settings": list(ineq.settings),
        "coefficients": records,
    }


def run_cli(args, env=None, timeout=None):
    """Run the CLI in a child process that inherits this environment.

    The child finds the package the same way the tests do (installed, or via
    ``PYTHONPATH``); ``env`` entries are set on top of the inherited ones.  A
    child still running after ``timeout`` seconds is killed and the call raises.
    """
    return subprocess.run(
        [sys.executable, "-m", "magicwit", *args],
        capture_output=True,
        text=True,
        env={**os.environ, **(env or {})},
        timeout=timeout,
    )


def test_classes_listing_rows():
    out = run_cli(["classes", "3", "2"])
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert "5 classes" in lines[0]
    assert len(lines) == 6


def test_classes_json():
    out = run_cli(["classes", "2", "3", "--json"])
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["class_count"] == 2
    assert payload["total_matrices"] == 3
    sizes = [c["size"] for c in payload["classes"]]
    assert sorted(sizes) == [1, 2]


def test_classes_single_vertex():
    out = run_cli(["classes", "1", "2"])
    assert out.returncode == 0
    assert "1 classes" in out.stdout
    assert "(no edges)" in out.stdout


def test_classes_budget_exit_code():
    out = run_cli(["classes", "8", "2"])
    assert out.returncode == 3
    assert "budget" in out.stderr


def test_bounds_tilted_chsh():
    out = run_cli(["bounds", "tilted-chsh", "--alpha", "0.5", *FAST])
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["local"] == pytest.approx(2.5)
    assert payload["stabilizer"] == pytest.approx(2.8284, abs=1e-3)
    assert payload["quantum"] == pytest.approx(2.9155, abs=1e-3)
    assert payload["gap"] == pytest.approx(payload["quantum"] - payload["stabilizer"])
    assert payload["manifest"]["seed"] == 3


def test_bounds_cglmp_qutrit():
    out = run_cli(["bounds", "cglmp", "--d", "3", "--restarts", "12", "--seed", "5"])
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["local"] == pytest.approx(2.0)
    assert payload["stabilizer"] == pytest.approx(2.8729, abs=1e-2)
    assert payload["quantum"] == pytest.approx(2.9149, abs=1e-2)


def test_bounds_which_local_only():
    out = run_cli(["bounds", "svetlichny-r2", "--which", "local"])
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["local"] == pytest.approx(6.0)
    assert "quantum" not in payload and "stabilizer" not in payload


def test_bounds_unknown_family_is_user_error():
    out = run_cli(["bounds", "no-such-file.json", "--which", "local"])
    assert out.returncode == 2
    assert "error" in out.stderr


def test_scan_csv_shape_and_final_gap():
    out = run_cli(
        ["scan", "tilted-chsh", "--start", "1.6", "--stop", "2.0", "--step", "0.2", *FAST]
    )
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "param,local,stab,quantum,gap"
    assert len(lines) == 4
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(2.0)
    assert abs(float(last[4])) <= 1e-6


def test_scan_deterministic_bytes():
    args = ["scan", "tilted-chsh", "--start", "0", "--stop", "0.4", "--step", "0.4", *FAST]
    a = run_cli(args)
    b = run_cli(args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_jobs_flag_is_gone():
    out = run_cli(["scan", "tilted-chsh", "--step", "1", *FAST, "--jobs", "2"])
    assert out.returncode == 2
    assert out.stdout == ""
    assert "--jobs" in out.stderr


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["bounds", "cglmp", "--tol", "1e-6"], "--tol"),
        (["scan", "tilted-chsh", "--max-iters", "3"], "--max-iters"),
        (["heatmap", "--max-iters", "3"], "--max-iters"),
    ],
)
def test_stopping_rule_flags_are_gone(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main([*argv, *FAST])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


# Each command's manifest keys beyond command, version and wall_time_s, for the runs below.
MANIFEST_EXTRAS = {
    "scan": {"family": "tilted-chsh", "rows": 3, "restarts": 8, "seed": 3, "tol": 1e-09},
    "heatmap": {"theta_steps": 2, "phi_steps": 2, "restarts": 8, "seed": 3, "tol": 1e-09},
    "bounds": {"restarts": 8, "seed": 3, "tol": 1e-09},
    "classes": {"n": 3, "d": 2},
    "verify": {"quick": True, "failed": 0},
}


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "tilted-chsh", "--step", "1", *FAST],
        ["heatmap", "--theta-steps", "2", "--phi-steps", "2", *FAST],
        ["bounds", "cglmp", "--which", "local", *FAST],
        ["classes", "3", "2"],
        ["verify", "--quick"],
    ],
)
def test_grid_manifests_echo_the_stopping_tolerance(monkeypatch, capsys, argv):
    # The goldens pin stdout only; the one stderr line is the manifest, and
    # every see-saw command echoes the tolerance that `bounds` echoes in its payload.
    monkeypatch.setattr(verify, "CHECKS", (verify.Check("stub", True, lambda: "ok"),))
    assert main(argv) == 0
    (line,) = capsys.readouterr().err.splitlines()
    manifest = json.loads(line.removeprefix("manifest: "))
    assert manifest.pop("wall_time_s") >= 0.0
    extra = MANIFEST_EXTRAS[argv[0]]
    assert manifest == {"command": argv[0], "version": magicwit.__version__, **extra}


@pytest.mark.parametrize("argv,code", [(["scan", "nope"], 2), (["classes", "8", "2"], 3)])
def test_a_command_that_fails_writes_no_manifest(capsys, argv, code):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")


def test_optimizer_flag_defaults_are_the_config_defaults():
    args = build_parser().parse_args(["bounds", "cglmp"])
    assert _config(args) == OptimizerConfig()


def test_scan_range_validation():
    out = run_cli(["scan", "tilted-chsh", "--start", "1", "--stop", "3", "--step", "1"])
    assert out.returncode == 2


def test_scan_reversed_range_is_user_error(capsys):
    assert main(["scan", "tilted-chsh", "--start", "1", "--stop", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: tilted-chsh scan needs 0 <= start <= stop <= 2"]


def test_heatmap_minimal_grid():
    out = run_cli(["heatmap", "--theta-steps", "2", "--phi-steps", "2", "--restarts", "4"])
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "theta,phi,value"
    assert len(lines) == 5
    assert lines[1].startswith("0,0,")
    assert lines[-1].startswith("1,1,")


def test_heatmap_grid_validation():
    out = run_cli(["heatmap", "--theta-steps", "1", "--phi-steps", "4"])
    assert out.returncode == 2


@pytest.mark.parametrize(
    "argv, points",
    [
        (["scan", "tilted-chsh", "--step", "1e-12"], "2000000000001"),
        (["scan", "tilted-chsh", "--step", "5e-324"], "inf"),
        (["scan", "tilted-chsh", "--stop", "1", "--step", "1e-5"], "100001"),
        (["heatmap", "--theta-steps", "100000", "--phi-steps", "100000"], "10000000000"),
        (["heatmap", "--theta-steps", "1000", "--phi-steps", "101"], "101000"),
        # Too large for a float: the count is written as its factors.
        pytest.param(
            ["heatmap", "--theta-steps", str(10**400), "--phi-steps", "2"],
            f"{10**400} x 2",
            id="heatmap-10^400-steps",
        ),
    ],
)
def test_oversized_grid_exits_3_before_building(monkeypatch, capsys, argv, points):
    from magicwit import optimize

    def unreachable(*args):
        raise AssertionError("grid built")

    monkeypatch.setattr(optimize, "gap_scan", unreachable)
    monkeypatch.setattr(optimize, "w_heatmap", unreachable)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {points} grid points exceed the limit 100000"]


@pytest.mark.parametrize(
    "argv, params",
    [
        (["--step", "0.3"], [0.0, 0.3, 0.6, 0.9, 1.2, 1.5, 1.8]),
        (["--stop", "1", "--step", "0.35"], [0.0, 0.35, 0.7]),
        (["--stop", "0.3", "--step", "0.1"], [0.0, 0.1, 0.2, 0.3]),
    ],
)
def test_scan_grid_stops_at_stop(monkeypatch, capsys, argv, params):
    from magicwit import optimize

    seen = []
    monkeypatch.setattr(optimize, "gap_scan", lambda family, ps, cfg: seen.extend(ps) or [])
    assert main(["scan", "tilted-chsh", *argv]) == 0
    assert seen == pytest.approx(params)


def test_scan_nan_step_is_user_error(monkeypatch, capsys):
    from magicwit import optimize

    monkeypatch.setattr(optimize, "gap_scan", lambda *a: pytest.fail("grid built"))
    assert main(["scan", "tilted-chsh", "--step", "nan"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: step must be positive"]


def test_seed_comes_only_from_the_flag():
    # The environment sets no seed: without --seed the run uses 0.
    out = run_cli(["bounds", "tilted-chsh", "--which", "local"], env={"MAGICWIT_SEED": "99"})
    assert out.returncode == 0
    assert json.loads(out.stdout)["manifest"]["seed"] == 0


def test_negative_seed_is_user_error_before_any_work(capsys):
    # The seed is checked with the other see-saw settings, before the local
    # bound or any grid point runs.
    assert main(["bounds", "tilted-chsh", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: seed must be a non-negative integer"]
    assert main(["heatmap", "--theta-steps", "2", "--phi-steps", "2", "--seed", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: seed must be a non-negative integer"]


def test_inequality_file_round_trip(tmp_path):
    ineq = catalog_tilted_chsh(0.0)
    path = tmp_path / "chsh.json"
    path.write_text(json.dumps(inequality_to_json(ineq)))
    loaded = load_inequality_file(str(path))
    assert loaded.outcomes == ineq.outcomes
    assert loaded.settings == ineq.settings
    assert np.allclose(loaded.coeffs, ineq.coeffs)
    assert local_bound(loaded) == pytest.approx(2.0)


def test_bounds_spec_file_over_strategy_budget_exits_3(tmp_path):
    # 2^13 strategies per party, 2^26 in all: over the default budget of 2^24.
    doc = {
        "parties": 2,
        "outcomes": [2, 2],
        "settings": [13, 13],
        "coefficients": [{"a": [0, 0], "x": [0, 0], "value": 1.0}],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    out = run_cli(["bounds", str(path), "--which", "local"])
    assert out.returncode == 3
    assert "budget" in out.stderr
    assert "Traceback" not in out.stderr


def test_coefficient_tensor_limit_exits_3_before_allocating(monkeypatch, tmp_path, capsys):
    from magicwit import bell

    monkeypatch.setattr(bell, "MAX_COEFFICIENTS", 16)
    doc = {"parties": 2, "outcomes": [2, 2], "settings": [2, 2], "coefficients": []}
    path = tmp_path / "small.json"
    path.write_text(json.dumps(doc))
    assert load_inequality_file(str(path)).coeffs.shape == (2, 2, 2, 2)
    doc["settings"] = [3, 3]
    path.write_text(json.dumps(doc))
    assert main(["bounds", str(path), "--which", "local"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: 36 entries of the coefficient tensor of {path} exceed the limit 16"
    ]


@pytest.mark.parametrize("which", ["quantum", "stab"])
def test_seesaw_register_limit_exits_3_before_allocating(monkeypatch, capsys, which):
    from magicwit import optimize

    # Tilted CHSH: a 4-dimensional register at 2 x 2 settings, 4^2 x 4 = 64 entries of K.
    monkeypatch.setattr(optimize, "SEESAW_REGISTER_LIMIT", 63)
    monkeypatch.setattr(optimize, "_restarts", lambda *a: pytest.fail("see-saw ran"))
    assert main(["bounds", "tilted-chsh", "--which", which, *FAST]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: 64 see-saw register entries per restart exceed the limit 63"
    ]


@pytest.mark.parametrize(
    "argv, line",
    [
        (["classes", "170", "2"], "2^14365 matrices at (n=170, d=2) exceed the enumeration budget"),
        # 3^(2 10^10) matrices: never built, so this returns at once.
        (
            ["classes", "200000", "3"],
            "3^19999900000 matrices at (n=200000, d=3) exceed the enumeration budget",
        ),
        (
            ["bounds", "FILE", "--which", "local"],
            "2^20000 x 2 deterministic strategies exceed the budget",
        ),
    ],
    ids=["classes-170-2", "classes-200000-3", "file-20000-settings"],
)
def test_budget_of_a_huge_count_exits_3(tmp_path, capsys, argv, line):
    # The count is decided without building it, and its line names its powers.
    # FILE has 2^20000 x 2 strategies, a count of 6021 digits.
    doc = {"parties": 2, "outcomes": [2, 2], "settings": [20000, 1], "coefficients": []}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main([str(path) if a == "FILE" else a for a in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {line} {1 << 24}"]


@pytest.mark.parametrize(
    "d, size",
    [("5", "100"), ("1000000000000000003", "1000000000000000003^2 x 2^2")],
    ids=["d-5", "d-huge-prime"],
)
def test_cglmp_tensor_limit_exits_3_before_building(monkeypatch, capsys, d, size):
    from magicwit import bell

    # cglmp(5) holds 5^2 x 4 = 100 coefficients; each count comes before d's primality test.
    monkeypatch.setattr(bell, "MAX_COEFFICIENTS", 99)
    monkeypatch.setattr(bell, "require_prime", lambda d: pytest.fail("primality tested"))
    assert main(["bounds", "cglmp", "--d", d, "--which", "local"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {size} entries of the cglmp coefficient tensor exceed the limit 99"
    ]


def test_file_of_huge_counts_exits_3(tmp_path, capsys):
    # The tensor's entry count has 8002 digits, past what Python writes as a
    # decimal string; the count is written as its factors instead.
    big = 10**4000 + 1
    doc = {"parties": 2, "outcomes": [big, big], "settings": [1, 1], "coefficients": []}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["bounds", str(path), "--which", "local"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {big} x {big} x 1 x 1 entries of the coefficient tensor of {path} "
        f"exceed the limit {1 << 24}"
    ]


PRIME = "1000000000000000003"


@pytest.mark.parametrize(
    "argv, code, line",
    [
        (["classes", "3", PRIME], 3, f"{PRIME} is a local dimension past the limit {1 << 24}"),
        (["classes", "1", PRIME], 3, f"{PRIME} is a local dimension past the limit {1 << 24}"),
        (
            ["bounds", "tilted-chsh", "--restarts", "1000000000"],
            3,
            "1000000000 see-saw restarts exceed the limit 1024",
        ),
        # A d that is no prime is refused before the count (-2)^(2 10^10) is formed.
        (["classes", "200000", "-2"], 2, "local dimension must be a prime integer, got -2"),
        (["classes", "8", "4"], 2, "local dimension must be a prime integer, got 4"),
    ],
    ids=[
        "classes-3-prime",
        "classes-1-prime",
        "restarts-1e9",
        "classes-200000-minus-2",
        "classes-8-4",
    ],
)
def test_limit_is_decided_before_the_work(argv, code, line):
    # The dimension and the restart count are decided before the trial division,
    # the count or the spawn of the restarts, so these end at once; the timeout
    # turns a hang into a failure.
    out = run_cli(argv, timeout=60)
    assert out.returncode == code
    assert out.stdout == ""
    assert out.stderr.splitlines() == [f"error: {line}"]


def test_budget_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classes", "3", "2", "--budget", "5"])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err


def test_bounds_from_spec_file(tmp_path):
    path = tmp_path / "chsh.json"
    path.write_text(json.dumps(inequality_to_json(catalog_tilted_chsh(0.0))))
    out = run_cli(["bounds", str(path), "--which", "local"])
    assert out.returncode == 0
    assert json.loads(out.stdout)["local"] == pytest.approx(2.0)


@pytest.mark.parametrize(
    "mangle,message",
    [
        (lambda d: d.pop("outcomes"), "missing field"),
        (lambda d: d["coefficients"].append(dict(d["coefficients"][0])), "duplicate"),
        (lambda d: d["coefficients"][0].update(a=[9, 0]), "out of range"),
        (lambda d: d["coefficients"][0].update(x=[0]), "must list"),
        (lambda d: d["coefficients"][0].update(a=[0.5, 0]), "must be integers"),
        (lambda d: d.update(outcomes=["2", "2"]), "must list positive integers"),
        (lambda d: d.update(coefficients=[5]), "must be a list of objects"),
        (lambda d: d.update(coefficients={}), "must be a list of objects"),
        (lambda d: d["coefficients"][0].update(value=None), "must be a number"),
        (lambda d: d.update(name=None), "'name' must be a string"),
        (lambda d: d.update(name={"x": 1}), "'name' must be a string"),
    ],
)
def test_spec_file_diagnostics(tmp_path, mangle, message):
    _check_spec_file_diagnostic(tmp_path, mangle, message)


@pytest.mark.parametrize(
    "mangle,message",
    [
        (lambda d: d["coefficients"][0].update(value="1.5"), "must be a number"),
        (lambda d: d["coefficients"][0].update(value=True), "must be a number"),
        (lambda d: d["coefficients"][0].update(value=10**400), "out of range"),
    ],
)
def test_spec_file_value_diagnostics(tmp_path, mangle, message):
    _check_spec_file_diagnostic(tmp_path, mangle, message)


def _check_spec_file_diagnostic(tmp_path, mangle, message):
    data = inequality_to_json(catalog_tilted_chsh(0.0))
    mangle(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    out = run_cli(["bounds", str(path), "--which", "local"])
    assert out.returncode == 2
    assert message in out.stderr
    assert "Traceback" not in out.stderr


_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1, 3),
    st.sampled_from([0.5, float("nan"), float("inf"), 10**400]),
    st.text(max_size=2),
    st.lists(st.integers(-1, 3), max_size=4),
    st.dictionaries(st.text(max_size=1), st.integers(0, 2), max_size=2),
)


@st.composite
def _spec_documents(draw):
    """A small well-formed inequality file with up to two fields replaced or dropped."""
    n = draw(st.integers(1, 3))
    outcomes = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    counts = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    record = st.fixed_dictionaries(
        {
            "a": st.tuples(*(st.integers(0, d - 1) for d in outcomes)).map(list),
            "x": st.tuples(*(st.integers(0, m - 1) for m in counts)).map(list),
            "value": st.floats(-2, 2),
        }
    )
    records = draw(
        st.lists(record, max_size=8, unique_by=lambda r: (tuple(r["a"]), tuple(r["x"])))
    )
    doc = {
        "name": "fuzz",
        "parties": n,
        "outcomes": outcomes,
        "settings": counts,
        "coefficients": records,
    }
    for _ in range(draw(st.integers(0, 2))):
        target = draw(st.sampled_from(records)) if records and draw(st.booleans()) else doc
        if not target:
            continue
        key = draw(st.sampled_from(sorted(target)))
        if draw(st.booleans()):
            target[key] = draw(_JUNK)
        else:
            del target[key]
    return doc


@settings(max_examples=150, deadline=None)
@given(doc=_spec_documents())
def test_spec_file_fuzz_exits_0_or_2(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["bounds", path, "--which", "local"])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()


def test_spec_file_json_parse_diagnostics(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"parties": 2,,}')
    out = run_cli(["bounds", str(path), "--which", "local"])
    assert out.returncode == 2
    assert "line" in out.stderr


def test_main_returns_exit_codes_in_process(tmp_path, capsys):
    assert main(["classes", "2", "2"]) == 0
    assert main(["classes", "8", "2"]) == 3
    capsys.readouterr()


def test_verify_quick_subset():
    out = run_cli(["verify", "--quick"])
    assert out.returncode == 0
    lines = [l for l in out.stdout.splitlines() if l.startswith("[")]
    assert lines and all(l.startswith("[PASS]") for l in lines)
    assert "checks passed" in out.stdout


def test_verify_exit_code_on_failure(monkeypatch, capsys):
    def boom():
        raise AssertionError("injected fault")

    monkeypatch.setattr(verify, "CHECKS", (verify.Check("injected", True, boom),))
    assert main(["verify", "--quick"]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] injected" in captured.out


def test_verify_quick_under_python_O():
    # The checks raise explicitly, so `python -O` keeps them.
    out = subprocess.run(
        [sys.executable, "-O", "-m", "magicwit", "verify", "--quick"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "4/4 checks passed" in out.stdout


def test_seesaw_self_check_failure_exits_1(monkeypatch, capsys):
    from magicwit import optimize

    real = optimize.bell.evaluate
    monkeypatch.setattr(optimize.bell, "evaluate", lambda ineq, p: real(ineq, p) + 1e-6)
    assert main(["bounds", "tilted-chsh", "--restarts", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: re-evaluation drifted from the see-saw value"]


def test_environment_drift_exits_1(monkeypatch, capsys):
    from magicwit import optimize

    real = optimize._environments

    def skewed(c, w):
        b = real(c, w)
        b[0, :, -1, -1] += 1e-3  # a small offset on every setting's last outcome, then hermitized
        return b

    monkeypatch.setattr(optimize, "_environments", skewed)
    assert main(["bounds", "tilted-chsh", "--restarts", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: see-saw trace drifted from the objective"]


def test_scan_full_grid_row_count():
    out = run_cli(
        ["scan", "tilted-chsh", "--start", "0", "--stop", "2", "--step", "0.1",
         "--restarts", "2", "--seed", "1"]
    )
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert len(lines) == 22  # header plus 21 grid rows
    params = [float(l.split(",")[0]) for l in lines[1:]]
    assert params[0] == 0.0 and params[-1] == 2.0


def test_bounds_spec_file_with_dims(tmp_path):
    # The stabilizer register of a (2, 3)-outcome file is mixed qubit/qutrit.
    rng = np.random.default_rng(4)
    records = [
        {"a": [a1, a2], "x": [x1, x2], "value": float(rng.uniform(-1, 1))}
        for a1 in range(2)
        for a2 in range(3)
        for x1 in range(2)
        for x2 in range(2)
    ]
    path = tmp_path / "mixed.json"
    path.write_text(
        json.dumps(
            {
                "name": "mixed",
                "parties": 2,
                "outcomes": [2, 3],
                "settings": [2, 2],
                "coefficients": records,
            }
        )
    )
    out = run_cli(["bounds", str(path), "--which", "stab", "--restarts", "8"])
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    local = json.loads(run_cli(["bounds", str(path), "--which", "local"]).stdout)["local"]
    assert payload["stabilizer"] <= local + 1e-6
