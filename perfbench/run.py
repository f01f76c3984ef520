"""Benchmark of magicwit: one workload, timed for a fixed span, outputs checked.

    python3 perfbench/run.py --workload cglmp --seed 1 --seconds 35 --trace 0

Runs from the root of a checkout and imports the package from `src/`.
Set-up is timed five times: a fresh interpreter imports `magicwit`, then
this process builds the workload's inputs.  Then whole passes of the
workload run, each one checked, while the next one still fits in
`--seconds`.  With `--trace 0` the last stdout line gives the end-to-end
metrics; with `--trace 1` each round is an untraced pass followed by a
traced one, and it gives the per-layer metrics and writes the spans under
`perfbench/out/`.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
WORKLOADS = ("cglmp", "tripartite", "enumerate")

IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import magicwit\n"
    "print(time.perf_counter() - t)\n"
)


def fresh_import_seconds() -> float:
    """Time of `import magicwit` in a new interpreter that finds it in `src/`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def run_pass(workload) -> tuple[float, dict[str, list[str]]]:
    """Time one pass, then check it; returns the wall time and failures by operation."""
    outputs, failures = {}, {}
    t0 = time.perf_counter()
    for op in workload.operations:
        try:
            outputs[op.name] = op.call()
        except Exception:  # a raising operation counts as failed; the run goes on
            failures[op.name] = [traceback.format_exc()]
    wall = time.perf_counter() - t0
    for name, messages in workload.check(outputs).items():
        failures.setdefault(name, []).extend(messages)
    return wall, failures


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "magicwit" / "__init__.py").is_file():
        print(f"error: no magicwit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import magicwit
    import tracer
    import workloads

    if Path(magicwit.__file__).resolve().parent != SRC / "magicwit":
        print(f"error: imported magicwit from {magicwit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    setups = []
    for _ in range(SETUP_REPEATS):
        imported = fresh_import_seconds()
        t0 = time.perf_counter()
        workload = workloads.BY_NAME[args.workload](args.seed)
        setups.append(imported + time.perf_counter() - t0)

    walls, traced_walls, layer_runs, class_runs, spans = [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        results = [run_pass(workload)]
        walls.append(results[0][0])
        if args.trace:
            tr = tracer.Tracer()
            with tr.installed():
                results.append(run_pass(workload))
            traced_walls.append(results[1][0])
            layer_runs.append(tracer.layer_metrics(tr.spans))
            class_runs.append(tracer.class_seconds(tr.spans))
            spans.append(tr.to_json())
        for _, failures in results:
            attempted += len(workload.operations)
            failed += len(failures)
            for name, messages in failures.items():
                for m in messages:
                    print(f"FAILED {args.workload} / {name}: {m}", file=sys.stderr)
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break

    if args.trace:
        metrics = {name: _median([run[name] for run in layer_runs]) for name in layer_runs[0]}
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        OUT.mkdir(exist_ok=True)
        out_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        out_file.write_text(
            json.dumps({"workload": args.workload, "seed": args.seed, "passes": spans})
        )
        for key in class_runs[0]:
            seconds = statistics.median(run.get(key, 0.0) for run in class_runs)
            print(f"optimize.optimize_measurements.s [{key}] = {seconds:.4f} s")
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    print(f"{args.workload}: {len(walls)} passes, wall times {[round(w, 3) for w in walls]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _median(values: list) -> float:
    """Median; counts, which repeat exactly across passes, stay whole numbers."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def unit(name: str) -> str:
    """Unit of a metric, read off its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("hit_rate"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
