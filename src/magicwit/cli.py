"""Command-line front end: classes, bounds, scan, heatmap, verify.

Payload goes to stdout (JSON or CSV, byte-stable for a fixed seed); a run
manifest with timing goes to stderr.  Exit codes: 0 success, 1 verification
failure or failed see-saw self-check, 2 user error, 3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

import magicwit
from magicwit import bell, graphs, optimize, verify
from magicwit.errors import InvariantError, ResourceLimitError, require_count

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USER = 2
EXIT_LIMIT = 3

CATALOG = ("tilted-chsh", "cglmp", "svetlichny-r2")

# Largest scan or heatmap grid; checked before any grid point is built.
MAX_GRID_POINTS = 10**5


def _add_optimizer_flags(p: argparse.ArgumentParser) -> None:
    default = optimize.OptimizerConfig()
    for flag, what in (("restarts", "see-saw restarts"), ("seed", "RNG seed")):
        value = getattr(default, flag)
        p.add_argument(f"--{flag}", type=int, default=value, help=f"{what} (default {value})")


def _config(args) -> optimize.OptimizerConfig:
    return optimize.OptimizerConfig(restarts=args.restarts, seed=args.seed)


def _cfg_echo(cfg: optimize.OptimizerConfig) -> dict:
    return {"seed": cfg.seed, "restarts": cfg.restarts, "tol": optimize.STOP_TOL}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def load_inequality_file(path: str) -> bell.BellInequality:
    """Read a coefficient file: parties, outcomes, settings, sparse coefficients."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from exc
    except ValueError as exc:  # an integer past Python's digit limit, or bytes that are not UTF-8
        raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    for field in ("parties", "outcomes", "settings", "coefficients"):
        if field not in data:
            raise ValueError(f"{path}: missing field {field!r}")
    name = data.get("name", path)
    if not isinstance(name, str):
        raise ValueError(f"{path}: field 'name' must be a string")
    parties = data["parties"]
    if not _is_int(parties) or parties < 1:
        raise ValueError(f"{path}: field 'parties' must be a positive integer")
    for field in ("outcomes", "settings"):
        counts = data[field]
        if not isinstance(counts, list) or len(counts) != parties:
            raise ValueError(f"{path}: 'outcomes' and 'settings' must list {parties} entries")
        if not all(_is_int(c) and c >= 1 for c in counts):
            raise ValueError(f"{path}: field {field!r} must list positive integers")
    outcomes = tuple(data["outcomes"])
    settings = tuple(data["settings"])
    records = data["coefficients"]
    if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
        raise ValueError(f"{path}: field 'coefficients' must be a list of objects")
    what = f"entries of the coefficient tensor of {path} exceed the limit"
    require_count([(c, 1) for c in outcomes + settings], bell.MAX_COEFFICIENTS, what)
    coeffs = np.zeros(outcomes + settings)
    seen = set()
    for idx, rec in enumerate(records):
        where = f"{path}: coefficients[{idx}]"
        for field in ("a", "x", "value"):
            if field not in rec:
                raise ValueError(f"{where}: missing field {field!r}")
        a, x = rec["a"], rec["x"]
        if not (isinstance(a, list) and isinstance(x, list) and len(a) == len(x) == parties):
            raise ValueError(f"{where}: 'a' and 'x' must list {parties} indices")
        if not all(_is_int(i) for i in a + x):
            raise ValueError(f"{where}: indices in 'a' and 'x' must be integers")
        a, x = tuple(a), tuple(x)
        for i, (ai, di) in enumerate(zip(a, outcomes)):
            if not 0 <= ai < di:
                raise ValueError(f"{where}: outcome index {ai} out of range for party {i}")
        for i, (xi, mi) in enumerate(zip(x, settings)):
            if not 0 <= xi < mi:
                raise ValueError(f"{where}: setting index {xi} out of range for party {i}")
        if (a, x) in seen:
            raise ValueError(f"{where}: duplicate entry for a={list(a)}, x={list(x)}")
        seen.add((a, x))
        value = rec["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{where}: 'value' must be a number")
        try:
            coeffs[a + x] = float(value)
        except OverflowError as exc:
            raise ValueError(f"{where}: 'value' is out of range") from exc
    return bell.BellInequality(outcomes, settings, coeffs, name=name)


def _resolve_inequality(args) -> bell.BellInequality:
    spec = args.spec
    if spec == "tilted-chsh":
        return bell.catalog_tilted_chsh(args.alpha)
    if spec == "cglmp":
        return bell.catalog_cglmp(args.d)
    if spec == "svetlichny-r2":
        return bell.catalog_svetlichny_r2()
    return load_inequality_file(spec)


def cmd_classes(args) -> tuple[int, dict]:
    cat = graphs.enumerate_classes(args.n, args.d)
    if args.json:
        payload = {
            "n": cat.n,
            "d": cat.d,
            "class_count": len(cat),
            "total_matrices": cat.total,
            "classes": [
                {"index": i, "size": size, "edges": [list(e) for e in rep.edges()]}
                for i, (rep, size) in enumerate(zip(cat.representatives, cat.orbit_sizes))
            ],
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"n={cat.n} d={cat.d}: {len(cat)} classes, {cat.total} matrices")
        for i, (rep, size) in enumerate(zip(cat.representatives, cat.orbit_sizes)):
            edges = " ".join(f"{a}-{b}:{w}" for a, b, w in rep.edges()) or "(no edges)"
            print(f"class {i}  size {size}  edges {edges}")
    return EXIT_OK, {"n": args.n, "d": args.d}


def cmd_bounds(args) -> tuple[int, dict]:
    ineq = _resolve_inequality(args)
    cfg = _config(args)
    out: dict = {"name": ineq.name}
    which = args.which
    if which in ("local", "all"):
        out["local"] = bell.local_bound(ineq)
    if which in ("stab", "all"):
        out["stabilizer"] = optimize.stabilizer_value(ineq, cfg).value
    if which in ("quantum", "all"):
        out["quantum"] = optimize.quantum_value(ineq, cfg).value
    if "stabilizer" in out and "quantum" in out:
        out["gap"] = out["quantum"] - out["stabilizer"]
    out["manifest"] = {"command": "bounds", "version": magicwit.__version__, **_cfg_echo(cfg)}
    print(json.dumps(out, sort_keys=True, indent=2))
    return EXIT_OK, _cfg_echo(cfg)


def cmd_scan(args) -> tuple[int, dict]:
    if args.family != "tilted-chsh":
        raise ValueError(f"unknown scan family {args.family!r} (available: tilted-chsh)")
    if not args.step > 0:
        raise ValueError("step must be positive")
    if not 0.0 <= args.start <= args.stop <= 2.0:
        raise ValueError("tilted-chsh scan needs 0 <= start <= stop <= 2")
    cfg = _config(args)
    span = (args.stop - args.start) / args.step
    # Past the limit exactly when span + 1 is; an infinite span stays as it is.
    points = math.ceil(span + 1) if math.isfinite(span) else span
    require_count([(points, 1)], MAX_GRID_POINTS, "grid points exceed the limit")
    # The grid stops at the last point not past `stop`; the tolerance keeps
    # endpoints that the division leaves an ulp short, such as 0.3 / 0.1.
    count = math.floor(span + 1e-9) + 1
    params = [args.start + i * args.step for i in range(count)]
    if any(not 0.0 <= p <= 2.0 for p in params):
        raise ValueError("tilted-chsh scan parameters must lie in [0, 2]")
    rows = optimize.gap_scan(bell.catalog_tilted_chsh, params, cfg)
    print("param,local,stab,quantum,gap")
    for r in rows:
        print(f"{r.param:.10g},{r.local:.10g},{r.stabilizer:.10g},{r.quantum:.10g},{r.gap:.10g}")
    return EXIT_OK, {"family": args.family, "rows": len(rows), **_cfg_echo(cfg)}


def cmd_heatmap(args) -> tuple[int, dict]:
    if args.theta_steps < 2 or args.phi_steps < 2:
        raise ValueError("grid sizes must be at least 2")
    what = "grid points exceed the limit"
    require_count([(args.theta_steps, 1), (args.phi_steps, 1)], MAX_GRID_POINTS, what)
    cfg = _config(args)
    thetas = np.linspace(0.0, np.pi, args.theta_steps)
    phis = np.linspace(0.0, np.pi, args.phi_steps)
    heat = optimize.w_heatmap(thetas, phis, cfg)
    print("theta,phi,value")
    for i, t in enumerate(thetas):
        for j, p in enumerate(phis):
            print(f"{t / np.pi:.10g},{p / np.pi:.10g},{heat[i, j]:.10g}")
    return EXIT_OK, {"theta_steps": args.theta_steps, "phi_steps": args.phi_steps, **_cfg_echo(cfg)}


def cmd_verify(args) -> tuple[int, dict]:
    checks = [c for c in verify.CHECKS if c.quick or not args.quick]
    failed = 0
    for check in checks:
        r = check.run()
        failed += not r.ok
        status = "PASS" if r.ok else "FAIL"
        print(f"[{status}] {r.name:28s} ({r.seconds:7.2f}s)  {r.detail}", flush=True)
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return (EXIT_VERIFY if failed else EXIT_OK), {"quick": args.quick, "failed": failed}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magicwit",
        description=(
            "Classical, stabilizer and quantum bounds of multi-qudit Bell "
            "inequalities; a quantum/stabilizer gap witnesses magic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classes", help="enumerate graph-state classes at fixed (n, d)")
    p.add_argument("n", type=int, help="number of vertices")
    p.add_argument("d", type=int, help="prime local dimension")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=cmd_classes)

    p = sub.add_parser("bounds", help="local/stabilizer/quantum values of one inequality")
    p.add_argument("spec", help=f"catalog name ({', '.join(CATALOG)}) or JSON file path")
    p.add_argument("--alpha", type=float, default=0.0, help="tilting parameter for tilted-chsh")
    p.add_argument("--d", type=int, default=3, help="outcome count for cglmp")
    p.add_argument("--which", choices=("local", "stab", "quantum", "all"), default="all")
    _add_optimizer_flags(p)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("scan", help="CSV of bounds over a parametrized family")
    p.add_argument("family", help="family name (tilted-chsh)")
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--stop", type=float, default=2.0)
    p.add_argument("--step", type=float, default=0.1)
    _add_optimizer_flags(p)
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("heatmap", help="CSV of the W-family witness values (angles in units of pi)")
    p.add_argument("--theta-steps", type=int, default=13)
    p.add_argument("--phi-steps", type=int, default=13)
    _add_optimizer_flags(p)
    p.set_defaults(fn=cmd_heatmap)

    p = sub.add_parser("verify", help="run the acceptance checks")
    p.add_argument("--quick", action="store_true", help="run only the fast subset")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        code, extra = args.fn(args)
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    wall = round(time.perf_counter() - t0, 3)
    manifest = dict(command=args.command, version=magicwit.__version__, wall_time_s=wall, **extra)
    print("manifest: " + json.dumps(manifest, sort_keys=True), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
