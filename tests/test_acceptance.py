"""End-to-end acceptance suite.

Each check lives in magicwit.verify so the CLI's `verify` subcommand and
this module exercise exactly the same assertions, with all tolerances and
runtime limits pinned inside the checks.  Run with -v to get one pass/fail
line per check.
"""

import subprocess
import sys

import pytest

from magicwit import verify


@pytest.mark.parametrize("check", verify.CHECKS, ids=lambda c: c.name)
def test_acceptance(check):
    detail = check.fn()
    assert detail
    print(f"[{check.name}] {detail}")


def test_every_check_is_registered_once():
    names = [c.name for c in verify.CHECKS]
    assert len(names) == len(set(names))
    assert len(names) == 12
    quick = [c.name for c in verify.CHECKS if c.quick]
    assert "orbit-counts" in quick and "cglmp-table" not in quick


def test_fault_injection_is_caught(monkeypatch):
    # Corrupting a pipeline ingredient must flip its check to a failure
    # (and with it the verify exit code) rather than pass silently.
    from magicwit import graphs

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
"""


def test_fault_injection_is_caught_under_python_O():
    # `python -O` strips assert statements; the checks must still fail.
    out = subprocess.run(
        [sys.executable, "-O", "-c", FAULT_UNDER_O],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
