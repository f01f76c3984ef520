"""Golden CLI outputs at fixed seeds.

The files under tests/golden/ hold the stdout of each command below, as
the CLI printed it before the see-saw, the Born-rule kernel and the
command-line surface were last reorganized.  Numbers must agree to 1e-9
relative and every other character exactly, so a refactor that moves a
value or a byte of the payload fails here.
"""

import math
import re
from pathlib import Path

import pytest

from magicwit.cli import main

GOLDEN = Path(__file__).parent / "golden"
SEESAW = ["--restarts", "8", "--seed", "3"]
COMMANDS = {
    "bounds_tilted_chsh_alpha_0.5.json": ["bounds", "tilted-chsh", "--alpha", "0.5", *SEESAW],
    "bounds_cglmp_d3.json": ["bounds", "cglmp", "--d", "3", *SEESAW],
    "bounds_svetlichny_r2.json": ["bounds", "svetlichny-r2", *SEESAW],
    "scan_tilted_chsh_step1.csv": ["scan", "tilted-chsh", "--step", "1", *SEESAW],
    "heatmap_3x3.csv": ["heatmap", "--theta-steps", "3", "--phi-steps", "3", *SEESAW],
    "classes_4_3.json": ["classes", "4", "3", "--json"],
}
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
# A gap where the stabilizer and quantum values coincide is rounding noise
# near 1e-16, which no relative tolerance can compare.
ABS_TOL = 1e-12


def split_numbers(text: str) -> tuple[list[str], list[float]]:
    return NUMBER.split(text), [float(x) for x in NUMBER.findall(text)]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_stdout_matches_golden(name, capsys):
    assert main(COMMANDS[name]) == 0
    got_text, got_numbers = split_numbers(capsys.readouterr().out)
    want_text, want_numbers = split_numbers((GOLDEN / name).read_text())
    assert got_text == want_text
    assert len(got_numbers) == len(want_numbers)
    for got, want in zip(got_numbers, want_numbers):
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=ABS_TOL), (got, want)
