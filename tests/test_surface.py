"""The package's public surface and the README example.

Every export, and every defaulted parameter of one, is reached inside the
package, and the README's Library example prints what it documents.
"""

import ast
import contextlib
import dataclasses
import inspect
import io
import pkgutil
import re
from collections import defaultdict
from pathlib import Path

import pytest

import magicwit

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "magicwit"


def _sources() -> list[Path]:
    """The package's source files, for every rule that scans them.

    A rule that scanned no file would pass vacuously, so every module of the
    imported package must be among them.
    """
    paths = sorted(PACKAGE.glob("*.py"))
    modules = {"__init__", *(m.name for m in pkgutil.iter_modules(magicwit.__path__))}
    assert modules <= {p.stem for p in paths}, f"{PACKAGE} lacks the package's modules"
    return paths


def _exports() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _referenced_names() -> set[str]:
    names = set()
    for path in _sources():
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_is_used_inside_the_package():
    # Library surface that no module of the package reaches is dead code:
    # the tests alone do not keep an export alive.
    exports = _exports()
    assert exports
    unused = sorted(set(exports) - _referenced_names())
    assert unused == []


def _calls_by_callee() -> dict[str, list[ast.Call]]:
    """Every call in the package, keyed by the called name (`f(...)` or `mod.f(...)`)."""
    calls = defaultdict(list)
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls[name].append(node)
    return calls


def _passes(call: ast.Call, index: int, name: str) -> bool:
    return index < len(call.args) or any(k.arg == name for k in call.keywords)


def test_every_defaulted_parameter_is_passed_inside_the_package():
    # A parameter with a default that no call in the package passes is a
    # setting only the tests reach.  A `dataclasses.replace` call counts for
    # the fields it names.  The rule cannot see a parameter that a caller
    # passes on from its own default (`cfg=cfg`, or a CLI flag copied into a
    # config): whether anyone sets such a value stays a review question.
    calls = _calls_by_callee()
    unpassed = []
    for name in _exports():
        obj = getattr(magicwit, name)
        is_dataclass = inspect.isclass(obj) and dataclasses.is_dataclass(obj)
        if not (inspect.isfunction(obj) or is_dataclass):
            continue
        sites = calls[name] + (calls["replace"] if is_dataclass else [])
        for index, param in enumerate(inspect.signature(obj).parameters.values()):
            if param.default is inspect.Parameter.empty:
                continue
            if not any(_passes(call, index, param.name) for call in sites):
                unpassed.append(f"{name}({param.name}=)")
    assert unpassed == []


def _readme_library_example() -> str:
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Library") :]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README's Library section has no python example"
    return match.group(1)


def test_readme_library_example_prints_its_documented_values():
    code = _readme_library_example()
    documented = re.findall(r"^print\(.*\)\s*#\s*(\S+)$", code, re.MULTILINE)
    assert documented == ["2.0", "2.8729...", "2.9149..."]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().split()
    assert len(printed) == len(documented)
    for got, want in zip(printed, documented):
        # "2.9149..." is the value rounded to the digits shown; "2.0" is exact.
        digits = want.removesuffix("...")
        tol = 0.5 * 10.0 ** -len(digits.split(".")[1]) if want.endswith("...") else 1e-12
        assert float(got) == pytest.approx(float(digits), abs=tol), (got, want)


def test_invariants_go_through_require():
    # `cli.main` maps only InvariantError to exit 1, and `python -O` strips
    # `assert` statements, so the package checks its invariants with
    # `errors.require` and never asserts or raises a bare AssertionError.
    found = []
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text())):
            raised = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(raised, ast.Call):
                raised = raised.func
            if isinstance(node, ast.Assert) or (
                isinstance(raised, ast.Name) and raised.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_limits_go_through_require_count():
    # Every size limit is decided, and its count written, by
    # `errors.require_count`: no other module constructs ResourceLimitError.
    found = []
    for path in _sources():
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "ResourceLimitError":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
