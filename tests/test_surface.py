"""The library ships what its callers use.

Every public module-level ``def`` / ``class`` under ``src/repro``, and every
public method of a public class, must be referenced from ``src/``,
``benchmarks/`` or ``examples/``.  A reference is any ``Name`` or
``Attribute`` node with that name outside the definition itself, or a
``"module:Class.attr"`` span point of the benchmark tracer.  ``__all__``
entries and import lines are not references, so a helper that only the
tests call is flagged: delete it with its tests, or — if it is API by
design — give it an entry in :data:`ALLOWLIST` with the reason.

The match is by bare name (any ``.run`` keeps every ``run`` method alive),
so the guard can miss dead code.  A name reached only through a string
(``getattr``, an entry point) needs an allowlist entry.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "repro"
CALLERS = ("src", "benchmarks", "examples")
TRACER = ROOT / "benchmarks" / "ledger" / "tracer.py"

#: ``"module:qualname"`` -> why the name stays although no caller uses it.
ALLOWLIST = {
    "repro.yet.table:YearEventTable.from_trials":
        "test-support constructor: a YET from per-trial event lists",
    "repro.yet.io:load_yet":
        "the only reader of the .npz file that `are generate` writes",
}


def _definitions() -> dict[str, tuple[str, Path, int, int]]:
    """``"module:qualname"`` -> (bare name, file, first line, last line)."""
    found = {}
    for path in sorted(LIBRARY.rglob("*.py")):
        module = ".".join(path.relative_to(LIBRARY.parent).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            found[f"{module}:{node.name}"] = (node.name, path, node.lineno, node.end_lineno)
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                        not member.name.startswith("_")
                    ):
                        found[f"{module}:{node.name}.{member.name}"] = (
                            member.name, path, member.lineno, member.end_lineno,
                        )
    return found


def _references() -> dict[str, list[tuple[Path, int]]]:
    """Bare name -> every place a caller names it."""
    places = defaultdict(list)
    for caller in CALLERS:
        for path in (ROOT / caller).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    places[node.id].append((path, node.lineno))
                elif isinstance(node, ast.Attribute):
                    places[node.attr].append((path, node.lineno))
    for target in re.findall(r'"repro\.[\w.]+:([\w.]+)"', TRACER.read_text()):
        for name in target.split("."):
            places[name].append((TRACER, 0))
    return places


def _unreferenced() -> dict[str, tuple[Path, int]]:
    references = _references()
    flagged = {}
    for key, (name, path, first, last) in _definitions().items():
        outside = [
            place for place in references.get(name, ())
            if not (place[0] == path and first <= place[1] <= last)
        ]
        if not outside:
            flagged[key] = (path, first)
    return flagged


@pytest.fixture(scope="module")
def unreferenced():
    return _unreferenced()


def test_every_public_name_has_a_caller(unreferenced):
    dead = {key: place for key, place in unreferenced.items() if key not in ALLOWLIST}
    listing = "\n".join(
        f"  {key}  ({path.relative_to(ROOT)}:{line})" for key, (path, line) in sorted(dead.items())
    )
    assert not dead, (
        "public names under src/repro that no caller in src/, benchmarks/ or "
        f"examples/ references — delete them with their tests:\n{listing}"
    )


def test_allowlist_entries_are_live_and_needed(unreferenced):
    """An entry must name an existing definition that the scan would flag."""
    assert set(ALLOWLIST) <= set(_definitions())
    assert set(ALLOWLIST) <= set(unreferenced)
    assert all(reason.strip() for reason in ALLOWLIST.values())
