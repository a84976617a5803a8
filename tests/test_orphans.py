"""No public name in ``src/repro`` that only the tests call.

A name-level AST liveness pass.  The roots are ``repro.__all__``, the
CLI and ``__main__`` modules, every module's import-time code (module
and class bodies, decorators, default values), and every file under
``examples/`` and ``benchmarks/``.  A live body makes every name it
mentions live — as a bare name, an attribute, or a dotted string
(``benchmarks/stack/trace.py`` patches methods by name) — and every
definition of a live name has its body scanned in turn, until nothing
changes.  A live class also makes its dunder methods live, because the
interpreter calls them.  Package ``__all__`` lists and imports are not
uses: re-exporting a name does not call it.

The test fails on any public top-level function or class, or public
method of a top-level class, that no root reaches and that ``KEEP``
does not name.  Names are matched, not resolved, so the pass errs
towards liveness: a method is live when an attribute of that name is
used on any object.

Run ``PYTHONPATH=src python tests/test_orphans.py`` to print the
orphans.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

_PROTOCOL = "Substrate/PageStore protocol method that every backend implements"

#: Unreached names that stay, each with the reason it stays.
KEEP = {
    # Documented API.
    "AdaptiveDatabase.explain": "EXPLAIN [ANALYZE], docs/observability.md and README",
    "AdaptiveDatabase.calibration_report": "docs/observability.md",
    "EventBus.subscribe": "docs/observability.md",
    "EventBus.recent": "docs/observability.md",
    "strip_wall_fields": "the calibration payload's determinism contract, docs/observability.md",
    "QueryEngine.hash_join": "docs/api.md",
    "QueryEngine.select_records": "the one producer of RecordSet, which repro exports",
    "AggregateResult.average": "part of AggregateResult, which repro exports",
    "Table.get_record": "the paper's getRecord interface, docs/api.md",
    "Table.record_iterator": "the paper's getRecordIterator interface, docs/api.md",
    "point_queries": "docs/api.md query sequences",
    "WorkloadTrace.save": "docs/api.md traces",
    "RecordingLayer": "docs/api.md traces",
    # Protocol methods.
    "Substrate.files": _PROTOCOL,
    "Substrate.protect": _PROTOCOL,
    "SimulatedSubstrate.files": _PROTOCOL,
    "SimulatedSubstrate.protect": _PROTOCOL,
    "NativeSubstrate.files": _PROTOCOL,
    "NativeSubstrate.protect": _PROTOCOL,
    "FaultySubstrate.files": _PROTOCOL,
    "FaultySubstrate.protect": _PROTOCOL,
    "PageStore.size_bytes": _PROTOCOL,
    "PageStore.set_page_id": _PROTOCOL,
    "MemoryFile.size_bytes": _PROTOCOL,
    "MemoryFile.set_page_id": _PROTOCOL,
    "NativePageStore.size_bytes": _PROTOCOL,
    "NativePageStore.set_page_id": _PROTOCOL,
    "TieredPageStore.set_page_id": _PROTOCOL,
    "FaultyPageStore.set_page_id": _PROTOCOL,
    "PhysicalMemory.files": "backs SimulatedSubstrate.files",
    # Schedule constructors the fault tests use, and the reads the oracles are built on.
    "FaultSchedule.nth_call": "builds the schedules the fault tests inject",
    "FaultSchedule.probabilistic": "builds the schedules the fault sweeps inject",
    "AddressSpace.resident_intervals": "what the residency model test compares against",
    "AddressSpace.resident_pages": "what the mapping oracle's differential compares",
    "MappingSnapshot.virtuals_of": "the per-page lookup tests/core/alignment_oracle.py runs on",
    "Vma.split_at": "the split tests/vm/mapping_oracle.py is built from",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
_ROOT_FILES = ("cli.py", "__main__.py")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _uses(nodes) -> set[str]:
    """Every name, attribute and dotted-string part mentioned in ``nodes``."""
    found: set[str] = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
            elif (
                isinstance(sub, ast.Constant)
                and isinstance(sub.value, str)
                and _DOTTED.fullmatch(sub.value)
            ):
                found.update(sub.value.split("."))
    return found


def _is_dunder_all(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
    )


def _import_time(body: list[ast.stmt]) -> list[ast.AST]:
    """The parts of a module or class body that run at import."""
    out: list[ast.AST] = []
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out += stmt.decorator_list + stmt.args.defaults
            out += [d for d in stmt.args.kw_defaults if d is not None]
        elif isinstance(stmt, ast.ClassDef):
            out += stmt.decorator_list + stmt.bases + stmt.keywords
            out += _import_time(stmt.body)
        elif not isinstance(stmt, (ast.Import, ast.ImportFrom)) and not _is_dunder_all(stmt):
            out.append(stmt)
    return out


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def analyse() -> list[str]:
    """The public names no root reaches, as ``module:Qualname``.

    The module is relative to ``repro``.
    """
    bodies: dict[str, list[ast.AST]] = {}  # name -> definitions to scan when live
    public: list[tuple[str, str]] = []  # (module:Qualname, bare name)
    live: set[str] = set()
    frontier: set[str] = set()

    for path in sorted(SRC.rglob("*.py")):
        module = _parse(path)
        rel = path.relative_to(SRC).with_suffix("").as_posix().replace("/", ".")
        if path.name in _ROOT_FILES:
            frontier |= _uses([module])
            continue
        frontier |= _uses(_import_time(module.body))
        for stmt in module.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bodies.setdefault(stmt.name, []).append(stmt)
                if not stmt.name.startswith("_"):
                    public.append((f"{rel}:{stmt.name}", stmt.name))
            elif isinstance(stmt, ast.ClassDef):
                if not stmt.name.startswith("_"):
                    public.append((f"{rel}:{stmt.name}", stmt.name))
                for member in stmt.body:
                    if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    key = stmt.name if _is_dunder(member.name) else member.name
                    bodies.setdefault(key, []).append(member)
                    if not member.name.startswith("_"):
                        public.append((f"{rel}:{stmt.name}.{member.name}", member.name))

    frontier |= set(repro.__all__)
    for path in sorted([*ROOT.glob("examples/**/*.py"), *ROOT.glob("benchmarks/**/*.py")]):
        frontier |= _uses([_parse(path)])

    while frontier:
        live |= frontier
        frontier = _uses(node for name in frontier for node in bodies.get(name, ())) - live

    return [qual for qual, name in public if name not in live]


def _kept(qualified: str) -> bool:
    return qualified.split(":", 1)[1] in KEEP


def test_every_public_name_has_a_caller_outside_the_tests():
    unkept = [name for name in analyse() if not _kept(name)]
    assert not unkept, (
        "public names no example, benchmark, CLI verb or repro.__all__ reaches; "
        f"delete them or add them to KEEP with a reason: {unkept}"
    )


def test_keep_names_only_unreached_names():
    orphaned = {name.split(":", 1)[1] for name in analyse()}
    stale = sorted(name for name in KEEP if name not in orphaned)
    assert not stale, f"KEEP entries that are gone or now reached: {stale}"


if __name__ == "__main__":
    for name in analyse():
        print(("kept   " if _kept(name) else "orphan ") + name)
