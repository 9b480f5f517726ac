"""Package-surface guards: every module imports, every export resolves,
every public callable is documented, every source file is Python 3.9."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

ALL_MODULES = sorted(
    name for _, name, _ in pkgutil.walk_packages(
        repro.__path__, prefix="repro.")
    if not name.endswith("__main__")  # importing it runs the CLI
)


def test_discovers_a_real_package():
    assert len(ALL_MODULES) > 30


@pytest.mark.parametrize("name", ALL_MODULES)
def test_module_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", ALL_MODULES)
def test_all_exports_resolve(name):
    mod = importlib.import_module(name)
    for sym in getattr(mod, "__all__", []):
        assert hasattr(mod, sym), f"{name}.__all__ lists missing {sym!r}"


@pytest.mark.parametrize("name", ALL_MODULES)
def test_module_has_docstring(name):
    mod = importlib.import_module(name)
    assert mod.__doc__ and mod.__doc__.strip(), f"{name} lacks a docstring"


@pytest.mark.parametrize("name", [
    "repro.sim.machine", "repro.core.skiplist", "repro.core.structure",
    "repro.collectives.core", "repro.structures.lsm",
    "repro.structures.priority_queue", "repro.algorithms.bfs",
])
def test_public_classes_and_methods_documented(name):
    mod = importlib.import_module(name)
    for _, cls in inspect.getmembers(mod, inspect.isclass):
        if cls.__module__ != name or cls.__name__.startswith("_"):
            continue
        assert cls.__doc__, f"{name}.{cls.__name__} lacks a docstring"
        for mname, meth in inspect.getmembers(cls, inspect.isfunction):
            if mname.startswith("_"):
                continue
            assert meth.__doc__, (
                f"{name}.{cls.__name__}.{mname} lacks a docstring")


ROOT = Path(__file__).resolve().parents[1]
SOURCE_FILES = sorted(p for top in ("src", "benchmarks")
                      for p in (ROOT / top).rglob("*.py"))


def test_sources_are_python_3_9():
    """``pyproject.toml`` says ``requires-python = ">=3.9"`` and CI has a
    3.9 leg: every file under ``src/`` and ``benchmarks/`` parses with
    the 3.9 grammar, and no ``dataclass(...)`` call passes ``slots=`` or
    ``kw_only=`` -- keywords that 3.10 added and 3.9 rejects when the
    module is imported (PR 20's ``dataclass(slots=True)``)."""
    assert len(SOURCE_FILES) > 100
    for path in SOURCE_FILES:
        tree = ast.parse(path.read_text(), filename=str(path),
                         feature_version=(3, 9))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else \
                getattr(fn, "id", None)
            late = [kw.arg for kw in node.keywords
                    if kw.arg in ("slots", "kw_only")]
            assert not (name == "dataclass" and late), (
                f"{path.relative_to(ROOT)}:{node.lineno}: dataclass("
                f"{late[0]}=...) needs Python 3.10")


def test_the_round_engine_does_not_import_numpy():
    """A round has one set of books, the plain per-module lists
    (DESIGN.md §11): no module under ``src/repro/sim/`` imports numpy,
    so array accounting cannot come back beside them unreviewed."""
    sim = [p for p in SOURCE_FILES if (ROOT / "src/repro/sim") in p.parents]
    assert len(sim) >= 10
    for path in sim:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "numpy" for n in names), (
                f"{path.relative_to(ROOT)}:{node.lineno} imports numpy")


def test_the_skip_lists_public_surface_is_pinned():
    """:class:`PIMSkipList`'s public names, exactly: the paper's batched
    ops, §4's single-op warm-ups, order statistics, the broadcast range
    and the conformance surface the certificates and ``repro serve``
    drive.  A name joins only with a caller that backs a claim, by an
    edit here."""
    from repro.core import PIMSkipList
    public = {n for n in dir(PIMSkipList) if not n.startswith("_")}
    assert public == {
        "BATCH_CAPS", "TICK_GROUPS", "apply_batch", "apply_group",
        "batch_delete", "batch_get", "batch_predecessor", "batch_range",
        "batch_successor", "batch_update", "batch_upsert", "build",
        "check_integrity", "delete", "get", "min_point_batch",
        "min_search_batch", "predecessor", "range_broadcast", "rank",
        "select", "size", "successor", "to_dict", "update", "upsert",
    }


def test_storage_module_is_one_inert_name():
    """``repro.core.storage`` survives only for the frozen end-to-end
    benchmark's import of ``STORAGE_ENV_VAR``."""
    mod = importlib.import_module("repro.core.storage")
    public = [n for n in dir(mod) if not n.startswith("_")]
    assert public == ["STORAGE_ENV_VAR"]
    assert mod.STORAGE_ENV_VAR == "REPRO_STRUCT_STORAGE"


def test_version_consistent():
    import repro as top
    assert top.__version__ == "1.0.0"
