"""Every op is a named route (DESIGN.md §4): only ``run_batch`` talks
to the round engine.

``run_batch`` is what gives an op its batch epoch, its
``batch_observer`` report, the cleanup of a stage rejected at issue
time and, under a fault plan, reliable delivery.  Code that stages
messages or steps the machine itself silently goes without all four.
This lint walks every source file under ``src/repro`` outside the round
engine (``repro.sim``) and ``repro/ops/pipeline.py``, and fails on any
``send`` / ``send_all`` / ``broadcast`` / ``send_cols`` / ``step`` /
``drain`` call made on a name or an attribute called ``machine``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
ENGINE_CALLS = frozenset({"send", "send_all", "broadcast", "send_cols",
                          "step", "drain"})
EXEMPT = (PACKAGE / "sim", PACKAGE / "ops" / "pipeline.py")
SOURCES = sorted(path for path in PACKAGE.rglob("*.py")
                 if not any(path == ex or ex in path.parents
                            for ex in EXEMPT))


def _is_machine(node: ast.AST) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "machine")
            or (isinstance(node, ast.Attribute) and node.attr == "machine"))


def engine_calls(source: str, label: str) -> list:
    """``label:line: call`` for every round-engine call on a machine."""
    found = []
    for node in ast.walk(ast.parse(source, filename=label)):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ENGINE_CALLS
                and _is_machine(node.func.value)):
            found.append(f"{label}:{node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("snippet", [
    "machine.send(0, 'f', ())",
    "self.machine.drain()",
    "tree.machine.broadcast('f', ())",
    "machine.send_all(rows)",
    "machine.send_cols('f', dests, cols)",
    "self.machine.step()",
])
def test_the_lint_catches_a_direct_engine_call(snippet):
    assert engine_calls(snippet + "\n", "probe")


def test_the_lint_passes_run_batch_and_other_receivers():
    assert engine_calls("run_batch(machine, 'op', route)\n"
                        "coll.broadcast(value)\n"
                        "phases[i].send(got)\n"
                        "machine.idle_rounds(2)\n", "probe") == []


def test_only_run_batch_issues_and_drains():
    assert len(SOURCES) > 80
    found = [hit for path in SOURCES
             for hit in engine_calls(path.read_text(),
                                     str(path.relative_to(ROOT)))]
    assert not found, ("issue a stage through repro.ops.run_batch, not "
                       "the machine:\n" + "\n".join(found))
