"""The barrier is the ack (DESIGN.md §19): a handler with nothing to
return sends nothing.

A reply whose payload is a constant tells the CPU side only that the
task ran, which the end of the round already tells it -- and the model
would still bill the reply as a message in the round's h-relation.  This
lint walks every source file under ``src/repro`` and fails on any
``<bct>.reply(mid, ...)`` or ``Reply(...)`` whose payload is a literal, a
module-level name bound to one, or ``map(Reply, repeat(<literal>),
...)``.  The reliable-delivery protocol's acknowledgement replies its
envelope's sequence number, which is not a constant, so it passes."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "repro").rglob("*.py"))


def _is_literal(node: ast.AST, names: set) -> bool:
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return all(_is_literal(e, names) for e in node.elts)
    return False


def _payload(call: ast.Call):
    """The payload expression of a reply-building call, or None."""
    fn = call.func
    # ``BatchRound.reply(mid, payload, ...)``: the payload follows the
    # module id (a one-argument ``reply`` has only a payload);
    # ``Reply(payload, ...)``: the payload comes first.
    if (isinstance(fn, ast.Attribute) and fn.attr == "reply") or (
            isinstance(fn, ast.Name) and fn.id == "Reply"):
        if call.args:
            return call.args[1 if fn.__class__ is ast.Attribute
                             and len(call.args) > 1 else 0]
        return next((kw.value for kw in call.keywords
                     if kw.arg == "payload"), None)
    # map(Reply, repeat(<payload>), ...): one reply per row, one payload.
    if (isinstance(fn, ast.Name) and fn.id == "map" and len(call.args) >= 2
            and getattr(call.args[0], "id", None) == "Reply"
            and isinstance(call.args[1], ast.Call)
            and getattr(call.args[1].func, "id", None) == "repeat"
            and call.args[1].args):
        return call.args[1].args[0]
    return None


def constant_replies(source: str, label: str) -> list:
    """``label:line: call`` for every constant-payload reply in
    ``source``."""
    tree = ast.parse(source, filename=label)
    # Module-level names bound to a literal (``ACK = ("ack",)``).
    names = {t.id for node in tree.body if isinstance(node, ast.Assign)
             and _is_literal(node.value, set())
             for t in node.targets if isinstance(t, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            payload = _payload(node)
            if payload is not None and _is_literal(payload, names):
                found.append(f"{label}:{node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("snippet", [
    'ctx.reply(("ack",), tag=tag)',
    "ctx.reply(None)",
    'bct.reply(mid, ("ack",), tag)',
    "bct.reply(mid, None)",
    "bct.reply(payload=1)",
    "rep_append(Reply(ACK, tag, mid))",
    "replies.extend(map(Reply, repeat(ACK), repeat(None), dests))",
])
def test_the_lint_catches_a_constant_reply(snippet):
    assert constant_replies(f'ACK = ("ack",)\n{snippet}\n', "probe")


def test_the_lint_passes_a_computed_reply():
    assert constant_replies("bct.reply(mid, seq, ACK_TAG)\n"
                            "bct.reply(mid, ('total', opid, 0), tag)\n"
                            "rep_append(Reply(payload, tag, mid))\n",
                            "probe") == []


def test_no_handler_replies_a_constant():
    assert len(SOURCES) > 90
    found = [hit for path in SOURCES
             for hit in constant_replies(path.read_text(),
                                         str(path.relative_to(ROOT)))]
    assert not found, ("a handler with nothing to return calls no reply; "
                       "the round's barrier is its ack:\n"
                       + "\n".join(found))


def test_the_write_path_has_no_ack_payload():
    ops_write = importlib.import_module("repro.core.ops_write")
    assert not hasattr(ops_write, "ACK")
