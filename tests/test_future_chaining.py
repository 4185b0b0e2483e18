"""Source scan: failures travel down ``SimFuture`` chains through the
kernel's ``then`` / ``relay`` / ``all_of``, not hand-written closures.

The shape this flags is a callback that forwards its source's failure by
hand before doing anything else::

    def on_x(future: SimFuture) -> None:
        exc = future.exception()
        if exc is not None:
            result.set_exception(exc)
            return
        ...

A closure of that shape that maps the result and resolves ``result`` at
once is ``future.then(fn)``.  The ones listed below keep the shape on
purpose; anything else the scan finds fails the test, and a listed site
that no longer matches must leave the list.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

#: (module, function) -> why the closure stays hand-written.  Each of them
#: resolves its future later than the callback runs, after more work the
#: callback starts, which ``then`` cannot express.
HAND_WRITTEN = {
    ("repro.core.framework", "on_catalog"): "resolves once the imports it starts finish",
    ("repro.core.pcm", "on_discovered"): "resolves once the exports it starts finish",
    ("repro.pcms.havi_pcm", "on_entries"): "resolves once every FCM describe answers",
    ("repro.rules.conditions", "on_value"): "short-circuits or evaluates the next condition",
    ("repro.mail.smtp", "on_connected"): "resolves when the SMTP dialogue ends",
    ("repro.mail.mailbox", "on_connected"): "resolves when the POP3 dialogue ends",
    ("repro.core.streams", "on_connected"): "resolves when the relay handshake answers",
}


def _is_forwarding_prologue(function: ast.FunctionDef) -> bool:
    """``exc = <arg>.exception()`` / ``if exc is not None:`` /
    ``<y>.set_exception(exc)`` / ``return`` as the first statements."""
    if not function.args.args or len(function.body) < 2:
        return False
    arg = function.args.args[-1].arg
    first, second = function.body[0], function.body[1]
    if not (
        isinstance(first, ast.Assign)
        and len(first.targets) == 1
        and isinstance(first.targets[0], ast.Name)
        and isinstance(first.value, ast.Call)
        and isinstance(first.value.func, ast.Attribute)
        and first.value.func.attr == "exception"
        and isinstance(first.value.func.value, ast.Name)
        and first.value.func.value.id == arg
    ):
        return False
    name = first.targets[0].id
    if not (
        isinstance(second, ast.If)
        and isinstance(second.test, ast.Compare)
        and isinstance(second.test.left, ast.Name)
        and second.test.left.id == name
        and isinstance(second.test.ops[0], ast.IsNot)
        and len(second.body) == 2
    ):
        return False
    forward, leave = second.body
    return (
        isinstance(forward, ast.Expr)
        and isinstance(forward.value, ast.Call)
        and isinstance(forward.value.func, ast.Attribute)
        and forward.value.func.attr == "set_exception"
        and isinstance(leave, ast.Return)
        and leave.value is None
    )


def hand_written_forwarders() -> list[tuple[str, str]]:
    """Every (module, function) under ``repro`` with the forwarding shape."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(("repro",) + path.relative_to(SRC).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and _is_forwarding_prologue(node):
                found.append((module, node.name))
    return found


def test_only_listed_closures_forward_failures_by_hand():
    found = hand_written_forwarders()
    assert len(found) == len(set(found)), f"duplicate sites: {found}"
    unlisted = sorted(set(found) - set(HAND_WRITTEN))
    assert not unlisted, f"chain these with SimFuture.then/relay/all_of: {unlisted}"
    gone = sorted(set(HAND_WRITTEN) - set(found))
    assert not gone, f"no longer hand-written, drop from HAND_WRITTEN: {gone}"


def test_scan_recognises_the_shape():
    source = '''
def on_x(future) -> None:
    exc = future.exception()
    if exc is not None:
        result.set_exception(exc)
        return
    result.set_result(future.result())

def on_y(future) -> None:
    exc = future.exception()
    if exc is not None:
        result.set_result(None)
        return
'''
    functions = [node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)]
    assert [_is_forwarding_prologue(f) for f in functions] == [True, False]
