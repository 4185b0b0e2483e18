"""Source scans over ``src/repro``.

*Unused imports.*  Every name a module imports is read somewhere in it.
An import counts as read when its name appears in the module's code, in
a quoted annotation (the ``TYPE_CHECKING`` idiom), or in the module's
``__all__``.  A name mentioned only in a docstring or a comment is not
read.

*Names only tests reach.*  Every function, method and class defined in
``src/repro`` is read somewhere outside ``tests/``: in src, the
examples, the benchmarks or perfbench (in code, or as a string such as a
``getattr`` name or a dispatched operation), or named in the docs.  The
match is by name, so a method counts as read when any object's attribute
of that name is.  An import or an ``__all__`` entry is not a read.

*The closure shape.*  Failures travel down ``SimFuture`` chains through
the kernel's ``then`` / ``relay`` / ``all_of``, not hand-written
closures.  The shape this flags is a callback that forwards its source's
failure by hand before doing anything else::

    def on_x(future: SimFuture) -> None:
        exc = future.exception()
        if exc is not None:
            result.set_exception(exc)
            return
        ...

A closure of that shape that maps the result and resolves ``result`` at
once is ``future.then(fn)``.

*Settings only tests set.*  Every field of a frozen ``*Policy`` or
``*Config`` dataclass is passed by name somewhere outside ``tests/``.

*Process-wide mutable state.*  A module-level ``lru_cache`` function, or
a module-level dict, list, set or weak mapping that its module writes
into, outlives every simulated world and can carry one run's state into
the next.  A table the module only reads is a constant, not state.

Each scan has an allow-list of what stays on purpose, with a reason per
entry; anything else the scan finds fails the test, and a listed entry
the scan no longer finds must leave its list.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
ROOT = SRC.parents[1]
#: Code outside ``tests/`` whose reads count, and the docs whose words do.
READERS = ("src", "examples", "benchmarks", "perfbench")
DOCS = ("docs", "README.md")

#: (module, imported name) -> why the import stays although nothing reads it.
UNUSED_IMPORTS: dict[tuple[str, str], str] = {}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import in the module (at any depth) -> line."""
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotations(tree: ast.Module) -> list[ast.expr]:
    found: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            every = arguments.posonlyargs + arguments.args + arguments.kwonlyargs
            every += [arg for arg in (arguments.vararg, arguments.kwarg) if arg is not None]
            found += [arg.annotation for arg in every if arg.annotation is not None]
            if node.returns is not None:
                found.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            found.append(node.annotation)
    return found


def _read(tree: ast.Module) -> set[str]:
    """Every name the module reads: in code, in quoted annotations and in
    ``__all__``."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names |= {inner.id for inner in ast.walk(quoted) if isinstance(inner, ast.Name)}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            )
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            names |= {
                item.value for item in node.value.elts
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            }
    return names


def unused_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) of each import in ``source`` that nothing reads."""
    tree = ast.parse(source)
    read = _read(tree)
    return sorted(
        ((name, line) for name, line in _imported(tree).items() if name not in read),
        key=lambda item: item[1],
    )


def scan() -> dict[tuple[str, str], int]:
    found: dict[tuple[str, str], int] = {}
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        for name, line in unused_imports(path.read_text(encoding="utf-8")):
            found[(module, name)] = line
    return found


def test_src_has_no_unlisted_unused_import():
    found = scan()
    unlisted = {key: line for key, line in found.items() if key not in UNUSED_IMPORTS}
    assert not unlisted, "unused imports (delete them, or list them with a reason): " + ", ".join(
        f"{module}:{line} {name}" for (module, name), line in sorted(unlisted.items())
    )
    stale = sorted(set(UNUSED_IMPORTS) - set(found))
    assert not stale, f"listed imports that are read now, or gone: {stale}"


def test_scan_recognises_the_shapes():
    source = '''
"""Docstrings that name ``Mentioned`` do not read it."""
from __future__ import annotations

import os.path
import json as codec
from typing import TYPE_CHECKING, Callable
from collections import deque, OrderedDict

if TYPE_CHECKING:
    from pathlib import Path, PurePath

__all__ = ["OrderedDict"]


def load(path: "Path") -> Callable[[], None]:
    from functools import partial, reduce
    return partial(codec.loads, path)


from mentions import Mentioned
'''
    assert [name for name, _line in unused_imports(source)] == [
        "os", "deque", "PurePath", "reduce", "Mentioned"
    ]


#: (module, qualified name) -> why it stays although only tests reach it.
TEST_ONLY_NAMES: dict[tuple[str, str], str] = {
    # The middleware models: API of the real middleware the islands speak,
    # kept whole so a bridged client sees what a native one would.
    ("repro.havi.bus1394", "Bus1394.channels_allocated"): "HAVi bus model: isochronous channel count",
    ("repro.havi.bus1394", "Bus1394.iso_bandwidth_free"): "HAVi bus model: isochronous bandwidth left",
    ("repro.havi.fcm_types", "AvDiscFcm"): "HAVi FCM type model (disc playback)",
    ("repro.havi.registry", "Registry.entry_count"): "HAVi registry model",
    ("repro.havi.registry", "RegistryClient.find_one"): "HAVi registry model",
    ("repro.havi.streams", "StreamManager.active_connections"): "HAVi stream manager model",
    ("repro.jini.lease", "LeaseTable.is_live"): "Jini lease model",
    ("repro.jini.lease", "LeaseTable.live_count"): "Jini lease model",
    ("repro.jini.lease", "LeaseRenewalManager.managed_count"): "Jini lease model",
    ("repro.jini.lookup", "ServiceRegistration"): "Jini lookup model: what register() hands back",
    ("repro.jini.lookup", "LookupService.registered_count"): "Jini lookup model",
    ("repro.jini.service", "JiniService.update_attributes"): "Jini model: setAttributes",
    ("repro.jini.service", "JiniClient.register_listener"): "Jini model: remote event listeners",
    ("repro.mail.mailbox", "MailStore.mailbox_count"): "mail server model",
    ("repro.net.node", "Node.unregister_protocol"): "node model: the inverse of register_protocol",
    ("repro.pcms.mail_pcm", "MailPcm.forward_events_to"): "the mail PCM's event forwarding, the paper's mail bridge",
    ("repro.pcms.x10_pcm", "X10Pcm.unbind_button"): "X10 model: the inverse of bind_button",
    ("repro.upnp.control", "UpnpControlPoint.on_device_alive"): "UPnP model: SSDP alive watchers",
    ("repro.x10.devices", "RemoteHandset.press_on"): "X10 model: handset presses",
    ("repro.x10.devices", "RemoteHandset.press_off"): "X10 model: handset presses",
    # The applications' own API, kept on purpose.
    ("repro.apps.multimedia", "MultimediaOrchestrator.surveillance_off"): "the off half of surveillance_on",
    ("repro.apps.scenes", "SceneController.room_on"): "kept on purpose: the scene API's room switch",
    ("repro.apps.scenes", "SceneController.middleware_off"): "the scene API's per-middleware switch",
    ("repro.core.streams", "StreamSink.wrap_fcm"): "stream sinks for HAVi FCMs, the paper's stream bridge",
    ("repro.core.streams", "StreamMetaMiddleware.active_streams"): "the stream bridge's live count",
    # Framework seams and reports.
    ("repro.core.calls", "ServiceFault.from_exception"): "the inverse of to_exception in the neutral fault model",
    ("repro.core.vsg", "VirtualServiceGateway.unregister_with_directory"): (
        "how a gateway leaves the directory: the journal's unreg record and the "
        "peers' poll-prune path have no other trigger"
    ),
    ("repro.core.vsr", "VsrDirectory._find_scan"): "the reference scan the context index is checked against",
    ("repro.faults.plan", "FaultReport.by_kind"): "the fault report's query by kind",
    ("repro.net.simkernel", "Simulator.pending_events"): "the kernel's live-event count its cancel accounting is pinned by",
    ("repro.obs.flight", "FlightRecorder.watch_monitor"): "feeds a recorder outside a testkit world, which wires its own feed",
    ("repro.obs.flight", "FlightRecorder.dump_json"): "renders one dump, as dumps_json renders them all",
    ("repro.soap.envelope", "clear_memos"): "empties the codec memos before timing or probing a fresh world",
}


def _defined(tree: ast.Module) -> dict[str, tuple[str, int]]:
    """Qualified name -> (name, line) of each function, method and class
    the module defines, at any depth; dunder methods are left out."""
    found: dict[str, tuple[str, int]] = {}

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    found[owner + name] = (name, child.lineno)
                visit(child, f"{owner}{name}.")
            else:
                visit(child, owner)

    visit(tree, "")
    return found


def _reads(tree: ast.Module) -> set[str]:
    """Names the module reads: loaded names and attributes, and strings
    that are identifiers (``getattr`` names, dispatched operations), but
    not ``__all__`` entries."""
    exported: set[int] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported |= {id(item) for item in ast.walk(node.value)}
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in exported
        ):
            names.add(node.value)
    return names


def reached() -> set[str]:
    """Every name read outside ``tests/``."""
    names: set[str] = set()
    for reader in READERS:
        for path in sorted((ROOT / reader).rglob("*.py")):
            names |= _reads(ast.parse(path.read_text(encoding="utf-8")))
    for doc in DOCS:
        path = ROOT / doc
        for page in sorted(path.rglob("*.md")) if path.is_dir() else [path]:
            names |= set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", page.read_text(encoding="utf-8")))
    return names


def scan_test_only_names() -> dict[tuple[str, str], int]:
    names = reached()
    found: dict[tuple[str, str], int] = {}
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        for qualified, (name, line) in _defined(ast.parse(path.read_text(encoding="utf-8"))).items():
            if name not in names:
                found[(module, qualified)] = line
    return found


def test_src_has_no_unlisted_test_only_name():
    found = scan_test_only_names()
    unlisted = {key: line for key, line in found.items() if key not in TEST_ONLY_NAMES}
    assert not unlisted, "names only tests reach (delete them, or list them with a reason): " + ", ".join(
        f"{module}:{line} {name}" for (module, name), line in sorted(unlisted.items())
    )
    stale = sorted(set(TEST_ONLY_NAMES) - set(found))
    assert not stale, f"listed names that are read now, or gone: {stale}"


def test_name_scan_recognises_the_shapes():
    source = '''
"""A docstring that names ``Unread`` does not read it."""
__all__ = ["Exported"]


class Exported:
    def called(self): ...
    def looked_up(self): ...
    def stored(self): ...
    def __repr__(self): ...


def outer():
    def inner(): ...
    return inner


Exported().called()
getattr(Exported(), "looked_up")
Exported().stored = None
'''
    tree = ast.parse(source)
    read = _reads(tree)
    unread = sorted(
        qualified for qualified, (name, _line) in _defined(tree).items() if name not in read
    )
    assert unread == ["Exported.stored", "outer"]


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
        module = _module_name(path)
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


#: (module, "Class.field") -> why the setting stays although only tests set it.
TEST_ONLY_SETTINGS: dict[tuple[str, str], str] = {}


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if (
            isinstance(decorator, ast.Call)
            and getattr(decorator.func, "id", None) == "dataclass"
            and any(
                keyword.arg == "frozen"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
                for keyword in decorator.keywords
            )
        ):
            return True
    return False


def _settings(tree: ast.Module) -> dict[str, tuple[str, int]]:
    """``Class.field`` -> (field, line) of each field of a frozen
    dataclass named ``*Policy`` or ``*Config``."""
    found: dict[str, tuple[str, int]] = {}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.ClassDef)
            and node.name.endswith(("Policy", "Config"))
            and _is_frozen_dataclass(node)
        ):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    found[f"{node.name}.{item.target.id}"] = (item.target.id, item.lineno)
    return found


def _keywords(tree: ast.Module) -> set[str]:
    """Every keyword name the module passes to a call."""
    return {
        keyword.arg
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for keyword in node.keywords
        if keyword.arg is not None
    }


def scan_test_only_settings() -> dict[tuple[str, str], int]:
    passed: set[str] = set()
    for reader in READERS:
        for path in sorted((ROOT / reader).rglob("*.py")):
            passed |= _keywords(ast.parse(path.read_text(encoding="utf-8")))
    found: dict[tuple[str, str], int] = {}
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        for qualified, (name, line) in _settings(ast.parse(path.read_text(encoding="utf-8"))).items():
            if name not in passed:
                found[(module, qualified)] = line
    return found


def test_every_policy_and_config_field_is_set_outside_tests():
    found = scan_test_only_settings()
    unlisted = {key: line for key, line in found.items() if key not in TEST_ONLY_SETTINGS}
    assert not unlisted, "settings only tests set (make them constants, or list them with a reason): " + ", ".join(
        f"{module}:{line} {name}" for (module, name), line in sorted(unlisted.items())
    )
    stale = sorted(set(TEST_ONLY_SETTINGS) - set(found))
    assert not stale, f"listed settings that are set now, or gone: {stale}"


def test_settings_scan_recognises_the_shapes():
    source = '''
from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    passed: int = 1
    unset: int = 2


@dataclass(frozen=True)
class PlainRecord:
    other: int = 3


@dataclass
class MutableConfig:
    loose: int = 4


RetryPolicy(passed=5)
'''
    tree = ast.parse(source)
    passed = _keywords(tree)
    unset = sorted(
        qualified for qualified, (name, _line) in _settings(tree).items() if name not in passed
    )
    assert unset == ["RetryPolicy.unset"]


#: (module, name) -> why the process-wide state stays.
PROCESS_STATE: dict[tuple[str, str], str] = {
    ("repro.soap.envelope", "_request_memo"): (
        "codec memo: a request's bytes are a pure function of its operation and args"
    ),
    ("repro.soap.envelope", "_response_memo"): (
        "codec memo: a response's bytes are a pure function of its operation and value"
    ),
    ("repro.soap.envelope", "_parse_memo"): (
        "codec memo: the message is a pure function of the bytes; callers copy nested values"
    ),
    ("repro.soap.http", "gzip_bytes"): "gzip memo: deterministic bytes for one body",
    ("repro.soap.http", "gunzip_bytes"): "gzip memo: the body of one gzip stream",
    ("repro.soap.http", "persists"): "header memo: a pure function of two header values",
    ("repro.soap.http", "accepts_gzip"): "header memo: a pure function of one header value",
    ("repro.soap.http", "_status_line"): "header memo: one response start line per status",
    ("repro.core.proxygen", "_CLASS_CACHE"): (
        "proxy classes by interface fingerprint, the amortised cost C6 measures"
    ),
    ("repro.havi.bus1394", "_last_guid"): (
        "GUIDs numbered per Network through a weak map, so no run sees another's"
    ),
}

#: Calls that build a mutable container.
_CONTAINER_CALLS = {
    "dict", "list", "set", "defaultdict", "OrderedDict", "deque",
    "WeakKeyDictionary", "WeakValueDictionary", "WeakSet",
}
#: Methods that write into a container.
_WRITERS = {
    "add", "append", "appendleft", "clear", "discard", "extend", "insert", "pop",
    "popitem", "remove", "setdefault", "update",
}


def _is_container(value: ast.expr | None) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name in _CONTAINER_CALLS
    return False


def _is_memo(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name in ("lru_cache", "cache")


def _written(tree: ast.Module) -> set[str]:
    """Names the module writes into: item stores and deletes, augmented
    assignments, and calls of a container's writing methods."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, (ast.Store, ast.Del))
            and isinstance(node.value, ast.Name)
        ):
            names.add(node.value.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _WRITERS
            and isinstance(node.func.value, ast.Name)
        ):
            names.add(node.func.value.id)
    return names


def process_state(tree: ast.Module) -> dict[str, int]:
    """Name -> line of each memo function and written container the
    module defines at top level."""
    written = _written(tree)
    found: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(_is_memo(decorator) for decorator in node.decorator_list):
                found[node.name] = node.lineno
            continue
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            continue
        if _is_container(value):
            for target in targets:
                if isinstance(target, ast.Name) and target.id in written:
                    found[target.id] = node.lineno
    return found


def scan_process_state() -> dict[tuple[str, str], int]:
    found: dict[tuple[str, str], int] = {}
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        for name, line in process_state(ast.parse(path.read_text(encoding="utf-8"))).items():
            found[(module, name)] = line
    return found


def test_src_has_no_unlisted_process_wide_state():
    found = scan_process_state()
    unlisted = {key: line for key, line in found.items() if key not in PROCESS_STATE}
    assert not unlisted, "process-wide mutable state (move it into a world, or list it with a reason): " + ", ".join(
        f"{module}:{line} {name}" for (module, name), line in sorted(unlisted.items())
    )
    stale = sorted(set(PROCESS_STATE) - set(found))
    assert not stale, f"listed state that is gone: {stale}"


def test_state_scan_recognises_the_shapes():
    source = '''
import functools
import weakref
from collections import defaultdict
from functools import lru_cache

TABLE = {"a": 1}
NAMES = ["x", "y"]
_seen = set()
_by_world = weakref.WeakKeyDictionary()
_counts: dict[str, int] = defaultdict(int)
_log = []


@functools.lru_cache(maxsize=8)
def memo(key): ...


@lru_cache
def bare(key): ...


@functools.wraps(memo)
def plain(key):
    _seen.add(key)
    _by_world[key] = TABLE[key]
    _counts[key] += 1
    return NAMES[0]
'''
    assert sorted(process_state(ast.parse(source))) == [
        "_by_world", "_counts", "_seen", "bare", "memo"
    ]
