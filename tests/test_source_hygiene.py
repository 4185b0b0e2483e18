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
