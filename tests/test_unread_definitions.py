"""No definition that only tests read, and no import that nothing reads.

A function, class, method or module-level constant in ``src/repro`` that
no part of the program loads is dead weight: it ships in the package,
a reader must understand it, and only a test keeps it alive.  This test
scans ``src/`` with ``ast`` and checks two things:

1. Every definition is loaded somewhere in ``src/``, ``benchmark/`` or
   ``examples/``, or ``ALLOWED`` names it with the reason it stays.  A
   load is a name, an attribute or a string equal to the definition's
   name; a method is loaded only as an attribute or a string, so a local
   variable ``weights`` does not read ``ZipfSampler.weights``.  Imports
   and the strings of an ``__all__`` export do not count.  A load made
   inside a definition counts only once that definition is itself read,
   so a chain of helpers that only an unread helper reaches is found
   whole.  Dunder methods are read whenever their class is.  In
   ``benchmark/`` and ``examples/`` a name the file defines itself
   resolves there (``Recorder.reset`` in ``benchmark/layers.py`` does
   not read ``BumpAllocator.reset``).
2. Every name that a module other than a package ``__init__`` imports
   is read in that module.

Run ``python tests/test_unread_definitions.py`` to print what the scan
finds.
"""

from __future__ import annotations

import ast

try:
    from .test_unset_options import (
        CALLER_DIRS, ROOT, SRC, _defs_of, _imports_of, _module_name)
except ImportError:  # run as a script, with tests/ first on sys.path
    from test_unset_options import (
        CALLER_DIRS, ROOT, SRC, _defs_of, _imports_of, _module_name)

_SEAM = "test seam: "

#: "module:qualname" -> why the definition stays although no part of the
#: program reads it.
ALLOWED = {
    "repro.sim.memory:DeviceMemory.read_bytes":
        _SEAM + "tests read raw device bytes to check stores and lazy pages",
    "repro.sim.memory:DeviceMemory.write_bytes":
        _SEAM + "tests write raw device bytes to set up memory images",
    "repro.sim.scheduler:Scheduler.live_threads":
        _SEAM + "the loop-parity test checks that every thread retired",
    "repro.workloads.zipf:ZipfSampler.weights":
        _SEAM + "tests pin the sampler's Zipf distribution",
    "repro.baselines.scatteralloc:ScatterAlloc.host_bound_pages":
        _SEAM + "tests pin ScatterAlloc's sticky page-to-size binding",
    "repro.sync.collective:CollectiveMutex.lock_block":
        "the paper's block-wide collective mutex (section 4.2.2); UAlloc "
        "and the collective ablation use the warp form",
    "repro.sync.collective:CollectiveMutex.unlock_block":
        "the paper's block-wide collective mutex (section 4.2.2); UAlloc "
        "and the collective ablation use the warp form",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _reads(node: ast.AST) -> tuple[str, ...]:
    """What a node loads: ``name`` for a bare name, ``.name`` for an
    attribute, and both for a string, which ``getattr`` may take."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return (node.id,)
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return ("." + node.attr,)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return (node.value, "." + node.value)
    return ()


def _constants(node: ast.stmt) -> list[str]:
    """The names a module-level assignment defines."""
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _walk(tree: ast.Module, module: str,
          loads: dict[str | None, set[str]]) -> dict[str, str]:
    """Classes and module-level constants of a file, as key -> name.

    What each node loads goes into ``loads`` under the key of the
    innermost definition that holds it, or under ``None`` at module level.
    """
    found: dict[str, str] = {}

    def visit(node: ast.AST, prefix: str, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                key = f"{module}:{prefix}{child.name}"
                if isinstance(child, ast.ClassDef):
                    found[key] = child.name
                visit(child, f"{prefix}{child.name}.", key)
                continue
            if node is tree:
                names = _constants(child)
                if "__all__" in names:
                    continue
                if len(names) == 1 and not _is_dunder(names[0]):
                    key = f"{module}:{names[0]}"
                    found[key] = names[0]
                    visit(child, prefix, key)
                    continue
            loads.setdefault(owner, set()).update(_reads(child))
            visit(child, prefix, owner)

    visit(tree, "", None)
    return found


def _file_reads(tree: ast.Module) -> set[str]:
    return {r for node in ast.walk(tree) for r in _reads(node)}


def _caller_reads() -> set[str]:
    """What ``benchmark/`` and ``examples/`` load, less each file's own names."""
    reads: set[str] = set()
    for top in CALLER_DIRS:
        if top == "src":
            continue
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            own = {n.name for n in ast.walk(tree)
                   if isinstance(n, (ast.ClassDef, ast.FunctionDef,
                                     ast.AsyncFunctionDef))}
            reads |= _file_reads(tree) - own - {"." + n for n in own}
    return reads


def scan_definitions() -> list[str]:
    """``module:qualname`` of every outermost definition nothing reads."""
    defs: dict[str, str] = {}
    loads: dict[str | None, set[str]] = {}
    methods: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        module = _module_name(path)
        defs.update(_walk(tree, module, loads))
        for d in _defs_of(tree, module):
            defs[d.key] = d.name
            if d.is_method:
                methods.add(d.key)

    def parent(key: str) -> str | None:
        module, _, qual = key.partition(":")
        up = qual.rpartition(".")[0]
        return f"{module}:{up}" if up else None

    read = loads.get(None, set()) | _caller_reads()
    live: set[str] = set()
    grew = True
    while grew:
        grew = False
        for key, name in defs.items():
            up = parent(key)
            if key in live or (up is not None and up not in live):
                continue
            # a method is read as an attribute; anything else by name too
            if (_is_dunder(key.rpartition(".")[2]) or "." + name in read
                    or (key not in methods and name in read)):
                live.add(key)
                read |= loads.get(key, set())
                grew = True
    return sorted(k for k in defs
                  if k not in live and (parent(k) is None or parent(k) in live))


def scan_imports() -> list[str]:
    """``module:name`` of every imported name its module never reads."""
    unread = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        module = _module_name(path)
        read = _file_reads(tree)
        unread += [f"{module}:{local}"
                   for local, target in _imports_of(tree, module, False).items()
                   if local not in read and not target.startswith("__future__.")]
    return sorted(unread)


def test_every_definition_is_read_by_the_program():
    unread = [d for d in scan_definitions() if d not in ALLOWED]
    assert not unread, (
        f"{len(unread)} definition(s) that no part of the program reads; "
        "delete each, or name it in ALLOWED with a reason:\n  "
        + "\n  ".join(unread))


def test_allowlist_names_only_unread_definitions():
    stale = sorted(set(ALLOWED) - set(scan_definitions()))
    assert not stale, (
        "ALLOWED names definitions that are gone or now read by the "
        "program; drop them:\n  " + "\n  ".join(stale))


def test_every_import_is_read():
    unread = scan_imports()
    assert not unread, (
        f"{len(unread)} imported name(s) that their module never reads:\n  "
        + "\n  ".join(unread))


if __name__ == "__main__":
    for entry in scan_definitions():
        print(("allowed  " if entry in ALLOWED else "UNREAD   ") + entry)
    for entry in scan_imports():
        print("IMPORT   " + entry)
