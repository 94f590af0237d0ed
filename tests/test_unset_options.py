"""No option that nothing sets: every defaulted parameter in ``src/`` is bound.

A defaulted parameter that no call in the program binds holds one value
everywhere.  It is a constant dressed up as an option: it doubles the
configurations a reader must consider and serves none of them.  This test
scans ``src/`` with ``ast`` for defaulted parameters and checks each is
bound, by keyword or by position, by some call in ``src/``,
``benchmark/`` or ``examples/``.  Tests do not count: a value only a
test sets is a test seam, which stays only when ``ALLOWED`` names it
with its reason.

Calls resolve through the file's imports and top-level names
(``f(...)``, ``mod.f(...)``, ``Cls(...)``, ``Cls.f(...)``);
``functools.partial(f, ...)`` is a call of ``f``.  ``obj.f(...)`` on
anything but an imported module or class does not resolve: its
arguments bind for every method named ``f``, except ``**kwargs``,
which binds nothing there.  In a resolved call ``*args`` binds every
positional parameter and ``**kwargs`` binds all of them.  A function
reached only through a variable or a dict sees no call at all, so it
needs an ``ALLOWED`` entry.

Run ``python tests/test_unset_options.py`` to print what the scan finds.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CALLER_DIRS = ("src", "benchmark", "examples")

_SEAM = "test seam: "
_ARGV = "entry point: the console passes sys.argv, tests pass a list"

#: "module:qualname(param)" -> why the option stays although no call in
#: the program binds it; "module:qualname" covers every parameter.
ALLOWED = {
    "repro.sim.scheduler:Scheduler.__init__(probe_every)":
        _SEAM + "tests probe state digests at a finer cadence",
    "repro.sim.trace:Tracer.__init__(max_timeline_events)":
        _SEAM + "tests overflow the timeline cap with a small one",
    "repro.verify.race:RaceChecker.__init__(max_findings)":
        _SEAM + "tests overflow the findings cap with a small one",
    "repro.baselines.xmalloc:XMalloc.__init__(superblock)":
        _SEAM + "tests exhaust small superblocks",
    "repro.core.allocator:ThroughputAllocator.malloc_robust(max_retries)":
        _SEAM + "tests bound the retry loop",
    "repro.core.allocator:ThroughputAllocator.malloc_robust(backoff_base)":
        _SEAM + "tests shorten the retry backoff",
    "repro.core.allocator:ThroughputAllocator.malloc_robust(backoff_cap)":
        _SEAM + "tests shorten the retry backoff",
    "repro.par.pool:map_sharded(heartbeat_s)":
        _SEAM + "tests shorten the worker heartbeat",
    "repro.core.arena:Arena.__init__(rcu)":
        _SEAM + "tests share one RCU domain between arenas",
    "repro.baselines.bump:BumpAllocator.__init__(align)":
        _SEAM + "tests check an alignment other than the default",
    "repro.core.tbuddy:TBuddy.check_invariants(strict_siblings)":
        _SEAM + "tests assert the stricter sibling invariant",
    "repro.core.tbuddy:TBuddy.free(order)":
        _SEAM + "tests free with a wrong order to hit InvalidFree",
    "repro.sync.spinlock:SpinLock.__init__(addr)":
        _SEAM + "tests place the lock word at a known address",
    "repro.sync.counting_semaphore:CountingSemaphore.__init__(initial)":
        _SEAM + "tests start from a nonzero or invalid value",
    "repro.sim.device:ThreadCtx.__init__(rng)":
        _SEAM + "tests hand a context an explicit generator",
    "repro.sim.hostrun:host_ctx(seed)":
        _SEAM + "tests draw host-side random streams per seed",
    "repro.sim.hostrun:host_ctx(sm)":
        _SEAM + "tests pick the arena a host context maps to",
    "repro.verify.runner:run_case(allocator_hook)":
        _SEAM + "mutation tests break the allocator after setup",
    "repro.verify.runner:run_case(check_races)":
        _SEAM + "tests run a case without the race checker",
    "repro.resil.runner:run_deck(replay_check)":
        _SEAM + "tests skip the second, trace-comparing run of each case",
    "repro.verify.shrink:shrink_case(rerun)":
        _SEAM + "tests shrink against a fake runner",
    "repro.bench.fig5:run(block)": _SEAM + "tests run small launches",
    "repro.bench.fig6:run(block)": _SEAM + "tests run small launches",
    "repro.bench.ablations:run_buddy_ablation(block)":
        _SEAM + "tests run small launches",
    "repro.bench.ablations:run_collective_ablation(block)":
        _SEAM + "tests run small launches",
    "repro.bench.fig7:run_size(max_pool)":
        _SEAM + "tests exhaust a smaller pool",
    "repro.__main__:main(argv)": _ARGV,
    "repro.backends.cli:main(argv)": _ARGV,
    "repro.perf.cli:main(argv)": _ARGV,
    "repro.resil.cli:main(argv)": _ARGV,
    "repro.verify.cli:main(argv)": _ARGV,
    "repro.workloads.cli:main(argv)": _ARGV,
}


def _allowed(entry: str) -> bool:
    return entry in ALLOWED or entry.partition("(")[0] in ALLOWED


@dataclass
class Def:
    key: str                  # "module:qualname"
    name: str                 # the name a call uses: function or class name
    is_method: bool
    positional: list[str]     # positional parameters, self/cls dropped
    defaulted: list[str]
    bound: set[str] = field(default_factory=set)


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _defs_of(tree: ast.Module, module: str) -> list[Def]:
    out: list[Def] = []

    def visit(node: ast.AST, prefix: str, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decos = {getattr(d, "id", getattr(d, "attr", None))
                         for d in child.decorator_list}
                a = child.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                if cls and "staticmethod" not in decos:
                    positional = positional[1:]
                defaulted = positional[len(positional) - len(a.defaults):]
                defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                              if d is not None]
                name = cls if (cls and child.name == "__init__") else child.name
                out.append(Def(f"{module}:{prefix}{child.name}", name,
                               cls is not None, positional, defaulted))
                visit(child, f"{prefix}{child.name}.", None)

    visit(tree, "", None)
    return out


def _imports_of(tree: ast.Module, module: str, is_pkg: bool) -> dict[str, str]:
    """Local name -> dotted target, for every import in the file."""
    package = module if is_pkg else module.rpartition(".")[0]
    names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                names[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parts = parts[:len(parts) - node.level + 1]
                base = ".".join(parts + ([base] if base else []))
            for alias in node.names:
                names[alias.asname or alias.name] = f"{base}.{alias.name}"
    return names


def scan() -> list[str]:
    """``module:qualname(param)`` of every defaulted parameter no call binds."""
    defs: list[Def] = []
    for path in sorted(SRC.rglob("*.py")):
        defs += _defs_of(ast.parse(path.read_text()), _module_name(path))
    by_target: dict[str, list[Def]] = {}
    methods: dict[str, list[Def]] = {}
    for d in defs:
        module, _, qual = d.key.partition(":")
        top = qual.removesuffix(".__init__")
        if "." not in top or (d.is_method and top.count(".") == 1):
            by_target.setdefault(f"{module}.{top}", []).append(d)
        if d.is_method:
            methods.setdefault(d.name, []).append(d)

    def resolve(func: ast.expr, imports: dict[str, str], module: str):
        """(the defs a call may reach, whether it resolved to them)."""
        if isinstance(func, ast.Name):
            return by_target.get(imports.get(func.id, f"{module}.{func.id}"),
                                 []), True
        if isinstance(func, ast.Attribute):
            recv = func.value
            if isinstance(recv, ast.Name) and recv.id in imports:
                return by_target.get(f"{imports[recv.id]}.{func.attr}",
                                     []), True
            return methods.get(func.attr, []), False
        return [], True

    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            in_src = path.is_relative_to(SRC)
            module = _module_name(path) if in_src else ""
            imports = _imports_of(tree, module,
                                  in_src and path.name == "__init__.py")
            for call in ast.walk(tree):
                if not isinstance(call, ast.Call):
                    continue
                func, args = call.func, call.args
                name = getattr(func, "attr", getattr(func, "id", None))
                if name == "partial" and args:
                    func, args = args[0], args[1:]
                starred = any(isinstance(a, ast.Starred) for a in args)
                reached, resolved = resolve(func, imports, module)
                for d in reached:
                    if resolved and any(k.arg is None for k in call.keywords):
                        d.bound.update(d.defaulted)
                    d.bound.update(d.positional if starred
                                   else d.positional[:len(args)])
                    d.bound.update(k.arg for k in call.keywords)

    return sorted(f"{d.key}({p})" for d in defs for p in d.defaulted
                  if p not in d.bound)


def test_every_defaulted_parameter_is_bound_by_some_call():
    unset = [u for u in scan() if not _allowed(u)]
    assert not unset, (
        f"{len(unset)} defaulted parameter(s) that no call binds; make each "
        "a constant, or name it in ALLOWED with a reason:\n  "
        + "\n  ".join(unset))


def test_allowlist_names_only_unset_parameters():
    found = scan()
    found += [f.partition("(")[0] for f in found]
    stale = sorted(set(ALLOWED) - set(found))
    assert not stale, (
        "ALLOWED names parameters that are gone or now bound by a call; "
        "drop them:\n  " + "\n  ".join(stale))


if __name__ == "__main__":
    for entry in scan():
        print(("allowed  " if _allowed(entry) else "UNSET    ") + entry)
