"""Fork-safety/race lint for the warm persistent-worker layer.

The parallel layer (PR 6) keeps worker processes alive across chunks
and merges their side effects back through two explicit protocols: the
:class:`~repro.gpusim.diskcache.EvaluationStore` shard
release/absorb lifecycle, and the per-chunk counter *delta vectors*
(``STORE_DELTA_KEYS`` / search-stat deltas). Any other side effect of
task code silently diverges between ``workers=1`` and ``workers=N`` —
the exact class of bug the parallel-identity CI job exists to catch
*after the fact*. This pass catches it statically.

It builds a name-based call graph over ``src/repro`` rooted at the
functions handed to the pool — everything passed as a
:class:`~repro.parallel.pool.Task` payload plus the public task
functions of :mod:`repro.experiments.tasks` — and walks the reachable
set for:

``RACE501`` (error)
    Mutation of a module-global (assignment through ``global``,
    subscript/attribute stores, augmented assignment, or a known
    mutator-method call on a module-level name). Worker-local memos
    that are *deliberately* per-process can be waived with a
    ``# race-ok`` comment on the mutating line.
``RACE502`` (error)
    ``lambda`` or nested-function ``Task`` payloads — unpickleable
    under the spawn start method, so the warm fleet cannot ship them.
``RACE503`` (error)
    :class:`EvaluationStore` shard-lifecycle calls
    (``release_shard`` / ``absorb_shards`` / ``absorb_shard_paths`` /
    ``refresh`` / ``release`` / ``close``) inside task-reachable code.
    The lifecycle belongs to the pool (worker setup/retire and the
    post-chunk merge), never to the task body.
``RACE504`` (error)
    Counter resets (``reset_search_stats`` / ``reset_metrics``)
    inside task-reachable code — they would zero the baseline the
    delta-vector protocol subtracts against mid-chunk.

Run it via ``repro analyze --concurrency`` (a blocking CI step) or
:func:`lint_tree` directly.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.diagnostics import (
    AnalysisReport,
    Diagnostic,
    Severity,
    SourceSpan,
    emit,
    register_rule,
)

register_rule("RACE501", Severity.ERROR,
              "module-global mutation reachable from pool task code")
register_rule("RACE502", Severity.ERROR,
              "unpickleable (lambda/nested) Task payload")
register_rule("RACE503", Severity.ERROR,
              "store shard lifecycle call inside task-reachable code")
register_rule("RACE504", Severity.ERROR,
              "counter reset inside task-reachable code")

#: Waiver comment: a mutating line carrying this marker is accepted as
#: deliberate worker-local state (e.g. a per-process dataset memo).
RACE_OK_MARKER = "# race-ok"

#: dict/list/set methods that mutate their receiver in place.
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "move_to_end", "sort",
    "reverse", "appendleft", "popleft",
})

#: EvaluationStore shard/lifecycle methods owned by the pool protocol.
_STORE_LIFECYCLE = frozenset({
    "release_shard", "absorb_shards", "absorb_shard_paths",
    "refresh", "release", "close",
})

#: Global counter resets that would corrupt the delta-vector baseline.
_COUNTER_RESETS = frozenset({"reset_search_stats", "reset_metrics"})

#: Module whose public top-level functions are implicit task roots
#: (they are submitted to the pool by name from the experiment runner).
_TASK_MODULE = "repro.experiments.tasks"

#: Long-lived daemon/scheduler entry points (tuning-as-a-service).
#: These run on daemon threads next to the HTTP handlers and fan work
#: into the warm fleet, so everything they reach is walked with the
#: same shared-state checks as the Task payloads themselves.
_SERVICE_ROOTS = frozenset({
    "repro.service.scheduler.Scheduler._run_one",
    "repro.service.executor.execute_job",
    "repro.service.executor._execute_tune",
    "repro.service.executor._execute_experiment",
})

#: Functions that *own* the worker protocols: the worker main loop,
#: chunk executor and setup/teardown legitimately touch the store
#: lifecycle and counter baselines, so reachability stops at them.
_PROTOCOL_OWNERS = frozenset({
    "repro.parallel.warm._worker_main",
    "repro.parallel.warm._run_chunk",
    "repro.parallel.warm._configure_worker",
})


@dataclass
class _FunctionInfo:
    """One function (or method) definition found in the tree."""

    qualname: str          # e.g. repro.parallel.pool.WorkerPool.map
    module: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    path: str              # repo-relative source path
    #: local name -> qualified target for names visible in the body
    bindings: dict[str, str] = field(default_factory=dict)


@dataclass
class _ModuleInfo:
    module: str
    path: str
    tree: ast.Module
    source_lines: list[str]
    #: names assigned at module scope (the mutable-global candidates)
    globals: set[str] = field(default_factory=set)
    #: import bindings at module scope: local name -> qualified target
    imports: dict[str, str] = field(default_factory=dict)
    #: top-level function/class names defined here
    defs: set[str] = field(default_factory=set)


def _module_name(path: Path, root: Path, package: str) -> str:
    rel = path.relative_to(root).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([package, *parts]) if parts else package


def _index_module(path: Path, root: Path, package: str) -> _ModuleInfo:
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    info = _ModuleInfo(
        module=_module_name(path, root, package),
        path=str(path.relative_to(root.parent)),
        tree=tree,
        source_lines=source.splitlines(),
    )
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                info.imports[alias.asname or alias.name.split(".")[0]] = (
                    alias.name
                )
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                info.imports[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            info.defs.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        info.globals.add(leaf.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            info.globals.add(node.target.id)
    return info


def _collect_functions(mod: _ModuleInfo) -> dict[str, _FunctionInfo]:
    """Qualified name -> function info for every def in the module."""
    out: dict[str, _FunctionInfo] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{child.name}"
                out[qual] = _FunctionInfo(
                    qualname=qual, module=mod.module, node=child,
                    path=mod.path,
                )
                visit(child, qual)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")

    visit(mod.tree, mod.module)
    return out


class _Index:
    """Whole-tree symbol index and call-graph resolver."""

    def __init__(self, root: Path, package: str) -> None:
        self.package = package
        self.modules: dict[str, _ModuleInfo] = {}
        self.functions: dict[str, _FunctionInfo] = {}
        for path in sorted(root.rglob("*.py")):
            mod = _index_module(path, root, package)
            self.modules[mod.module] = mod
            self.functions.update(_collect_functions(mod))

    def resolve(self, mod: _ModuleInfo, name: str) -> str | None:
        """Qualified function name for a bare name used in ``mod``."""
        if name in mod.defs:
            qual = f"{mod.module}.{name}"
            if qual in self.functions:
                return qual
            # A class: route the call to its __init__ if defined here.
            init = f"{qual}.__init__"
            return init if init in self.functions else None
        target = mod.imports.get(name)
        if target is None:
            return None
        if target in self.functions:
            return target
        init = f"{target}.__init__"
        return init if init in self.functions else None

    def callees(self, fn: _FunctionInfo) -> set[str]:
        """Task-relevant callees of ``fn`` (intra-package, name-based)."""
        mod = self.modules[fn.module]
        out: set[str] = set()
        enclosing_class = self._enclosing_class(fn)
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Name):
                target = self.resolve(mod, callee.id)
                if target is not None:
                    out.add(target)
            elif isinstance(callee, ast.Attribute):
                if (
                    isinstance(callee.value, ast.Name)
                    and callee.value.id == "self"
                    and enclosing_class is not None
                ):
                    target = f"{enclosing_class}.{callee.attr}"
                    if target in self.functions:
                        out.add(target)
                elif isinstance(callee.value, ast.Name):
                    base = mod.imports.get(callee.value.id)
                    if base is not None:
                        target = f"{base}.{callee.attr}"
                        if target in self.functions:
                            out.add(target)
        return out

    def _enclosing_class(self, fn: _FunctionInfo) -> str | None:
        parent = fn.qualname.rsplit(".", 1)[0]
        if parent in self.modules or parent in self.functions:
            return None
        return parent


def _task_payload_roots(
    index: _Index,
) -> tuple[set[str], list[Diagnostic]]:
    """Functions passed as ``Task`` payloads anywhere in the tree.

    Also emits RACE502 for payloads that cannot cross a spawn pickle
    boundary (lambdas, or names resolving to nested functions).
    """
    roots: set[str] = set()
    diags: list[Diagnostic] = []
    for mod in index.modules.values():
        for node in ast.walk(mod.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "Task"):
                continue
            payload: ast.expr | None = None
            if node.args:
                payload = node.args[0]
            else:
                payload = next(
                    (kw.value for kw in node.keywords if kw.arg == "fn"),
                    None,
                )
            if payload is None:
                continue
            if isinstance(payload, ast.Lambda):
                emit(diags, "RACE502",
                     "lambda Task payload cannot be pickled for the "
                     "warm fleet",
                     subject=mod.path, span=SourceSpan.at(payload.lineno))
                continue
            if isinstance(payload, ast.Name):
                target = index.resolve(mod, payload.id)
                if target is None:
                    # Not a module-level def or import: a name bound in
                    # some enclosing function. If it matches a nested
                    # def of this module, the payload can't be pickled.
                    nested = [
                        qual
                        for qual, info in index.functions.items()
                        if info.module == mod.module
                        and qual.endswith(f".{payload.id}")
                        and qual.rsplit(".", 1)[0] in index.functions
                    ]
                    if nested:
                        emit(diags, "RACE502",
                             f"nested function {payload.id!r} as Task "
                             "payload cannot be pickled for the warm "
                             "fleet",
                             subject=mod.path,
                             span=SourceSpan.at(payload.lineno))
                        roots.update(nested)
                else:
                    roots.add(target)
            elif isinstance(payload, ast.Attribute) and isinstance(
                payload.value, ast.Name
            ):
                base = index.modules[mod.module].imports.get(
                    payload.value.id
                )
                if base is not None:
                    target = f"{base}.{payload.attr}"
                    if target in index.functions:
                        roots.add(target)
    tasks_mod = index.modules.get(_TASK_MODULE)
    if tasks_mod is not None:
        for name in tasks_mod.defs:
            qual = f"{_TASK_MODULE}.{name}"
            if not name.startswith("_") and qual in index.functions:
                roots.add(qual)
    roots.update(q for q in _SERVICE_ROOTS if q in index.functions)
    return roots, diags


def _reachable(index: _Index, roots: set[str]) -> set[str]:
    seen: set[str] = set()
    frontier = [r for r in roots if r in index.functions]
    while frontier:
        qual = frontier.pop()
        if qual in seen or qual in _PROTOCOL_OWNERS:
            continue
        seen.add(qual)
        frontier.extend(index.callees(index.functions[qual]))
    return seen


def _line_waived(mod: _ModuleInfo, lineno: int) -> bool:
    if 1 <= lineno <= len(mod.source_lines):
        return RACE_OK_MARKER in mod.source_lines[lineno - 1]
    return False


def _local_names(fn: _FunctionInfo) -> set[str]:
    """Names bound inside the function (params, assignments, loops)."""
    node = fn.node
    names: set[str] = set()
    args = node.args
    for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        names.add(a.arg)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, (ast.For, ast.AsyncFor)):
            for leaf in ast.walk(sub.target):
                if isinstance(leaf, ast.Name):
                    names.add(leaf.id)
        elif isinstance(sub, ast.withitem) and sub.optional_vars is not None:
            for leaf in ast.walk(sub.optional_vars):
                if isinstance(leaf, ast.Name):
                    names.add(leaf.id)
    # Names declared ``global`` are module globals even though they
    # appear as Store targets inside the body.
    for sub in ast.walk(node):
        if isinstance(sub, ast.Global):
            names.difference_update(sub.names)
    return names


def _check_function(
    index: _Index, fn: _FunctionInfo, diags: list[Diagnostic]
) -> None:
    mod = index.modules[fn.module]
    local = _local_names(fn)
    declared_global: set[str] = set()
    for sub in ast.walk(fn.node):
        if isinstance(sub, ast.Global):
            declared_global.update(sub.names)

    def is_global(name: str) -> bool:
        if name in declared_global:
            return True
        return name in mod.globals and name not in local

    def root_name(expr: ast.expr) -> str | None:
        while isinstance(expr, (ast.Subscript, ast.Attribute)):
            expr = expr.value
        return expr.id if isinstance(expr, ast.Name) else None

    for sub in ast.walk(fn.node):
        if isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            )
            for target in targets:
                name: str | None = None
                kind = ""
                if isinstance(target, ast.Name):
                    if target.id in declared_global:
                        name, kind = target.id, "rebinds global"
                elif isinstance(target, (ast.Subscript, ast.Attribute)):
                    name = root_name(target)
                    kind = "stores into module global"
                    if name is not None and not is_global(name):
                        name = None
                if name is not None and not _line_waived(mod, sub.lineno):
                    emit(diags, "RACE501",
                         f"{fn.qualname} {kind} {name!r}: invisible to "
                         "the chunk merge protocol",
                         subject=fn.path, span=SourceSpan.at(sub.lineno))
        elif isinstance(sub, ast.Call) and isinstance(
            sub.func, ast.Attribute
        ):
            attr = sub.func.attr
            receiver = root_name(sub.func.value)
            if (
                attr in _MUTATOR_METHODS
                and receiver is not None
                and is_global(receiver)
                and not _line_waived(mod, sub.lineno)
            ):
                emit(diags, "RACE501",
                     f"{fn.qualname} calls {receiver}.{attr}() on a "
                     "module global: invisible to the chunk merge "
                     "protocol",
                     subject=fn.path, span=SourceSpan.at(sub.lineno))
            if attr in _STORE_LIFECYCLE and receiver is not None:
                # Only flag receivers that look like stores/caches to
                # keep unrelated close()/refresh() calls out of scope.
                lowered = receiver.lower()
                if ("store" in lowered or "cache" in lowered) and (
                    not _line_waived(mod, sub.lineno)
                ):
                    emit(diags, "RACE503",
                         f"{fn.qualname} calls {receiver}.{attr}() — "
                         "the shard lifecycle belongs to the pool, "
                         "not task code",
                         subject=fn.path, span=SourceSpan.at(sub.lineno))
        elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
            target = index.resolve(mod, sub.func.id)
            short = target.rsplit(".", 1)[-1] if target else sub.func.id
            if short in _COUNTER_RESETS and (
                mod.imports.get(sub.func.id) is not None
                or sub.func.id in _COUNTER_RESETS
            ) and not _line_waived(mod, sub.lineno):
                emit(diags, "RACE504",
                     f"{fn.qualname} calls {short}() — zeroes the "
                     "baseline the delta-vector protocol subtracts "
                     "against",
                     subject=fn.path, span=SourceSpan.at(sub.lineno))


def lint_tree(
    root: str | Path | None = None, *, package: str = "repro"
) -> AnalysisReport:
    """Run the RACE5xx pass over a package tree (default: this repo's).

    ``root`` is the package source directory (``src/repro``); when
    omitted it is derived from this module's own location so the CI
    self-check needs no arguments.
    """
    if root is None:
        root = Path(__file__).resolve().parent.parent
    root = Path(root)
    index = _Index(root, package)
    roots, diags = _task_payload_roots(index)
    report = AnalysisReport(subject=f"concurrency:{package}",
                            passes=["concurrency"])
    report.extend(diags)
    for qual in sorted(_reachable(index, roots)):
        _check_function(index, index.functions[qual], report.diagnostics)
    return report
