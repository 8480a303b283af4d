"""Concurrency rules: locks, shared state, and the executor pin hand-off.

Three hazards this repo has actually hit (PR 6's build stampede is the
canonical case) are machine-checked here:

* ``conc-blocking-in-lock`` — blocking while holding a lock (a future's
  ``.result()``, ``Event.wait``, ``time.sleep``, ``join``, file/process
  I/O inside a ``with <lock>:`` body) serialises every other path
  through that lock and is one waiter away from deadlock.  The
  single-flight build in ``OracleStore.get_or_build`` shows the correct
  shape: park the event *outside* the critical section.
* ``conc-global-mutation`` — mutating module-level mutable state from
  inside a function without holding a lock.  Registries mutated at
  import time by ``register_*`` decorators are exempt (imports are
  effectively single-threaded); everything else must take a lock or
  move the state into an object that owns one.
* ``conc-worker-contextvar`` — functions handed to executor
  ``submit``/``map`` run without the caller's ContextVars (always for
  processes, per-task for threads).  A worker that reaches an
  ambient-pin consumer (``minplus``, ``run_variant``, ...) must
  re-apply the captured pin (``use_kernel``) or pass
  the kernel explicitly — the ``solve_many`` hand-off pattern
  (capture at submit, re-apply in ``_solve_one``).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from .framework import (
    Finding,
    LintContext,
    call_name,
    dotted_name,
    get_keyword,
    module_functions,
    register_rule,
)

#: Callee suffixes that block the calling thread.  ``.join`` is only
#: blocking on thread/process-ish receivers (string joins are everywhere)
#: and is handled separately below.
_BLOCKING_SUFFIXES = (".result", ".wait", ".acquire", ".shutdown")

_JOINABLE_HINTS = ("thread", "process", "proc", "worker", "pool", "future")

#: Fully-qualified blocking calls.
_BLOCKING_NAMES = {
    "time.sleep", "open", "subprocess.run", "subprocess.check_output",
    "subprocess.check_call", "subprocess.call", "subprocess.Popen",
}

#: Lock-ish context expressions: the heuristic is name-based (``lock``
#: anywhere in the dotted name, case-insensitive).  Condition variables
#: release their lock while waiting, so ``cond``-named contexts are
#: deliberately not matched.
def _is_lock_expr(node: ast.AST) -> bool:
    name = dotted_name(node)
    if isinstance(node, ast.Call):
        name = call_name(node)
    return name is not None and "lock" in name.lower()


#: Constructors whose module-level result is shared mutable state.
_MUTABLE_CONSTRUCTORS = {
    "dict", "list", "set", "OrderedDict", "defaultdict", "deque",
    "collections.OrderedDict", "collections.defaultdict", "collections.deque",
}

#: Mutating method names on dict/list/set-like objects.
_MUTATING_METHODS = {
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "remove", "discard", "clear", "appendleft",
}

#: Ambient-pin consumers: callables whose behaviour depends on the
#: kernel ContextVar.  A worker that reaches one must re-apply the pin
#: captured at submit time.
_AMBIENT_CONSUMERS = {
    "minplus", "minplus_square", "minplus_power", "hop_limited_distances",
    "run_variant", "resolve_kernel",
}

#: Calls that re-establish the ambient pin inside a worker.
_PIN_APPLIERS = {"use_kernel"}


def _with_lock_bodies(ctx: LintContext) -> List[ast.With]:
    return [
        node
        for node in ast.walk(ctx.tree)
        if isinstance(node, (ast.With, ast.AsyncWith))
        and any(_is_lock_expr(item.context_expr) for item in node.items)
    ]


@register_rule(
    "conc-blocking-in-lock",
    family="concurrency",
    summary="blocking calls (.result/.wait/sleep/I-O) inside a held lock",
)
def check_blocking_in_lock(ctx: LintContext) -> List[Finding]:
    findings: List[Finding] = []
    for with_node in _with_lock_bodies(ctx):
        for node in ast.walk(with_node):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None:
                continue
            blocking = name in _BLOCKING_NAMES or any(
                name.endswith(suffix) for suffix in _BLOCKING_SUFFIXES
            )
            if name.endswith(".join"):
                receiver = name[: -len(".join")].lower()
                blocking = any(hint in receiver for hint in _JOINABLE_HINTS)
            if not blocking:
                continue
            finding = ctx.finding(
                node,
                "conc-blocking-in-lock",
                f"{name}() blocks while a lock is held; move the wait "
                "outside the critical section (see OracleStore."
                "get_or_build's single-flight pattern)",
            )
            if finding:
                findings.append(finding)
    return findings


def _module_mutable_names(tree: ast.Module) -> Set[str]:
    """Module-level names bound to mutable literals/constructors."""
    names: Set[str] = set()
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        mutable = isinstance(value, (ast.Dict, ast.List, ast.Set))
        if isinstance(value, ast.Call):
            callee = call_name(value)
            mutable = callee in _MUTABLE_CONSTRUCTORS
        if not mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _inside_registration(ctx: LintContext, node: ast.AST) -> bool:
    """Whether ``node`` lives under a ``register_*`` decorator factory."""
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if ancestor.name.startswith(("register", "_register")):
                return True
    return False


def _inside_lock(ctx: LintContext, node: ast.AST) -> bool:
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, (ast.With, ast.AsyncWith)) and any(
            _is_lock_expr(item.context_expr) for item in ancestor.items
        ):
            return True
    return False


@register_rule(
    "conc-global-mutation",
    family="concurrency",
    summary="module-level mutable state mutated in functions without a lock",
)
def check_global_mutation(ctx: LintContext) -> List[Finding]:
    mutable = _module_mutable_names(ctx.tree)
    if not mutable:
        return []
    findings: List[Finding] = []

    def flag(node: ast.AST, name: str, how: str) -> None:
        if _inside_registration(ctx, node) or _inside_lock(ctx, node):
            return
        if not any(
            isinstance(a, (ast.FunctionDef, ast.AsyncFunctionDef))
            for a in ctx.ancestors(node)
        ):
            return  # import-time module body is single-threaded
        finding = ctx.finding(
            node,
            "conc-global-mutation",
            f"module-level {name!r} is {how} outside a lock; thread/process "
            "workers can race this — guard it or own it in a locked object",
        )
        if finding:
            findings.append(finding)

    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in mutable
                ):
                    flag(node, target.value.id, "subscript-assigned")
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in mutable
                and func.attr in _MUTATING_METHODS
            ):
                flag(node, func.value.id, f"mutated via .{func.attr}()")
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in mutable
                ):
                    flag(node, target.value.id, "del-mutated")
    return findings


def _worker_names(ctx: LintContext) -> Dict[str, ast.Call]:
    """Function names handed to executor ``submit``/``map`` calls."""
    workers: Dict[str, ast.Call] = {}
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr not in ("submit", "map"):
            continue
        owner = dotted_name(func.value) or ""
        if not any(tag in owner.lower() for tag in ("pool", "executor")):
            continue
        if node.args and isinstance(node.args[0], ast.Name):
            workers.setdefault(node.args[0].id, node)
    return workers


def _calls_in(func: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name is not None:
                names.add(name)
    return names


def _explicit_kernel_everywhere(func: ast.AST) -> bool:
    """True when every ambient-consumer call pins the kernel explicitly."""
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        if name is None:
            continue
        base = name.rsplit(".", 1)[-1]
        if base in _AMBIENT_CONSUMERS and base != "resolve_kernel":
            if get_keyword(node, "kernel") is None:
                return False
    return True


@register_rule(
    "conc-worker-contextvar",
    family="concurrency",
    summary="executor workers reaching ambient pins must re-apply them",
)
def check_worker_contextvar(ctx: LintContext) -> List[Finding]:
    workers = _worker_names(ctx)
    if not workers:
        return []
    functions = module_functions(ctx.tree)
    findings: List[Finding] = []
    for worker, submit_call in workers.items():
        target = functions.get(worker)
        if target is None:
            continue
        # Transitive closure over same-module callees: _solve_task ->
        # _solve_one is the shipped pattern and must resolve.
        seen: Set[str] = set()
        frontier = [target]
        reaches_consumer = False
        applies_pin = False
        while frontier:
            current = frontier.pop()
            calls = _calls_in(current)
            bases = {name.rsplit(".", 1)[-1] for name in calls}
            if bases & _PIN_APPLIERS:
                applies_pin = True
            hit = bases & _AMBIENT_CONSUMERS
            if hit and not _explicit_kernel_everywhere(current):
                reaches_consumer = True
            for name in calls:
                if name in functions and name not in seen:
                    seen.add(name)
                    frontier.append(functions[name])
        if reaches_consumer and not applies_pin:
            finding = ctx.finding(
                submit_call,
                "conc-worker-contextvar",
                f"worker {worker!r} reaches an ambient-pin consumer "
                "(minplus/run_variant/...) but never re-applies "
                "use_kernel; capture the pin at submit and re-apply it "
                "inside the worker (the solve_many hand-off)",
            )
            if finding:
                findings.append(finding)
    return findings
