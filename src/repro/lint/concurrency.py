"""Concurrency rules: locks and shared state.

Two hazards this repo has actually hit (the oracle store's build
stampede is the canonical case) are machine-checked here:

* ``conc-blocking-in-lock`` — blocking while holding a lock (a future's
  ``.result()``, ``Event.wait``, ``time.sleep``, ``join``, file/process
  I/O inside a ``with <lock>:`` body) serialises every other path
  through that lock and is one waiter away from deadlock.  The
  single-flight build in ``OracleStore.get_or_build`` shows the correct
  shape: park the event *outside* the critical section.
* ``conc-global-mutation`` — mutating module-level mutable state from
  inside a function without holding a lock.  No function name is
  exempt: such state must take a lock or move into an object that owns
  it (the catalogues are :class:`~repro.registry.Registry` instances,
  filled through their own methods).
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from .framework import (
    Finding,
    LintContext,
    call_name,
    dotted_name,
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
        if _inside_lock(ctx, node):
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
