"""Rule framework for the project-invariant static analysis plane.

The repo's correctness guarantees rest on conventions no general-purpose
linter knows about: every RNG draw must be seeded (bit-identity of the
kernel/engine/fault planes), metrics snapshots must stay strictly
JSON-safe, hot paths must thread ``out=`` buffers.  This module is the machinery that
turns those conventions into machine-checked rules:

* :class:`Finding` — one structured violation (file, line, rule id,
  message, severity);
* :class:`RuleSpec` + :func:`register_rule` — the rule catalogue
  :data:`RULES`, a :class:`~repro.registry.Registry` like the variant
  catalogue: a rule registers once and every consumer (the ``repro
  lint`` CLI, the CI gate, the test corpus) enumerates the same
  catalogue;
* :class:`LintContext` — one parsed file (parent-annotated AST, source
  lines, pragma table) handed to every applicable rule;
* :func:`lint_file` / :func:`lint_tree` — the drivers.

Suppression: a ``# lint: allow[rule-id]`` pragma on the flagged line or
the line directly above silences that rule there (comma-separate ids,
``*`` allows everything).  Pragmas are for *reviewed* exceptions — the
wall-clock profiling in ``RoundLedger`` is the canonical example — and
each should carry a justifying comment.

Rules are pure functions of the AST (stdlib ``ast`` only — no new
runtime dependencies), scoped by repo-relative path prefixes so e.g.
wall-clock rules bind to algorithm modules but not the serving tier.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..registry import Registry

#: Severities a rule may assign.  ``error`` findings gate CI; the plane
#: currently has no advisory tier, but the field keeps the report shape
#: ready for one.
SEVERITIES = ("error", "warning")

#: Directories the tree driver scans by default (repo-relative).
DEFAULT_SCAN_ROOTS = ("src", "benchmarks", "tests", "examples")

#: Path fragments the tree driver always skips: the known-bad fixture
#: corpus must never fail the live-tree gate, and caches are not code.
SKIP_FRAGMENTS = ("lint_fixtures", "__pycache__", ".git")

_PRAGMA = re.compile(r"#\s*lint:\s*allow\[([^\]]*)\]")


@dataclass(frozen=True)
class Finding:
    """One structured lint violation."""

    path: str  # repo-relative, posix separators
    line: int
    col: int
    rule: str
    message: str
    severity: str = "error"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "severity": self.severity,
        }

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity}[{self.rule}] {self.message}"
        )


class LintContext:
    """One parsed file: AST, source, pragmas — what every rule sees."""

    def __init__(self, rel_path: str, source: str, root: str = "") -> None:
        self.rel_path = rel_path.replace(os.sep, "/")
        self.source = source
        self.root = root
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=self.rel_path)
        self._annotate_parents()
        self._pragmas = self._collect_pragmas()

    def _annotate_parents(self) -> None:
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                child._lint_parent = parent  # type: ignore[attr-defined]

    def _collect_pragmas(self) -> Dict[int, Tuple[str, ...]]:
        table: Dict[int, Tuple[str, ...]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = _PRAGMA.search(line)
            if match:
                ids = tuple(
                    part.strip() for part in match.group(1).split(",")
                    if part.strip()
                )
                table[lineno] = ids
        return table

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk ``node``'s parent chain up to the module."""
        current = getattr(node, "_lint_parent", None)
        while current is not None:
            yield current
            current = getattr(current, "_lint_parent", None)

    def allows(self, lineno: int, rule_id: str) -> bool:
        """Whether a pragma on ``lineno`` (or just above) allows ``rule_id``."""
        for candidate in (lineno, lineno - 1):
            ids = self._pragmas.get(candidate)
            if ids and ("*" in ids or rule_id in ids):
                return True
        return False

    def finding(
        self,
        node: ast.AST,
        rule_id: str,
        message: str,
        severity: str = "error",
    ) -> Optional[Finding]:
        """A :class:`Finding` for ``node`` — ``None`` when pragma-allowed."""
        lineno = getattr(node, "lineno", 1)
        if self.allows(lineno, rule_id):
            return None
        return Finding(
            path=self.rel_path,
            line=lineno,
            col=getattr(node, "col_offset", 0),
            rule=rule_id,
            message=message,
            severity=severity,
        )


#: Uniform checker signature: one parsed file in, findings out.
RuleChecker = Callable[[LintContext], List[Finding]]


@dataclass(frozen=True)
class RuleSpec:
    """Everything a consumer needs to know about one registered rule."""

    rule_id: str
    checker: RuleChecker
    family: str
    summary: str
    include: Tuple[str, ...] = ("src/repro",)
    exclude: Tuple[str, ...] = ()
    severity: str = "error"

    def applies_to(self, rel_path: str) -> bool:
        rel_path = rel_path.replace(os.sep, "/")
        if not any(rel_path.startswith(prefix) for prefix in self.include):
            return False
        return not any(rel_path.startswith(prefix) for prefix in self.exclude)


#: The rule catalogue, in registration order.
RULES: Registry[RuleSpec] = Registry("rule")


def register_rule(
    rule_id: str,
    *,
    family: str,
    summary: str,
    include: Sequence[str] = ("src/repro",),
    exclude: Sequence[str] = (),
    severity: str = "error",
) -> Callable[[RuleChecker], RuleChecker]:
    """Decorator registering one lint rule (mirrors ``register_variant``).

    Registration order is preserved and defines enumeration order in the
    CLI rule listing and the JSON report's rule catalogue.
    """
    if severity not in SEVERITIES:
        raise ValueError(f"severity must be one of {SEVERITIES}")

    def decorator(checker: RuleChecker) -> RuleChecker:
        RULES.add(rule_id, RuleSpec(
            rule_id=rule_id,
            checker=checker,
            family=family,
            summary=summary,
            include=tuple(include),
            exclude=tuple(exclude),
            severity=severity,
        ))
        return checker

    return decorator


# --------------------------------------------------------------------- #
# Shared AST helpers (used by every rule family)
# --------------------------------------------------------------------- #


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an attribute chain rooted at a Name; ``None`` else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """Dotted name of a call's callee, when it is a plain name chain."""
    return dotted_name(node.func)


def keyword_names(node: ast.Call) -> Tuple[str, ...]:
    return tuple(kw.arg for kw in node.keywords if kw.arg is not None)


def get_keyword(node: ast.Call, name: str) -> Optional[ast.expr]:
    for kw in node.keywords:
        if kw.arg == name:
            return kw.value
    return None


def enclosing_function(
    ctx: LintContext, node: ast.AST
) -> Optional[ast.AST]:
    """The nearest enclosing function/async-function definition."""
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor
    return None


def in_loop(ctx: LintContext, node: ast.AST) -> bool:
    """Whether ``node`` sits lexically inside a for/while loop.

    Stops at function boundaries: a helper *defined* inside a loop body
    is not itself "in a loop".  Comprehension generators count — they
    allocate per iteration just like statement loops.
    """
    previous: ast.AST = node
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
        if isinstance(ancestor, (ast.For, ast.AsyncFor, ast.While)):
            return True
        if isinstance(
            ancestor, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ) and previous is not ancestor:
            return True
        previous = ancestor
    return False


# --------------------------------------------------------------------- #
# Drivers
# --------------------------------------------------------------------- #


@dataclass
class LintReport:
    """The result of one lint pass, JSON-ready."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    parse_errors: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings and not self.parse_errors

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tool": "repro-lint",
            "clean": self.clean,
            "files_scanned": self.files_scanned,
            "parse_errors": list(self.parse_errors),
            "findings": [f.to_dict() for f in self.findings],
            "rules": [
                {
                    "rule": spec.rule_id,
                    "family": spec.family,
                    "summary": spec.summary,
                    "severity": spec.severity,
                }
                for spec in RULES
            ],
        }


def lint_source(
    source: str,
    rel_path: str,
    rules: Optional[Sequence[RuleSpec]] = None,
    root: str = "",
) -> List[Finding]:
    """Lint one source string as if it lived at ``rel_path``.

    The unit-test entry point: the fixture corpus is linted under
    virtual paths (``src/repro/...``) so path-scoped rules engage
    without the fixtures living inside the package.
    """
    ctx = LintContext(rel_path, source, root=root)
    selected = list(rules) if rules is not None else list(RULES)
    findings: List[Finding] = []
    for spec in selected:
        if not spec.applies_to(ctx.rel_path):
            continue
        findings.extend(spec.checker(ctx))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_file(
    path: str,
    root: str,
    rules: Optional[Sequence[RuleSpec]] = None,
) -> List[Finding]:
    """Lint one file on disk, scoping rules by its repo-relative path."""
    rel_path = os.path.relpath(os.path.abspath(path), os.path.abspath(root))
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return lint_source(source, rel_path, rules=rules, root=root)


def iter_python_files(
    root: str, paths: Optional[Sequence[str]] = None
) -> Iterator[str]:
    """Yield the python files a tree pass covers, deterministically sorted."""
    targets = list(paths) if paths else [
        os.path.join(root, d) for d in DEFAULT_SCAN_ROOTS
    ]
    seen: List[str] = []
    for target in targets:
        if os.path.isfile(target):
            seen.append(os.path.abspath(target))
            continue
        for dirpath, dirnames, filenames in os.walk(target):
            dirnames[:] = sorted(
                d for d in dirnames
                if not any(frag in d for frag in SKIP_FRAGMENTS)
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    seen.append(os.path.abspath(os.path.join(dirpath, filename)))
    for path in sorted(dict.fromkeys(seen)):
        if not any(frag in path for frag in SKIP_FRAGMENTS):
            yield path


def lint_tree(
    root: str,
    paths: Optional[Sequence[str]] = None,
    rules: Optional[Sequence[RuleSpec]] = None,
) -> LintReport:
    """Lint the tree under ``root`` (or just ``paths``) with every rule."""
    report = LintReport()
    for path in iter_python_files(root, paths):
        report.files_scanned += 1
        try:
            report.findings.extend(lint_file(path, root, rules=rules))
        except SyntaxError as error:
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            report.parse_errors.append(f"{rel}: {error}")
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report


__all__ = [
    "DEFAULT_SCAN_ROOTS",
    "Finding",
    "LintContext",
    "LintReport",
    "RULES",
    "RuleChecker",
    "RuleSpec",
    "call_name",
    "dotted_name",
    "enclosing_function",
    "get_keyword",
    "in_loop",
    "iter_python_files",
    "keyword_names",
    "lint_file",
    "lint_source",
    "lint_tree",
    "register_rule",
]
