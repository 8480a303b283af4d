"""Project-invariant static analysis plane (``repro lint``).

An AST-based linter (stdlib ``ast`` only) enforcing the invariants the
repo's correctness rests on: seeded RNG draws (determinism), no
blocking under locks and no unlocked shared-state mutation
(concurrency), strictly JSON-safe snapshots (JSON-safety), ``out=``
buffer threading on hot paths (allocation hygiene), and complete
registry/benchmark metadata (contracts).

Rule families register themselves on import, mirroring
:mod:`repro.core.registry`: importing this package populates the rule
catalogue that :func:`lint_tree`, the CLI, and the CI gate enumerate.

Suppress a reviewed exception with ``# lint: allow[rule-id]`` on the
flagged line or the line above (comma-separate several ids; ``*``
allows all rules).  See DESIGN.md section 13 for the rule catalogue
and how to add a rule.
"""

from .framework import (
    DEFAULT_SCAN_ROOTS,
    Finding,
    LintContext,
    LintReport,
    RuleSpec,
    get_rule,
    iter_python_files,
    iter_rules,
    lint_file,
    lint_source,
    lint_tree,
    register_rule,
    rule_names,
)
from .reporting import (
    render_findings,
    render_report,
    render_rule_listing,
    write_json_report,
)

# Importing the rule families populates the registry (the same
# import-time self-registration pattern as repro.chaos.scenarios).
from . import allocation  # noqa: F401  (registers alloc-* rules)
from . import concurrency  # noqa: F401  (registers conc-* rules)
from . import contracts  # noqa: F401  (registers reg-* rules)
from . import determinism  # noqa: F401  (registers det-* rules)
from . import jsonsafety  # noqa: F401  (registers json-* rules)

__all__ = [
    "DEFAULT_SCAN_ROOTS",
    "Finding",
    "LintContext",
    "LintReport",
    "RuleSpec",
    "get_rule",
    "iter_python_files",
    "iter_rules",
    "lint_file",
    "lint_source",
    "lint_tree",
    "register_rule",
    "render_findings",
    "render_report",
    "render_rule_listing",
    "rule_names",
    "write_json_report",
]
