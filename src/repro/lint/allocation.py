"""Allocation-hygiene rules: hot paths must not allocate (n, n) per step.

PR 9 threaded ``out=`` destination buffers through the dense min-plus
dispatcher and the next-hop construction exactly so repeated products
stop allocating an ``(n, n)`` temporary per squaring.  These rules keep
that discipline from regressing:

* ``alloc-no-out-in-loop`` — a call to ``minplus``/``minplus_square``/
  ``next_hop_table`` lexically inside a loop that does not pass the
  available ``out=`` buffer allocates a fresh dense result every
  iteration; ping-pong two preallocated buffers instead
  (``minplus_power`` is the reference implementation).
* ``alloc-dense-temp-in-loop`` — ``np.full``/``np.zeros``/``np.empty``/
  ``np.ones`` of a square ``(n, n)`` shape inside a loop is the same
  regression in literal form.

* ``alloc-transpose-minimum`` — ``np.minimum(x, x.T)`` (or
  ``np.maximum``) reads ``x`` through a strided transpose and allocates
  a second ``(n, n)`` array; call ``symmetrize_min_inplace`` (or
  ``symmetrize_min`` when the input must survive) from
  ``repro.graphs.validation``, the one module that may spell it out.

All three rules are scoped to ``src/repro`` — benchmarks and tests
allocate freely on purpose.
"""

from __future__ import annotations

import ast
from typing import List

from .framework import (
    Finding,
    LintContext,
    call_name,
    get_keyword,
    in_loop,
    register_rule,
)

#: Callables that accept a destination buffer, and the kwarg to pass.
_OUT_CAPABLE = {
    "minplus": "out",
    "minplus_square": "out",
    "next_hop_table": "out",
}

#: numpy allocators the dense-temp rule watches.
_ALLOCATORS = {"np.full", "np.zeros", "np.empty", "np.ones",
               "numpy.full", "numpy.zeros", "numpy.empty", "numpy.ones"}


@register_rule(
    "alloc-no-out-in-loop",
    family="allocation",
    summary="looped minplus/next_hop_table calls must thread out= buffers",
)
def check_no_out_in_loop(ctx: LintContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        if name is None:
            continue
        base = name.rsplit(".", 1)[-1]
        out_kwarg = _OUT_CAPABLE.get(base)
        if out_kwarg is None:
            continue
        if not in_loop(ctx, node):
            continue
        if get_keyword(node, out_kwarg) is not None:
            continue
        finding = ctx.finding(
            node,
            "alloc-no-out-in-loop",
            f"{base}() inside a loop without {out_kwarg}= allocates a dense "
            "result every iteration; preallocate and ping-pong buffers "
            "(see minplus_power)",
        )
        if finding:
            findings.append(finding)
    return findings


def _square_shape(node: ast.expr) -> bool:
    """Whether a shape argument is a 2-tuple of identical expressions."""
    if not isinstance(node, (ast.Tuple, ast.List)) or len(node.elts) != 2:
        return False
    first, second = node.elts
    return ast.dump(first) == ast.dump(second)


@register_rule(
    "alloc-dense-temp-in-loop",
    family="allocation",
    summary="square (n, n) numpy allocations inside loops",
)
def check_dense_temp_in_loop(ctx: LintContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        if name not in _ALLOCATORS:
            continue
        if not node.args or not _square_shape(node.args[0]):
            continue
        if not in_loop(ctx, node):
            continue
        finding = ctx.finding(
            node,
            "alloc-dense-temp-in-loop",
            f"{name}((n, n)) inside a loop allocates a dense square "
            "temporary every iteration; hoist the buffer out of the loop",
        )
        if finding:
            findings.append(finding)
    return findings


#: Entrywise extrema the transpose rule watches.
_EXTREMA = {"np.minimum", "np.maximum", "numpy.minimum", "numpy.maximum"}


def _is_transpose_of(candidate: ast.expr, base: ast.expr) -> bool:
    """Whether ``candidate`` is ``base.T``."""
    return (
        isinstance(candidate, ast.Attribute)
        and candidate.attr == "T"
        and ast.dump(candidate.value) == ast.dump(base)
    )


@register_rule(
    "alloc-transpose-minimum",
    family="allocation",
    summary="np.minimum/np.maximum of a matrix and its own transpose",
    exclude=("src/repro/graphs/validation.py",),
)
def check_transpose_minimum(ctx: LintContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        if name not in _EXTREMA or len(node.args) < 2:
            continue
        first, second = node.args[:2]
        if not (_is_transpose_of(second, first) or _is_transpose_of(first, second)):
            continue
        finding = ctx.finding(
            node,
            "alloc-transpose-minimum",
            f"{name}(x, x.T) reads x through a strided transpose and "
            "allocates a second (n, n) array; use symmetrize_min_inplace "
            "(or symmetrize_min) from repro.graphs.validation",
        )
        if finding:
            findings.append(finding)
    return findings
