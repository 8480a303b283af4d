"""Tropical (min-plus) semiring algebra, dense and density-priced sparse.

The dense product is one exact function (:mod:`repro.semiring.kernels`):
``minplus(a, b)`` computes in float32, int64 or float64, whichever
:func:`resolve_kernel` finds exact for the inputs, and always returns the
float64 reference bits.
"""

from .minplus import (
    INF,
    RowSparse,
    filter_rows,
    filtered_hop_power,
    hop_power_row_sparse,
    k_smallest_in_rows,
    row_sparse_from_dense,
    rows_agree_on_k_smallest,
)
from .sparse import (
    SparseProductResult,
    density,
    embed,
    join_candidates,
    sparse_minplus,
    sparse_minplus_join,
)

# Imported *after* ``.minplus`` on purpose: loading the ``minplus``
# submodule binds the package attribute ``repro.semiring.minplus`` to the
# module object; re-importing from ``.kernels`` afterwards rebinds the
# public name to the dispatcher function (the historical API).
from .kernels import (
    MemoryBudgetError,
    minplus,
    minplus_gather,
    minplus_power,
    minplus_square,
    resolve_kernel,
)

__all__ = [
    "INF",
    "MemoryBudgetError",
    "RowSparse",
    "SparseProductResult",
    "density",
    "embed",
    "filter_rows",
    "filtered_hop_power",
    "hop_power_row_sparse",
    "join_candidates",
    "k_smallest_in_rows",
    "minplus",
    "minplus_gather",
    "minplus_power",
    "minplus_square",
    "resolve_kernel",
    "rows_agree_on_k_smallest",
    "row_sparse_from_dense",
    "sparse_minplus",
    "sparse_minplus_join",
]
