"""Tropical (min-plus) semiring algebra, dense and density-priced sparse.

The dense product is served by a registry of pluggable kernels
(:mod:`repro.semiring.kernels`): ``minplus(a, b, kernel=...)`` dispatches
to the reference ``broadcast`` kernel, the cache-``tiled`` kernel, the
``int-repack`` kernel, or a ``numba`` JIT kernel when numba is
installed.  ``use_kernel("tiled")`` / the ``REPRO_MINPLUS_KERNEL``
environment variable fix the choice process-wide.
"""

from .minplus import (
    INF,
    RowSparse,
    filter_rows,
    filtered_hop_power,
    hop_merge_row_sparse,
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
    AUTO,
    auto_kernel,
    KERNEL_ENV,
    KernelSpec,
    current_kernel_pin,
    get_kernel,
    iter_kernels,
    kernel_names,
    minplus,
    minplus_gather,
    minplus_power,
    minplus_square,
    register_kernel,
    resolve_kernel,
    use_kernel,
)

__all__ = [
    "AUTO",
    "auto_kernel",
    "current_kernel_pin",
    "INF",
    "KERNEL_ENV",
    "KernelSpec",
    "RowSparse",
    "SparseProductResult",
    "density",
    "embed",
    "filter_rows",
    "filtered_hop_power",
    "get_kernel",
    "hop_merge_row_sparse",
    "hop_power_row_sparse",
    "iter_kernels",
    "join_candidates",
    "k_smallest_in_rows",
    "kernel_names",
    "minplus",
    "minplus_gather",
    "minplus_power",
    "minplus_square",
    "register_kernel",
    "resolve_kernel",
    "rows_agree_on_k_smallest",
    "row_sparse_from_dense",
    "sparse_minplus",
    "sparse_minplus_join",
    "use_kernel",
]
