"""Feature-tiled window attention with a simulated two-level memory hierarchy.

The package provides a minimal dense-tensor substrate, window partition
and its inverse, an untiled attention reference with a finite-difference
gradient oracle, tiled forward/backward kernels instrumented for global
traffic and on-chip occupancy, and a CLI harness (``flashwin``).
"""

from .errors import (
    CapacityError,
    ContextError,
    FlashwinError,
    InvalidRangeError,
    NumericsError,
    OracleError,
    PartitionError,
    ShapeError,
)
from .flash import (
    FlashContext,
    TileConfig,
    batched_flash_forward,
    flash_backward,
    flash_forward,
    peak_sram_backward,
    peak_sram_forward,
)
from .memory import (
    DEFAULT_CAPACITY_BYTES,
    ScratchpadArena,
    TrafficReport,
    merge_reports,
)
from .reference import (
    AttnParams,
    finite_diff_grad,
    naive_backward,
    naive_forward,
    softmax_backward,
    softmax_rows,
)
from .tensor import DenseTensor, Rng, fill_uniform, matmul, max_abs_diff, zeros
from .windowing import WindowConfig, window_partition, window_reverse

__version__ = "0.1.0"

__all__ = [
    "AttnParams",
    "CapacityError",
    "ContextError",
    "DEFAULT_CAPACITY_BYTES",
    "DenseTensor",
    "FlashContext",
    "FlashwinError",
    "InvalidRangeError",
    "NumericsError",
    "OracleError",
    "PartitionError",
    "Rng",
    "ScratchpadArena",
    "ShapeError",
    "TileConfig",
    "TrafficReport",
    "WindowConfig",
    "batched_flash_forward",
    "fill_uniform",
    "finite_diff_grad",
    "flash_backward",
    "flash_forward",
    "matmul",
    "max_abs_diff",
    "merge_reports",
    "naive_backward",
    "naive_forward",
    "peak_sram_backward",
    "peak_sram_forward",
    "softmax_backward",
    "softmax_rows",
    "window_partition",
    "window_reverse",
    "zeros",
]
