"""Window partition of image tensors and its inverse.

An H x W x C image is rearranged into N = HW/k^2 non-overlapping windows
of L = k^2 pixels each. Window tiles are enumerated row-major over
(window-row, window-column) and pixels row-major within each window, so
the rearrangement is a fixed bijection.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ShapeError
from .tensor import DenseTensor


@dataclass(frozen=True)
class WindowConfig:
    """Image/window geometry: H x W pixels, C channels, k x k windows."""

    H: int
    W: int
    C: int
    k: int

    def __post_init__(self):
        for name in ("H", "W", "C", "k"):
            if getattr(self, name) < 1:
                raise ShapeError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.H % self.k or self.W % self.k:
            raise ShapeError(f"window size {self.k} must divide image {self.H}x{self.W}")

    @property
    def num_windows(self) -> int:
        return (self.H * self.W) // (self.k * self.k)

    @property
    def seq_len(self) -> int:
        return self.k * self.k


def window_partition(x: DenseTensor, cfg: WindowConfig) -> DenseTensor:
    """Rearrange an H x W x C image into an N x L x C window stack."""
    if x.shape != (cfg.H, cfg.W, cfg.C):
        raise ShapeError(f"expected image shape {(cfg.H, cfg.W, cfg.C)}, got {x.shape}")
    k = cfg.k
    windows = (
        x.array.reshape(cfg.H // k, k, cfg.W // k, k, cfg.C)
        .transpose(0, 2, 1, 3, 4)
        .reshape(cfg.num_windows, cfg.seq_len, cfg.C)
    )
    return DenseTensor._adopt(windows)


def window_reverse(y: DenseTensor, cfg: WindowConfig) -> DenseTensor:
    """Invert :func:`window_partition`, restoring the H x W x C image."""
    if y.shape != (cfg.num_windows, cfg.seq_len, cfg.C):
        raise ShapeError(
            f"expected window stack shape {(cfg.num_windows, cfg.seq_len, cfg.C)}, "
            f"got {y.shape}"
        )
    k = cfg.k
    image = (
        y.array.reshape(cfg.H // k, cfg.W // k, k, k, cfg.C)
        .transpose(0, 2, 1, 3, 4)
        .reshape(cfg.H, cfg.W, cfg.C)
    )
    return DenseTensor._adopt(image)
