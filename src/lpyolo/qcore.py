"""Quantized tensor primitives: integer lattices and their scales.

Every tensor in the integer inference path is a flat integer array plus a
:class:`QuantParams` describing its bit width, signedness, and scale (the
real value of one quantization step). Zero-point is always 0: weights are
symmetric and activations are non-negative, so an offset is never needed.

All real arithmetic is 64-bit, which keeps integer accumulators up to 2**53
exactly representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# In-memory type of every activation: each activation lattice is unsigned
# and at most 8 bits, so one byte holds any value.
ACT_DTYPE = np.uint8

__all__ = [
    "ACT_DTYPE",
    "QuantParams",
    "QuantTensor",
    "FloatTensor",
]


@dataclass(frozen=True)
class QuantParams:
    """Bit width (1..8), signedness, and positive real scale of a lattice."""

    bits: int
    signed: bool
    scale: float

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 8:
            raise ValueError(f"bit width {self.bits} outside 1..8")
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")

    @property
    def qmin(self) -> int:
        return -(1 << (self.bits - 1)) if self.signed else 0

    @property
    def qmax(self) -> int:
        return (1 << (self.bits - 1)) - 1 if self.signed else (1 << self.bits) - 1


@dataclass(frozen=True)
class QuantTensor:
    """Activation tensor in HWC row-major order with its lattice
    parameters, one ACT_DTYPE per element. Sub-byte packing is an
    on-the-wire concern, not an in-memory one."""

    shape: tuple[int, int, int]
    data: np.ndarray = field(repr=False)
    params: QuantParams

    def __post_init__(self) -> None:
        h, w, c = self.shape
        n = h * w * c
        if self.data.ndim != 1 or self.data.size != n:
            raise ValueError(f"data length {self.data.size} != {h}*{w}*{c}")
        if self.data.dtype != ACT_DTYPE:
            raise ValueError(f"expected {np.dtype(ACT_DTYPE)} data, got {self.data.dtype}")
        _check_range(self.data, self.params)

    @classmethod
    def from_grid(cls, grid: np.ndarray, params: QuantParams) -> "QuantTensor":
        """Tensor from an (h, w, c) grid of lattice values of any numeric
        dtype, range-checked before it is narrowed to ACT_DTYPE."""
        grid = np.asarray(grid)
        _check_range(grid, params)
        arr = np.ascontiguousarray(grid, dtype=ACT_DTYPE)
        return cls(shape=tuple(arr.shape), data=arr.reshape(-1), params=params)

    def grid(self) -> np.ndarray:
        """(h, w, c) view of the flat data."""
        return self.data.reshape(self.shape)


def _check_range(values: np.ndarray, params: QuantParams) -> None:
    lo, hi = values.min(initial=0), values.max(initial=0)
    if lo < params.qmin or hi > params.qmax:
        raise ValueError(
            f"values [{lo}, {hi}] exceed lattice range [{params.qmin}, {params.qmax}]"
        )


@dataclass(frozen=True)
class FloatTensor:
    """Finite float64 tensor in HWC row-major order (reference-path carrier)."""

    shape: tuple[int, int, int]
    data: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        h, w, c = self.shape
        if self.data.ndim != 1 or self.data.size != h * w * c:
            raise ValueError(f"data length {self.data.size} != {h}*{w}*{c}")
        if self.data.dtype != np.float64:
            raise ValueError(f"expected float64 data, got {self.data.dtype}")
        if not np.isfinite(self.data).all():
            raise ValueError("non-finite values in tensor")

    @classmethod
    def from_grid(cls, grid: np.ndarray) -> "FloatTensor":
        arr = np.ascontiguousarray(grid, dtype=np.float64)
        return cls(shape=tuple(arr.shape), data=arr.reshape(-1))

    def grid(self) -> np.ndarray:
        return self.data.reshape(self.shape)
