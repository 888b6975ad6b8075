"""Ground-truth attention forward/backward and a finite-difference oracle.

The forward pass is the plain three-step pipeline

    S = scale * Q K^T,   P = softmax_rows(S),   O = P V

with the softmax computed in place over the scores, so it returns O and
P; the backward pass is its analytic derivative and needs only P. Both
serve as the correctness yardstick for the tiled kernels, so nothing here
models memory traffic. Leading axes of the operands are a stack of
independent problems, which lets the finite-difference oracle evaluate
many perturbed copies in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidRangeError, NumericsError, ShapeError
from .tensor import DenseTensor


@dataclass(frozen=True)
class AttnParams:
    """Multiplier applied to Q K^T before the softmax (default 1.0)."""

    scale: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.scale) or self.scale <= 0:
            raise InvalidRangeError(f"scale must be finite and > 0, got {self.scale}")


# Largest number of float64 elements in one stacked array of the
# finite-difference oracle (2**17 elements, 1 MiB): the (m, *x.shape)
# perturbed copies, and the (m, L, L) scores when f runs the attention
# reference on them, with L = x.shape[0].
FD_STACK_ELEMS = 1 << 17


def softmax_rows(S: DenseTensor) -> DenseTensor:
    """Softmax along the last axis, with the row max subtracted before exponentiation.

    Leading axes beyond the last two are a stack of independent matrices.
    """
    if S.ndim < 2:
        raise ShapeError(f"softmax_rows needs at least 2 axes, got {S.shape}")
    return DenseTensor._adopt(_softmax_rows(S.array, np.empty_like(S.array)))


def _softmax_rows(src: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row softmax of ``src`` written to ``out``, which may be ``src`` itself.

    The reference and the tiled kernels share it, so both refuse
    non-finite scores with :class:`NumericsError` before writing ``out``.
    """
    if not np.isfinite(src).all():
        raise NumericsError("softmax input contains non-finite entries")
    np.subtract(src, src.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _check_qkv(q: DenseTensor, k: DenseTensor, v: DenseTensor) -> tuple[int, ...]:
    """Validate (..., L, C) operands; returns the broadcast shape of their stacks."""
    if min(q.ndim, k.ndim, v.ndim) < 2:
        raise ShapeError(f"Q/K/V need at least 2 axes, got {q.shape}, {k.shape}, {v.shape}")
    if not (q.shape[-2:] == k.shape[-2:] == v.shape[-2:]):
        raise ShapeError(f"Q/K/V shapes differ: {q.shape}, {k.shape}, {v.shape}")
    try:
        return np.broadcast_shapes(q.shape, k.shape, v.shape)
    except ValueError:
        raise ShapeError(
            f"Q/K/V stack axes do not broadcast: {q.shape}, {k.shape}, {v.shape}"
        ) from None


def naive_forward(
    q: DenseTensor, k: DenseTensor, v: DenseTensor, params: AttnParams = AttnParams()
) -> tuple[DenseTensor, DenseTensor]:
    """Standard attention forward; returns (O, P), both read-only.

    Q, K and V are (..., L, C). Leading axes are a stack of independent
    problems and broadcast against each other, so one perturbed operand
    can be stacked while the other two stay 2-D; each stacked result
    equals the 2-D call on that problem. The softmax overwrites the
    scaled scores, so one (..., L, L) array is allocated per call.
    """
    _check_qkv(q, k, v)
    s = q.array @ k.array.swapaxes(-1, -2)
    s *= params.scale
    p = _softmax_rows(s, s)
    return DenseTensor._adopt(p @ v.array), DenseTensor._adopt(p)


def softmax_backward(P: DenseTensor, dP: DenseTensor) -> DenseTensor:
    """Pull dP back through the row softmax.

    dS[i][j] = P[i][j] * (dP[i][j] - sum_l P[i][l] * dP[i][l]); every row
    of the result sums to zero. Leading axes are a stack, as in
    :func:`softmax_rows`.
    """
    if P.ndim < 2 or P.shape != dP.shape:
        raise ShapeError(f"shape mismatch: P {P.shape} vs dP {dP.shape}")
    p, dp = P.array, dP.array
    row_dot = (p * dp).sum(axis=-1, keepdims=True)
    return DenseTensor._adopt(p * (dp - row_dot))


def naive_backward(
    q: DenseTensor,
    k: DenseTensor,
    v: DenseTensor,
    P: DenseTensor,
    dO: DenseTensor,
    params: AttnParams = AttnParams(),
) -> tuple[DenseTensor, DenseTensor, DenseTensor]:
    """Analytic gradients (dQ, dK, dV) of standard attention.

    ``P`` is the softmax output returned by :func:`naive_forward` on the
    same operands. dV = P^T dO; dP = dO V^T; dS via :func:`softmax_backward`;
    dQ = scale * dS K; dK = scale * dS^T Q. Q, K, V and dO must have one
    shape (..., L, C); leading axes are a stack of independent problems.
    Stacks do not broadcast here, since a broadcast operand would need
    its gradient summed over the stack.
    """
    shape = _check_qkv(q, k, v)
    if not (q.shape == k.shape == v.shape):
        raise ShapeError(
            f"naive_backward needs Q/K/V of one shape, got {q.shape}, {k.shape}, {v.shape}"
        )
    if dO.shape != shape:
        raise ShapeError(f"dO shape {dO.shape} does not match Q/K/V shape {shape}")
    if P.shape != shape[:-1] + (shape[-2],):
        raise ShapeError(f"P shape {P.shape} inconsistent with Q/K/V shape {shape}")
    p = P.array
    dv = p.swapaxes(-1, -2) @ dO.array
    dp = dO.array @ v.array.swapaxes(-1, -2)
    ds = softmax_backward(P, DenseTensor._adopt(dp)).array
    dq = ds @ k.array
    dq *= params.scale
    dk = ds.swapaxes(-1, -2) @ q.array
    dk *= params.scale
    return DenseTensor._adopt(dq), DenseTensor._adopt(dk), DenseTensor._adopt(dv)


def finite_diff_grad(
    f: Callable[[DenseTensor], np.ndarray], x: DenseTensor, h: float = 1e-5
) -> DenseTensor:
    """Central-difference gradient of a scalar function, probed in stacks.

    ``f`` takes a stack of shape ``(m, *x.shape)`` and returns its ``m``
    values, one per stacked copy. Element ``i`` of the gradient is
    ``(f(x + h e_i) - f(x - h e_i)) / 2h``; one call of ``f`` evaluates the
    +h and -h copies of several elements, with ``m`` chosen so that no
    stacked array, including ``(m, L, L)`` attention scores with
    ``L = x.shape[0]``, exceeds :data:`FD_STACK_ELEMS` elements. ``x``
    may have at most 3 axes, since the stack adds one.
    """
    if not (h > 0 and math.isfinite(h)):
        raise InvalidRangeError(f"step must be finite and > 0, got {h}")
    base = x.array.reshape(-1)
    grad = np.empty_like(base)
    per_copy = max(base.size, x.shape[0] ** 2)
    step = max(1, FD_STACK_ELEMS // (2 * per_copy))
    for start in range(0, base.size, step):
        idx = np.arange(start, min(start + step, base.size))
        n = idx.size
        rows = np.arange(n)
        stack = np.tile(base, (2 * n, 1))
        stack[rows, idx] = base[idx] + h
        stack[rows + n, idx] = base[idx] - h
        values = np.asarray(f(DenseTensor._adopt(stack.reshape((2 * n,) + x.shape))))
        if values.shape != (2 * n,):
            raise ShapeError(f"f returned shape {values.shape} for a stack of {2 * n}")
        f_plus, f_minus = values[:n], values[n:]
        bad = ~(np.isfinite(f_plus) & np.isfinite(f_minus))
        if bad.any():
            raise NumericsError(f"non-finite evaluation at element {int(idx[bad.argmax()])}")
        grad[idx] = (f_plus - f_minus) / (2.0 * h)
    return DenseTensor._adopt(grad.reshape(x.shape))
