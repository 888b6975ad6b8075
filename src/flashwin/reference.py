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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericsError, ShapeError, _real
from .tensor import DenseTensor, _axes, _shaped, _tensors


@dataclass(frozen=True)
class AttnParams:
    """Multiplier applied to Q K^T before the softmax: a finite number > 0, as a Python float."""

    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "scale", _real("scale", self.scale, positive=True))


# Largest number of float64 elements in one stacked array of the finite-difference
# oracle (2**14 elements, 128 KiB): its (m, *x.shape) perturbed copies and their
# (m, L, L) scores, with L = x.shape[0]. It sets only how many probes share one
# call, never a result: each stacked problem runs the same per-item matmuls and
# row reductions. At 2**14 a call's few live arrays stay in cache and glibc
# malloc reuses their memory in place; from 2**15 on, an oracle run alone
# returned its freed stacks to the OS and faulted them back in each pass.
FD_STACK_ELEMS = 1 << 14
FD_STEP = 1e-5  # the central-difference step h of finite_diff_grad


def softmax_rows(S: DenseTensor) -> DenseTensor:
    """Softmax along the last axis, with the row max subtracted before exponentiation.

    Leading axes beyond the last two are a stack of independent matrices.
    """
    _tensors("softmax_rows", S=S)
    _axes("softmax_rows", (2, 3, 4), S=S)
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


def naive_forward(
    q: DenseTensor, k: DenseTensor, v: DenseTensor, params: AttnParams = AttnParams()
) -> tuple[DenseTensor, DenseTensor]:
    """Standard attention forward; returns (O, P), both read-only.

    Q, K and V are (..., L, C). Leading axes are a stack of independent
    problems and broadcast against each other, so the finite-difference
    oracle can stack one perturbed operand while the other two stay 2-D;
    each stacked result equals the 2-D call on that problem. The softmax
    overwrites the scaled scores, so one (..., L, L) array is allocated
    per call.
    """
    _tensors("naive_forward", q=q, k=k, v=v)
    _tensors("naive_forward", AttnParams, params=params)
    _axes("naive_forward", (2, 3, 4), q=q, k=k, v=v)
    first = lambda t: t.array[(0,) * (t.ndim - 2)]  # t's first (L, C) problem, a view
    _shaped("naive_forward", q.shape[-2:], k=first(k), v=first(v))
    shapes = q.shape, k.shape, v.shape
    try:  # the stacks broadcast: naive_forward's own rule
        np.broadcast_shapes(*shapes)
    except ValueError:
        raise ShapeError(f"naive_forward needs stacks that broadcast, got {shapes}") from None
    s = q.array @ k.array.swapaxes(-1, -2)
    s *= params.scale
    p = _softmax_rows(s, s)
    return DenseTensor._adopt(p @ v.array), DenseTensor._adopt(p)


def softmax_backward(P: DenseTensor, dP: DenseTensor) -> DenseTensor:
    """Pull dP back through the row softmax.

    dS[i][j] = P[i][j] * (dP[i][j] - sum_l P[i][l] * dP[i][l]); every row
    of the result sums to zero. Leading axes are a stack, as in
    :func:`softmax_rows`. It checks, then ``_softmax_grad`` computes.
    """
    _tensors("softmax_backward", P=P, dP=dP)
    _axes("softmax_backward", (2, 3, 4), P=P)
    _shaped("softmax_backward", P.shape, dP=dP)
    return DenseTensor._adopt(_softmax_grad(P.array, dP.array))


def _softmax_grad(p: np.ndarray, dp: np.ndarray) -> np.ndarray:  # on checked arrays
    return p * (dp - (p * dp).sum(axis=-1, keepdims=True))


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
    same operands. dV = P^T dO; dP = dO V^T; dS = ``_softmax_grad(P, dP)``;
    dQ = scale * dS K; dK = scale * dS^T Q. Q, K, V and dO must have one
    shape (..., L, C); leading axes are a stack of independent problems.
    Stacks do not broadcast here, since a broadcast operand would need
    its gradient summed over the stack.
    """
    _tensors("naive_backward", q=q, k=k, v=v, P=P, dO=dO)
    _tensors("naive_backward", AttnParams, params=params)
    _axes("naive_backward", (2, 3, 4), q=q)
    _shaped("naive_backward", q.shape, k=k, v=v, dO=dO)
    _shaped("naive_backward", q.shape[:-1] + (q.shape[-2],), P=P)
    dv = P.array.swapaxes(-1, -2) @ dO.array
    ds = _softmax_grad(P.array, dO.array @ v.array.swapaxes(-1, -2))  # from dP = dO V^T
    dq = ds @ k.array
    dq *= params.scale
    dk = ds.swapaxes(-1, -2) @ q.array
    dk *= params.scale
    return DenseTensor._adopt(dq), DenseTensor._adopt(dk), DenseTensor._adopt(dv)


def finite_diff_grad(
    f: Callable[[DenseTensor], np.ndarray], x: DenseTensor, h: float = FD_STEP
) -> DenseTensor:
    """Central-difference gradient of a scalar function, probed in stacks.

    ``f`` takes a stack of shape ``(m, *x.shape)`` and returns its ``m``
    values, one per stacked copy. Element ``i`` of the gradient is
    ``(f(x + h e_i) - f(x - h e_i)) / 2h``; one call of ``f`` evaluates the
    +h and -h copies of several elements, with ``m`` chosen so that no
    stacked array, including ``(m, L, L)`` attention scores with
    ``L = x.shape[0]``, exceeds :data:`FD_STACK_ELEMS` elements. ``x`` has
    1..3 axes, since the stack adds one; any other ``x`` is refused first.
    """
    _tensors("finite_diff_grad", x=x)
    _axes("finite_diff_grad", (1, 2, 3), x=x)
    h = _real("step", h, positive=True)
    base = x.array.reshape(-1)
    grad = np.empty_like(base)
    step = max(1, FD_STACK_ELEMS // (2 * max(base.size, x.shape[0] ** 2)))  # +h and -h copies
    for start in range(0, base.size, step):
        idx = np.arange(start, min(start + step, base.size))
        n = idx.size
        rows = np.arange(n)
        stack = np.tile(base, (2 * n, 1))
        stack[rows, idx] = base[idx] + h
        stack[rows + n, idx] = base[idx] - h
        values = np.asarray(f(DenseTensor._adopt(stack.reshape((2 * n,) + x.shape))))
        _shaped("finite_diff_grad", (2 * n,), **{"f's values": values})
        f_plus, f_minus = values[:n], values[n:]
        bad = ~(np.isfinite(f_plus) & np.isfinite(f_minus))
        if bad.any():
            raise NumericsError(f"non-finite evaluation at element {int(idx[bad.argmax()])}")
        grad[idx] = (f_plus - f_minus) / (2.0 * h)
    return DenseTensor._adopt(grad.reshape(x.shape))
