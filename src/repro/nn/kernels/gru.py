"""Fused packed-gate GRU recurrence (paper Eq. 8–11) as one autograd node.

The composed reference (:class:`repro.nn.rnn.GRU` stepping
:class:`repro.nn.rnn.GRUCell`) builds ~30 autograd nodes per timestep —
six small matmuls plus the gate arithmetic — so the recurrence is
dominated by Python per-op dispatch, not arithmetic.
:func:`fused_gru_sequence` runs the whole masked recurrence as one
node: the input projection for **all** timesteps is hoisted into a
single ``(B·T, D) @ (D, 3H)`` matmul, each step runs the two gate
projections as one ``(B, H) @ (H, 2H)`` matmul (the candidate's hidden
projection stays separate because Eq. 10 applies the reset gate
*before* the matmul, ``U (r ⊙ h)``), and a hand-written
backward-through-time replaces the per-step graph.

Gate packing order is ``[r | z | c]`` along the ``3H`` axis.  Forward
arithmetic replicates the reference op-for-op (same numerically-stable
sigmoid, same accumulation order), so fused and composed paths agree
bitwise on hosts whose BLAS keeps the K-loop accumulation order
independent of the output tile — verified by ``tests/test_kernels.py``.

The backward replays the composed graph's float operations *in the
engine's dispatch order* — per-gate parameter matmuls step by step,
gradient sums grouped exactly as the engine's accumulator groups them —
so every ``.grad`` is bit-for-bit identical to the unfused run.  That
holds also when one module runs several times in one backward
(Algorithm 3's anchor, positive and negative): the composed loop reads
its weights through one :meth:`~repro.nn.rnn.GRUCell.packed_gates` node
per call, as this kernel does, so each call's parameter gradient
reaches the per-gate leaves as one sum on both paths.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..ops import defop, numel
from ..tensor import Tensor, apply

__all__ = ["fused_gru_sequence"]


def _sigmoid(a: np.ndarray) -> np.ndarray:
    # Replicates Tensor.sigmoid exactly: exp only sees non-positive
    # arguments.  In-place ufuncs produce the same bits as the
    # allocating forms; ``a`` is consumed.
    positive = a >= 0
    np.abs(a, out=a)
    np.negative(a, out=a)
    np.exp(a, out=a)                      # exp(-|a|)
    denom = 1.0 + a
    top = 1.0 / denom
    a /= denom
    return np.where(positive, top, a)


def _step_forward(gx: np.ndarray, h: np.ndarray, ud: np.ndarray,
                  bd: np.ndarray, hidden: int
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                             np.ndarray, np.ndarray]:
    """One GRU step from precomputed input projections ``gx = x @ w``.

    Returns ``(r, z, c, rh, h_new)``; bitwise-identical to the composed
    per-gate arithmetic (merged r/z sigmoid is elementwise, merged
    projections were verified bitwise against per-gate matmuls).
    """
    two_h = 2 * hidden
    pre = h @ ud[:, :two_h]
    pre += gx[:, :two_h]
    pre += bd[:two_h]
    rz = _sigmoid(pre)
    r = rz[:, :hidden]
    z = rz[:, hidden:]
    rh = r * h
    prec = rh @ ud[:, two_h:]
    prec += gx[:, two_h:]
    prec += bd[two_h:]
    c = np.tanh(prec, out=prec)
    h_new = (1.0 - z) * h
    h_new += z * c
    return r, z, c, rh, h_new


def _gru_forward(xd, wd, ud, bd, mask, reverse):
    batch, steps, d_in = xd.shape
    hidden = ud.shape[0]
    if wd.shape != (d_in, 3 * hidden) or ud.shape[1] != 3 * hidden \
            or bd.shape != (3 * hidden,):
        raise ValueError(
            f"packed GRU weights must be (D,3H)/(H,3H)/(3H,) for H={hidden}; "
            f"got w={wd.shape}, u={ud.shape}, b={bd.shape}"
        )
    mask_all = bool(mask.all())

    # Hoist the input projection for every timestep into one matmul.
    gx_all = (xd.reshape(batch * steps, d_in) @ wd).reshape(
        batch, steps, 3 * hidden)
    order = list(range(steps - 1, -1, -1)) if reverse else list(range(steps))

    h = np.zeros((batch, hidden), dtype=xd.dtype)
    out = np.empty((batch, steps, hidden), dtype=xd.dtype)
    hs, rs, zs, cs, rhs = [], [], [], [], []
    for t in order:
        hs.append(h)
        r, z, c, rh, h_new = _step_forward(gx_all[:, t, :], h, ud, bd, hidden)
        if mask_all:
            h = h_new
        else:
            h = np.where(mask[:, t:t + 1], h_new, h)
        out[:, t, :] = h
        rs.append(r)
        zs.append(z)
        cs.append(c)
        rhs.append(rh)
    return out, (order, hs, rs, zs, cs, rhs)


def _gru_vjp(g, out, saved, xd, wd, ud, bd, mask, reverse):
    # Replay of the composed loop's backward in the engine's dispatch
    # order.  Per step the hidden-state gradient of h_{t-1} accumulates
    # as
    #   take(g, t-1) + where-passthrough + g_new*(1-z)
    #   + dpre_z @ u_z.T + d(r*h) * r + dpre_r @ u_r.T
    # in exactly that sequence, and parameter gradients are per-gate
    # matmuls accumulated step by step in reverse execution order (flat
    # batched matmuls would change the BLAS summation order).
    order, hs, rs, zs, cs, rhs = saved
    hidden = ud.shape[0]
    two_h = 2 * hidden
    w_r, w_z, w_c = wd[:, :hidden], wd[:, hidden:two_h], wd[:, two_h:]
    u_r, u_z, u_c = ud[:, :hidden], ud[:, hidden:two_h], ud[:, two_h:]
    dx = np.empty_like(xd)
    dw = np.zeros_like(wd)
    du = np.zeros_like(ud)
    db = np.zeros_like(bd)
    hg = None
    for i in range(len(order) - 1, -1, -1):
        t = order[i]
        if hg is None:
            hg = g[:, t, :]
        cond = mask[:, t:t + 1]
        ghn = np.where(cond, hg, 0.0)
        pass_g = np.where(cond, 0.0, hg)
        h_prev, r, z, c, rh = hs[i], rs[i], zs[i], cs[i], rhs[i]
        x_t = xd[:, t, :]
        s1 = 1.0 - z
        gz = np.negative(ghn * h_prev)
        gz += ghn * c
        gc = ghn * z
        gz *= z
        gz *= s1                    # dpre_z
        db[hidden:two_h] += gz.sum(axis=0)
        dx_t = gz @ w_z.T
        dw[:, hidden:two_h] += x_t.T @ gz
        if i > 0:
            hgn = g[:, order[i - 1], :] + pass_g
            hgn += ghn * s1
            hgn += gz @ u_z.T
        gc *= 1.0 - c ** 2          # dpre_c
        db[two_h:] += gc.sum(axis=0)
        dx_t += gc @ w_c.T
        dw[:, two_h:] += x_t.T @ gc
        grh = gc @ u_c.T
        du[:, two_h:] += rh.T @ gc
        if i > 0:
            hgn += grh * r
        gr = grh * h_prev
        gr *= r
        gr *= 1.0 - r               # dpre_r
        db[:hidden] += gr.sum(axis=0)
        dx_t += gr @ w_r.T
        dw[:, :hidden] += x_t.T @ gr
        if i > 0:
            hgn += gr @ u_r.T
        du[:, :hidden] += h_prev.T @ gr
        du[:, hidden:two_h] += h_prev.T @ gz
        dx[:, t, :] = dx_t
        hg = hgn if i > 0 else None
    return dx, dw, du, db


def _gru_flops(operands, out) -> int:
    # Operands lead with x: (B, T, D); out is (B, T, H).  Per output
    # element: three matmul contractions (x-projection to 3H,
    # h-projection to 2H, candidate (r*h) projection to H -> 6D + 6H
    # multiply-adds) plus two sigmoids, one tanh and the gate/blend
    # arithmetic (~22 FLOPs).
    if not operands or not operands[0] or not out:
        return 0
    return numel(out) * (6 * int(operands[0][-1]) + 6 * int(out[-1]) + 22)


# The backward reads x (for dW) and both weight matrices; b only
# lends its shape to db.
GRU_SEQUENCE = defop("fused_gru_sequence", _gru_forward, _gru_vjp,
                     _gru_flops, saves=True, reads=(0, 1, 2))


def fused_gru_sequence(x: Tensor, mask: Optional[np.ndarray], w: Tensor,
                       u: Tensor, b: Tensor, reverse: bool = False) -> Tensor:
    """A whole masked GRU recurrence as a single autograd node.

    ``x``: ``(B, T, D_in)``; ``mask``: boolean ``(B, T)`` (``None`` means
    all valid); packed ``w``/``u``/``b`` in ``[r | z | c]`` order.
    Returns the per-timestep hidden states ``(B, T, H)``, matching
    :class:`repro.nn.rnn.GRU` bitwise (initial hidden state is zeros;
    padded positions carry the previous state through).
    """
    if mask is None:
        mask = np.ones(x.shape[:2], dtype=bool)
    return apply(GRU_SEQUENCE, x, w, u, b,
                 mask=np.asarray(mask, dtype=bool), reverse=reverse)
