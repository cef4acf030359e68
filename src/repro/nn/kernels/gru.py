"""Fused packed-gate GRU kernels (paper Eq. 8–11) as single autograd nodes.

The composed reference (:class:`repro.nn.rnn.GRUCell`) builds ~30 autograd
nodes per timestep — six small matmuls plus the gate arithmetic — so the
recurrence is dominated by Python per-op dispatch, not arithmetic.  The
kernels here collapse that subgraph:

* :func:`fused_gru_cell` — one step as one node.  The three input
  projections run as a single ``(B, D) @ (D, 3H)`` matmul and the two
  gate projections as one ``(B, H) @ (H, 2H)`` matmul; the candidate's
  hidden projection stays separate because Eq. 10 applies the reset gate
  *before* the matmul (``U (r ⊙ h)``), which cannot be folded into a
  pre-gate product.
* :func:`fused_gru_sequence` — the whole masked recurrence (the loop
  body of :class:`repro.nn.rnn.GRU`) as one node, with the input
  projection for **all** timesteps hoisted into a single
  ``(B·T, D) @ (D, 3H)`` matmul and a hand-written
  backward-through-time.

Gate packing order is ``[r | z | c]`` along the ``3H`` axis.  Forward
arithmetic replicates the reference op-for-op (same numerically-stable
sigmoid, same accumulation order), so fused and composed paths agree
bitwise on hosts whose BLAS keeps the K-loop accumulation order
independent of the output tile — verified by ``tests/test_kernels.py``.

Backward modes (see :mod:`.registry`):

* ``"exact"`` replays the composed graph's float operations *in the
  engine's dispatch order* — per-gate parameter matmuls step by step,
  gradient sums grouped exactly as the engine's accumulator groups them
  — so every ``.grad`` is bit-for-bit identical to the unfused run.
  That holds also when one module runs several times in one backward
  (Algorithm 3's anchor, positive and negative): the composed loop
  reads its weights through one :meth:`~repro.nn.rnn.GRUCell.packed_gates`
  node per call, as these kernels do, so each call's parameter gradient
  reaches the per-gate leaves as one sum on both paths.
  (For :func:`fused_gru_cell` the guarantee is per-call: a fused cell
  inside a *composed* GRU loop groups the hidden-state gradient sum
  differently than the fully-composed loop, so use the sequence kernel
  for end-to-end bitwise runs.)
* ``"fast"`` batches the parameter gradients into three flat matmuls
  over all timesteps and merges the r/z projections — fewer, larger
  BLAS calls; equal to the reference only to float64 rounding.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..tensor import Tensor
from .registry import kernel_mode, register_kernel

__all__ = ["fused_gru_cell", "fused_gru_sequence"]


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


def _check_packed(x: Tensor, h_prev: Tensor, w: Tensor, u: Tensor,
                  b: Tensor) -> int:
    hidden = h_prev.shape[-1]
    if w.shape[1] != 3 * hidden or u.shape != (hidden, 3 * hidden) \
            or b.shape != (3 * hidden,):
        raise ValueError(
            f"packed GRU weights must be (D,3H)/(H,3H)/(3H,) for H={hidden}; "
            f"got w={w.shape}, u={u.shape}, b={b.shape}"
        )
    if x.shape[-1] != w.shape[0]:
        raise ValueError(
            f"input width {x.shape[-1]} does not match w rows {w.shape[0]}"
        )
    return hidden


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


@register_kernel("gru_cell")
def fused_gru_cell(x: Tensor, h_prev: Tensor, w: Tensor, u: Tensor,
                   b: Tensor) -> Tensor:
    """One GRU step (Eq. 8–11) as a single autograd node.

    ``x``: ``(B, D_in)``; ``h_prev``: ``(B, H)``; packed ``w``/``u``/``b``
    in ``[r | z | c]`` gate order.
    """
    hidden = _check_packed(x, h_prev, w, u, b)
    exact = kernel_mode() == "exact"
    xd, hd, wd, ud, bd = x.data, h_prev.data, w.data, u.data, b.data
    gx = xd @ wd
    r, z, c, rh, h_new = _step_forward(gx, hd, ud, bd, hidden)
    two_h = 2 * hidden
    w_r, w_z, w_c = wd[:, :hidden], wd[:, hidden:two_h], wd[:, two_h:]
    u_r, u_z, u_c = ud[:, :hidden], ud[:, hidden:two_h], ud[:, two_h:]

    if exact:

        def backward(g):
            # Dispatch-order replay of the composed single step (see the
            # sequence kernel for the order derivation).
            s1 = 1.0 - z
            gz = np.negative(g * hd)
            gz += g * c
            gc = g * z
            gz *= z
            gz *= s1                       # gz is now dpre_z
            dx = gz @ w_z.T
            dh = g * s1
            dh += gz @ u_z.T
            gc *= 1.0 - c ** 2             # dpre_c
            dx += gc @ w_c.T
            grh = gc @ u_c.T
            dh += grh * r
            gr = grh * hd
            gr *= r
            gr *= 1.0 - r                  # dpre_r
            dx += gr @ w_r.T
            dh += gr @ u_r.T
            dw = np.empty_like(wd)
            dw[:, :hidden] = xd.T @ gr
            dw[:, hidden:two_h] = xd.T @ gz
            dw[:, two_h:] = xd.T @ gc
            du = np.empty_like(ud)
            du[:, :hidden] = hd.T @ gr
            du[:, hidden:two_h] = hd.T @ gz
            du[:, two_h:] = rh.T @ gc
            db = np.empty_like(bd)
            db[:hidden] = gr.sum(axis=0)
            db[hidden:two_h] = gz.sum(axis=0)
            db[two_h:] = gc.sum(axis=0)
            return dx, dh, dw, du, db
    else:

        def backward(g):
            d_gates = np.empty((g.shape[0], 3 * hidden))
            dpre_r = d_gates[:, :hidden]
            dpre_z = d_gates[:, hidden:two_h]
            dpre_c = d_gates[:, two_h:]
            np.multiply(g, c - hd, out=dpre_z)
            dpre_z *= z
            dpre_z *= 1.0 - z
            np.multiply(g, z, out=dpre_c)
            dpre_c *= 1.0 - c ** 2
            grh = dpre_c @ u_c.T
            np.multiply(grh, hd, out=dpre_r)
            dpre_r *= r
            dpre_r *= 1.0 - r
            dh = g * (1.0 - z)
            grh *= r
            dh += grh
            dh += d_gates[:, :two_h] @ ud[:, :two_h].T
            dx = d_gates @ wd.T
            dw = xd.T @ d_gates
            du = np.empty_like(ud)
            du[:, :two_h] = hd.T @ d_gates[:, :two_h]
            du[:, two_h:] = rh.T @ dpre_c
            db = d_gates.sum(axis=0)
            return dx, dh, dw, du, db

    return x._make_child(h_new, (x, h_prev, w, u, b), backward)


@register_kernel("gru_sequence")
def fused_gru_sequence(x: Tensor, mask: Optional[np.ndarray], w: Tensor,
                       u: Tensor, b: Tensor, reverse: bool = False) -> Tensor:
    """A whole masked GRU recurrence as a single autograd node.

    ``x``: ``(B, T, D_in)``; ``mask``: boolean ``(B, T)`` (``None`` means
    all valid); packed ``w``/``u``/``b`` in ``[r | z | c]`` order.
    Returns the per-timestep hidden states ``(B, T, H)``, matching
    :class:`repro.nn.rnn.GRU` bitwise (initial hidden state is zeros;
    padded positions carry the previous state through).
    """
    batch, steps, d_in = x.shape
    hidden = u.shape[0]
    if w.shape != (d_in, 3 * hidden) or u.shape[1] != 3 * hidden \
            or b.shape != (3 * hidden,):
        raise ValueError(
            f"packed GRU weights must be (D,3H)/(H,3H)/(3H,) for H={hidden}; "
            f"got w={w.shape}, u={u.shape}, b={b.shape}"
        )
    exact = kernel_mode() == "exact"
    xd, wd, ud, bd = x.data, w.data, u.data, b.data
    if mask is None:
        mask = np.ones((batch, steps), dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    mask_all = bool(mask.all())
    two_h = 2 * hidden

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

    w_r, w_z, w_c = wd[:, :hidden], wd[:, hidden:two_h], wd[:, two_h:]
    u_r, u_z, u_c = ud[:, :hidden], ud[:, hidden:two_h], ud[:, two_h:]

    if exact:

        def backward(g):
            # Replay of the composed loop's backward in the engine's
            # dispatch order.  Per step the hidden-state gradient of
            # h_{t-1} accumulates as
            #   take(g, t-1) + where-passthrough + g_new*(1-z)
            #   + dpre_z @ u_z.T + d(r*h) * r + dpre_r @ u_r.T
            # in exactly that sequence, and parameter gradients are
            # per-gate matmuls accumulated step by step in reverse
            # execution order (flat batched matmuls would change the
            # BLAS summation order).
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
    else:

        def backward(g):
            # Closed-form BPTT: gate gradients are staged into one
            # (B, T, 3H) buffer so dx / dw / db collapse into three flat
            # matmuls over all timesteps; the r/z hidden projections run
            # merged.  Only du's candidate slice needs the per-step loop.
            d_gates = np.empty((batch, steps, 3 * hidden))
            du = np.zeros_like(ud)
            u_rz_t = ud[:, :two_h].T
            carry = None
            for i in range(len(order) - 1, -1, -1):
                t = order[i]
                if carry is None:
                    hg = g[:, t, :]
                else:
                    hg = np.add(g[:, t, :], carry, out=carry)
                if mask_all:
                    ghn, pass_g = hg, None
                else:
                    cond = mask[:, t:t + 1]
                    ghn = np.where(cond, hg, 0.0)
                    pass_g = np.where(cond, 0.0, hg)
                h_prev, r, z, c, rh = hs[i], rs[i], zs[i], cs[i], rhs[i]
                slot = d_gates[:, t, :]
                dpre_r = slot[:, :hidden]
                dpre_z = slot[:, hidden:two_h]
                dpre_c = slot[:, two_h:]
                s1 = np.subtract(1.0, z)
                np.multiply(ghn, c - h_prev, out=dpre_z)
                dpre_z *= z
                dpre_z *= s1
                np.multiply(ghn, z, out=dpre_c)
                sq = np.square(c)
                np.subtract(1.0, sq, out=sq)
                dpre_c *= sq
                grh = dpre_c @ u_c.T
                du[:, two_h:] += rh.T @ dpre_c
                np.multiply(grh, h_prev, out=dpre_r)
                dpre_r *= r
                dpre_r *= 1.0 - r
                s1 *= ghn                   # becomes dh
                grh *= r
                s1 += grh
                s1 += slot[:, :two_h] @ u_rz_t
                du[:, :two_h] += h_prev.T @ slot[:, :two_h]
                carry = s1 if pass_g is None else s1 + pass_g
            flat = d_gates.reshape(batch * steps, 3 * hidden)
            dx = (flat @ wd.T).reshape(xd.shape)
            dw = xd.reshape(batch * steps, d_in).T @ flat
            db = flat.sum(axis=0)
            return dx, dw, du, db

    return x._make_child(out, (x, w, u, b), backward)
