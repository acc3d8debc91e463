"""Fused sequence kernels: whole recurrences as single tape nodes.

The unrolled :class:`repro.autograd.GRUEncoder` path emits ~10 tape nodes
per timestep per node type (embedding gather, three gate matmuls,
sigmoid/tanh, mask blends); one full-graph training epoch therefore builds
tens of thousands of Python closures whose dispatch overhead dwarfs the
numpy FLOPs. The kernels here collapse each sequence op into **one** tape
node with a hand-written backward-through-time:

- :func:`embedding_gather` — one ``(B, T)`` index take forward, one
  :func:`repro.autograd.sparse.scatter_add` (a single ``np.bincount``)
  backward, replacing ``T`` per-timestep lookups;
- :func:`gru_sequence` — the full masked GRU recurrence. Gate weights
  arrive stacked (``(E, 3H)`` input, ``(H, 3H)`` hidden, ``(3H,)`` bias, in
  update/reset/candidate order) so the input projections for *all* real
  tokens are one ``(N, E) @ (E, 3H)`` matmul precomputed before the time
  loop; the per-step loop runs in raw numpy with no Tensor wrapping, and
  the saved gate activations are replayed by the backward closure;
- :func:`lstm_sequence` — the LSTM equivalent with ``(E, 4H)`` / ``(H, 4H)``
  stacking in input/forget/cell/output order.

All three are registered through :func:`repro.autograd.tensor.instrument_op`
so the op profiler (``repro train --profile``) and the tape sanitizer
(``--sanitize``) observe them like any other op. Numerical equivalence with
the unrolled reference path — forward values, parameter gradients, and
whole training trajectories — is asserted by ``tests/test_kernels.py`` and
re-asserted inside ``benchmarks/test_training_throughput.py``.

Masking semantics match the encoder exactly: ``mask`` is a ``(B, T)``
``{0, 1}`` array and padded positions carry the previous hidden (and LSTM
cell) state through unchanged, so a kernel fed trailing all-pad columns
produces the same trajectory as one fed the truncated sequence. Both
recurrences run on packed sequences (:class:`_PackPlan`): each step only
on the rows that still have a real token, so padding costs no FLOPs, no
mask blends and no saved activations.
"""

from __future__ import annotations

import numpy as np

from .sparse import scatter_add
from .tensor import Tensor, ensure_tensor, instrument_op


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically-stable logistic via ``σ(x) = (1 + tanh(x/2)) / 2``.

    Mathematically identical to the two-branch ``exp`` formula
    ``Tensor.sigmoid`` uses and equally overflow-safe (``tanh`` saturates),
    but a single transcendental evaluation instead of two ``exp`` calls
    plus a branchy ``np.where`` — the cheapest stable logistic numpy can
    express. The two formulas agree to ≤ 2 ulp per element; the encoder
    equivalence suite (tests/test_kernels.py) asserts the fused and
    unrolled paths still match to 1e-12 after full recurrences and to
    1e-6 across whole training trajectories.
    """
    if out is None:
        out = np.empty_like(x)
    np.tanh(x * 0.5, out=out)
    out += 1.0
    out *= 0.5
    return out


def _as_mask(mask, batch: int, length: int) -> np.ndarray:
    m = np.asarray(mask.data if isinstance(mask, Tensor) else mask, dtype=np.float64)
    if m.shape != (batch, length):
        raise ValueError(
            f"mask shape {m.shape} does not match sequence batch/length "
            f"({batch}, {length})"
        )
    return m


def _check_gate_shapes(
    op: str, E: int, H3: int, w_x: Tensor, w_h: Tensor, b: Tensor, gates: int
) -> int:
    """Validate stacked-gate shapes; returns the hidden size ``H``."""
    if H3 % gates != 0:
        raise ValueError(f"{op}: stacked width {H3} is not divisible by {gates}")
    H = H3 // gates
    if w_x.shape != (E, gates * H):
        raise ValueError(f"{op}: w_x shape {w_x.shape} != ({E}, {gates * H})")
    if w_h.shape != (H, gates * H):
        raise ValueError(f"{op}: w_h shape {w_h.shape} != ({H}, {gates * H})")
    if b.shape != (gates * H,):
        raise ValueError(f"{op}: bias shape {b.shape} != ({gates * H},)")
    return H


def embedding_gather(weight, indices) -> Tensor:
    """Full-sequence embedding lookup as one tape node.

    ``weight`` is the ``(V, E)`` embedding table; ``indices`` any integer
    array (typically ``(B, T)``). Forward is a single take producing
    ``indices.shape + (E,)``; backward is one scatter-add over the
    flattened indices instead of ``T`` separate index nodes.
    """
    weight = ensure_tensor(weight)
    idx = np.asarray(
        indices.data if isinstance(indices, Tensor) else indices, dtype=np.intp
    )
    vocab, dim = weight.shape
    if idx.size and (idx.min() < 0 or idx.max() >= vocab):
        raise IndexError(
            f"embedding index out of range [0, {vocab}): "
            f"min={idx.min()}, max={idx.max()}"
        )
    flat_idx = idx.ravel()

    def backward(grad):
        return (scatter_add(flat_idx, grad.reshape(-1, dim), vocab),)

    return Tensor._make(weight.data[idx], (weight,), backward)


class _PackPlan:
    """Packed-sequence layout of a masked recurrence.

    A row's recurrence depends only on its active tokens (mask 1), taken
    in processing order (last to first when ``reverse``). Rows are sorted
    by their number of active tokens, longest first, so step ``s`` — every
    row's ``s``-th active token — runs on a prefix of ``counts[s]`` sorted
    rows. Per-step values live in packed ``(size, ·)`` buffers, one
    contiguous row block per step starting at ``starts[s]``: the layout of
    PyTorch's ``pack_padded_sequence``. No step touches a padded position.

    The forward trajectory is bit-identical to the padded ``(T, B, ·)``
    loop: any row subset of at least two rows of a BLAS matrix product has
    the same bits as the full product. Only a one-row product differs —
    numpy sends it to gemv, which rounds differently — so when ``B ≥ 2`` a
    step left with one real row also runs a *phantom* row: the next sorted
    row, continuing past its last token on a copy of the real row's input.
    Phantom values are never read out and receive zero gradient.

    A mask with no padding at all packs to the time-major layout itself
    (``counts[s] = B``, rows in batch order), so ``pack``/``unpack`` are
    plain transposes and single-article serving pays no packing cost.

    ``index`` maps every ``(b, t)`` position (flattened) to its row of
    :meth:`state_buffer`: the state after the row's last active token at
    or before ``t`` in processing order, or one of the ``B`` zero rows
    before the first. ``source`` maps each packed row to the flat position
    it reads its input from, ``B·T`` for phantom rows. Both are ``None``
    for the dense layout.
    """

    __slots__ = (
        "batch", "length", "reverse", "counts", "starts", "size",
        "index", "source", "active",
    )

    def __init__(self, mask: np.ndarray, reverse: bool):
        B, T = mask.shape
        self.batch, self.length, self.reverse = B, T, reverse
        if B and (mask == 1).all():
            self.counts = [B] * T
            self.size = B * T
            self.starts = self.index = self.source = self.active = None
            return
        active = mask != 0
        if (mask != active).any():
            raise ValueError("mask must hold only 0 and 1")
        proc = active[:, ::-1] if reverse else active
        lengths = proc.sum(axis=1)
        steps = int(lengths.max(initial=0))
        # Rows with more than s active tokens, longest rows first.
        counts = B - np.cumsum(np.bincount(lengths, minlength=steps + 1))[:steps]
        if B >= 2:
            counts = np.maximum(counts, 2)  # phantom row, see above
        starts = np.cumsum(counts) - counts
        size = int(starts[-1] + counts[-1]) if steps else 0
        # first[k]: the state row of step k - 1's first row in
        # state_buffer; first[0] = 0 points a row with no token processed
        # yet at its own zero row.
        first = np.zeros(steps + 1, dtype=np.intp)
        first[1:] = starts + B
        rank = np.empty(B, dtype=np.intp)
        rank[np.argsort(-lengths, kind="stable")] = np.arange(B)
        index = first[np.cumsum(proc, axis=1)] + rank[:, None]
        if reverse:
            index = index[:, ::-1]
        self.index = index.ravel()
        self.active = active.ravel()
        real = np.flatnonzero(self.active)
        self.source = np.full(size, B * T, dtype=np.intp)
        self.source[self.index[real] - B] = real
        self.counts = counts.tolist()
        self.starts = starts.tolist()
        self.size = size

    def empty(self, width: int) -> np.ndarray:
        """An uninitialised packed buffer, ``(T, B, width)`` for the dense
        layout (so its step blocks need no reshape), else ``(size, width)``."""
        if self.index is None:
            return np.empty((self.length, self.batch, width))
        return np.empty((self.size, width))

    def state_buffer(self, H: int) -> np.ndarray:
        """The states before any token (``B`` zero rows), then the packed
        states: ``(T + 1, B, H)`` for the dense layout, else ``(B + size, H)``."""
        if self.index is None:
            states = np.empty((self.length + 1, self.batch, H))
            states[0] = 0.0
        else:
            states = np.empty((self.batch + self.size, H))
            states[: self.batch] = 0.0
        return states

    # -- per-step views, built once before a step loop -------------------
    def blocks(self, *bufs: np.ndarray) -> list:
        """The per-step row blocks of each ``(size, ·)`` packed buffer: one
        ``(T, B, ·)`` array for the dense layout, else a list of views."""
        if self.index is None:
            T, B = self.length, self.batch
            return [buf.reshape(T, B, buf.shape[-1]) for buf in bufs]
        bounds = list(zip(self.starts, self.counts))
        return [[buf[o : o + n] for o, n in bounds] for buf in bufs]

    def state_blocks(self, states: np.ndarray):
        """Per step, the :meth:`state_buffer` rows a step writes and the
        rows it continues from (zero rows for the first step)."""
        if self.index is None:
            return states[1:], states[:-1]
        B = self.batch
        new = [states[B + o : B + o + n] for o, n in zip(self.starts, self.counts)]
        prev = [states[:n] for n in self.counts[:1]] + [
            states[B + o : B + o + n] for o, n in zip(self.starts, self.counts[1:])
        ]
        return new, prev

    def rows(self, first: int, last: int) -> tuple:
        """The packed row range ``[lo, hi)`` of steps ``first`` to ``last``."""
        if self.index is None:
            return first * self.batch, (last + 1) * self.batch
        return self.starts[first], self.starts[last] + self.counts[last]

    # -- padded (B, T, ·) <-> packed (size, ·) ----------------------------
    def _to_time_major(self, a: np.ndarray) -> np.ndarray:
        if self.reverse:
            a = a[:, ::-1]
        return np.swapaxes(a, 0, 1)

    def pack(self, a: np.ndarray) -> np.ndarray:
        """``(B, T, D)`` inputs → ``(size, D)`` (phantoms copy a real row)."""
        width = a.shape[2]
        if self.index is None:
            return np.ascontiguousarray(self._to_time_major(a)).reshape(self.size, width)
        flat = a.reshape(self.batch * self.length, width)
        # mode="clip" sends the phantom marker B·T to a real position.
        return np.take(flat, self.source, axis=0, mode="clip")

    def unpack(self, states: np.ndarray) -> np.ndarray:
        """:meth:`state_buffer` states → ``(B, T, H)`` trajectory."""
        H = states.shape[-1]
        if self.index is None:
            traj = states[1:]
            if self.reverse:
                traj = traj[::-1]
            return np.ascontiguousarray(np.swapaxes(traj, 0, 1))
        return np.take(states, self.index, axis=0).reshape(self.batch, self.length, H)

    def pack_grad(self, grad: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`unpack`: a fresh ``(size, H)`` state gradient.

        Positions that carry a state (padding after a row's active token,
        in processing order) add their gradient to that state's row.
        """
        H = grad.shape[2]
        if self.index is None:
            return np.copy(self._to_time_major(grad), order="C").reshape(self.size, H)
        flat = grad.reshape(self.batch * self.length, H)
        out = np.take(flat, self.source, axis=0, mode="clip")
        out[self.source == len(self.index)] = 0.0  # phantom rows
        carried = np.flatnonzero(~self.active & (self.index >= self.batch))
        pad_grad = np.take(flat, carried, axis=0)
        # The encoder pools with the mask, so padded gradients are usually
        # exact zeros; adding them would change nothing.
        if pad_grad.any():
            out += scatter_add(self.index[carried] - self.batch, pad_grad, self.size)
        return out

    def unpack_grad(self, dp: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`pack`: ``(size, E)`` → ``(B, T, E)``, zero at padding."""
        B, T, E = self.batch, self.length, dp.shape[1]
        if self.index is None:
            dxT = dp.reshape(T, B, E)
            if self.reverse:
                dxT = dxT[::-1]
            return np.ascontiguousarray(np.swapaxes(dxT, 0, 1))
        dx = np.zeros((B * T + 1, E))
        dx[self.source] = dp  # phantom rows land in the spare last row
        return dx[:-1].reshape(B, T, E)


#: Packed rows whose weight, bias and input gradient products the
#: ``gru_sequence`` backward pass batches into one set of matmuls: enough
#: to amortise numpy dispatch on small batches, few enough to stay in
#: cache on large ones.
_FLUSH_ROWS = 2048


def _split(blocks, at: int):
    """Per-step blocks from :meth:`_PackPlan.blocks`, split at column ``at``."""
    if isinstance(blocks, np.ndarray):
        return blocks[:, :, :at], blocks[:, :, at:]
    return [b[:, :at] for b in blocks], [b[:, at:] for b in blocks]


def _project(plan: _PackPlan, xp: np.ndarray, w: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``xp @ w + bias``, as a matrix product whenever the padded one was."""
    if len(xp) == 1 and plan.batch * plan.length > 1:
        out = (np.concatenate((xp, xp)) @ w)[:1]
    else:
        out = xp @ w
    out += bias  # in place: no second (N, ·) allocation
    return out


def _prepare(op: str, seq_embedded, mask, w_x, w_h, b, gates: int):
    seq_embedded = ensure_tensor(seq_embedded)
    w_x, w_h, b = ensure_tensor(w_x), ensure_tensor(w_h), ensure_tensor(b)
    x = seq_embedded.data
    if x.ndim != 3:
        raise ValueError(f"{op} expects (B, T, E) inputs, got {x.shape}")
    B, T, E = x.shape
    H = _check_gate_shapes(op, E, w_x.shape[1], w_x, w_h, b, gates=gates)
    return seq_embedded, w_x, w_h, b, x, _as_mask(mask, B, T), H


def gru_sequence(seq_embedded, mask, w_x, w_h, b, reverse: bool = False) -> Tensor:
    """Masked GRU recurrence over a whole sequence as one tape node.

    Parameters
    ----------
    seq_embedded:
        ``(B, T, E)`` embedded inputs.
    mask:
        ``(B, T)`` array, 1 on real tokens, 0 on padding. A row's
        recurrence runs over its real tokens in order; padded positions
        (leading, trailing or holes) carry the previous hidden state.
    w_x, w_h, b:
        Gate weights stacked in update/reset/candidate order:
        ``(E, 3H)``, ``(H, 3H)`` and ``(3H,)``.
    reverse:
        Run the recurrence from the last timestep to the first (the
        backward direction of a bidirectional encoder). The returned
        trajectory is indexed in *original* time order either way.

    Returns the ``(B, T, H)`` hidden trajectory: ``out[b, t]`` is the
    state after the row's last real token at or before ``t`` in processing
    order, zero before the first.
    """
    seq_embedded, w_x, w_h, b, x, m, H = _prepare(
        "gru_sequence", seq_embedded, mask, w_x, w_h, b, gates=3
    )
    E = x.shape[2]
    plan = _PackPlan(m, reverse)
    N = plan.size
    Wx, Wh, bias = w_x.data, w_h.data, b.data
    Wh_zr = Wh[:, : 2 * H]
    Wh_c = Wh[:, 2 * H :]
    # σ(a) = (1 + tanh(a/2)) / 2: the ½ inside tanh is folded into the
    # z/r columns of the forward weights. Scaling by a power of two is
    # exact outside the subnormal range, so every product and partial sum
    # is exactly halved and tanh sees the same bits as ``tanh(0.5 * a)``.
    # The backward closure keeps the unscaled weights.
    half = np.ones(3 * H)
    half[: 2 * H] = 0.5
    Wh_zr_half = Wh_zr * 0.5
    xp = plan.pack(x)
    # All input projections for all steps in one big matmul.
    proj = _project(plan, xp, Wx * half, bias * half)
    states = plan.state_buffer(H)
    zrs = plan.empty(2 * H)
    cs = plan.empty(H)
    # The step below computes (1 − z) ⊙ h + z ⊙ c as h + z ⊙ (c − h),
    # written straight into the packed buffers through views split before
    # the loop, so a step allocates nothing and slices nothing (single-
    # article serving pays numpy dispatch, not FLOPs, in this loop); the
    # new state's block holds r ⊙ h until the state overwrites it. The
    # two forms agree to rounding; tests pin this loop bit for bit against
    # a plain per-step reference of the regrouped form.
    proj_b, zr_b, c_b = plan.blocks(proj, zrs, cs)
    steps = zip(
        *_split(proj_b, 2 * H), zr_b, *_split(zr_b, H), c_b,
        *plan.state_blocks(states),
    )
    for p_zr, p_c, zr, z, r, c, h_new, h in steps:
        np.dot(h, Wh_zr_half, out=zr)
        zr += p_zr
        np.tanh(zr, out=zr)
        zr += 1.0
        zr *= 0.5
        np.multiply(r, h, out=h_new)
        np.dot(h_new, Wh_c, out=c)
        c += p_c
        np.tanh(c, out=c)
        np.subtract(c, h, out=h_new)
        h_new *= z
        h_new += h

    def backward(grad):
        gs = plan.pack_grad(grad)  # ∂L/∂h, fresh: the carry adds into it
        # The projections are dead after the forward pass; their buffer
        # takes the pre-activation gate gradients.
        dproj = proj
        dxp = np.empty((N, E))
        dWx = np.zeros_like(Wx)
        dWh = np.zeros_like(Wh)
        db = np.zeros_like(bias)
        r_all = zrs.reshape(N, 2 * H)[:, H:]
        scratch = np.empty((4, plan.counts[0] if N else 0, H))
        g_b, zr_b, c_b, dp_b = plan.blocks(gs, zrs, cs, dproj)
        prev_b = plan.state_blocks(states)[1]

        carry = None
        last = len(plan.counts) - 1
        for s in range(last, -1, -1):
            gh, h_prev, zr, c, dpt = g_b[s], prev_b[s], zr_b[s], c_b[s], dp_b[s]
            if carry is not None:
                gh[: len(carry)] += carry
            z, r = zr[:, :H], zr[:, H:]
            # Intermediates stay in contiguous scratch rows; each gate's
            # gradient is written to its (strided) dproj columns once.
            one_m_z, t1, t2, drh = scratch[:, : len(gh)]
            np.subtract(1.0, z, out=one_m_z)
            # h = (1 − z) ⊙ h_prev + z ⊙ c:  dz = gh ⊙ (c − h_prev) ⊙ z(1 − z)
            np.subtract(c, h_prev, out=t1)
            t1 *= gh
            t1 *= z
            np.multiply(t1, one_m_z, out=dpt[:, :H])
            # c = tanh(x W_xh + (r ⊙ h_prev) W_hh + b_h):
            # da = (gh ⊙ z) ⊙ (1 − c²)
            np.multiply(c, c, out=t1)
            np.subtract(1.0, t1, out=t1)
            np.multiply(gh, z, out=t2)
            t1 *= t2
            dpt[:, 2 * H :] = t1
            np.dot(t1, Wh_c.T, out=drh)
            # dr = (drh ⊙ h_prev) ⊙ r(1 − r)
            np.multiply(drh, h_prev, out=t1)
            t1 *= r
            np.subtract(1.0, r, out=t2)
            np.multiply(t1, t2, out=dpt[:, H : 2 * H])
            if s:
                # ∂h_prev = gh ⊙ (1 − z) + drh ⊙ r + [dz|dr] W_hzr^T
                carry = one_m_z
                carry *= gh
                np.multiply(drh, r, out=t1)
                carry += t1
                np.dot(dpt[:, : 2 * H], Wh_zr.T, out=t1)
                carry += t1
            # Weight, bias and input gradients of the steps s..last in one
            # set of products over their contiguous packed rows: a small
            # batch gathers many steps, a large one flushes every step or
            # two while its rows are still in cache.
            lo, hi = plan.rows(s, last)
            if s and hi - lo < _FLUSH_ROWS:
                continue
            d = dproj[lo:hi]
            hp = np.concatenate(prev_b[s : last + 1])
            dWx += xp[lo:hi].T @ d
            dWh[:, : 2 * H] += hp.T @ d[:, : 2 * H]
            hp *= r_all[lo:hi]  # r ⊙ h_prev
            dWh[:, 2 * H :] += hp.T @ d[:, 2 * H :]
            db += d.sum(axis=0)
            np.dot(d, Wx.T, out=dxp[lo:hi])
            last = s - 1
        return (plan.unpack_grad(dxp), dWx, dWh, db)

    return Tensor._make(plan.unpack(states), (seq_embedded, w_x, w_h, b), backward)


def lstm_sequence(seq_embedded, mask, w_x, w_h, b, reverse: bool = False) -> Tensor:
    """Masked LSTM recurrence over a whole sequence as one tape node.

    Same contract as :func:`gru_sequence` with four stacked gates in
    input/forget/cell/output order: ``(E, 4H)``, ``(H, 4H)``, ``(4H,)``.
    Padded positions carry both the hidden and the cell state through.
    Returns the ``(B, T, H)`` hidden trajectory.
    """
    seq_embedded, w_x, w_h, b, x, m, H = _prepare(
        "lstm_sequence", seq_embedded, mask, w_x, w_h, b, gates=4
    )
    plan = _PackPlan(m, reverse)
    N = plan.size
    Wx, Wh, bias = w_x.data, w_h.data, b.data
    E = x.shape[2]
    xp = plan.pack(x)
    # i/f/g/o pre-activations, overwritten in place by the activations,
    # stacked the same way the weights are.
    gates = _project(plan, xp, Wx, bias)
    states = plan.state_buffer(H)
    cells = plan.state_buffer(H)
    tanhc = plan.empty(H)
    gates_b, tanhc_b = plan.blocks(gates, tanhc)
    steps = zip(gates_b, *plan.state_blocks(cells), tanhc_b, *plan.state_blocks(states))
    for gt, c_new, c, tc, h_new, h in steps:
        gt += h @ Wh
        _sigmoid(gt[:, : 2 * H], out=gt[:, : 2 * H])
        np.tanh(gt[:, 2 * H : 3 * H], out=gt[:, 2 * H : 3 * H])
        _sigmoid(gt[:, 3 * H :], out=gt[:, 3 * H :])
        # c = f ⊙ c_prev + i ⊙ g;  h = o ⊙ tanh(c)
        np.multiply(gt[:, H : 2 * H], c, out=c_new)
        c_new += gt[:, :H] * gt[:, 2 * H : 3 * H]
        np.tanh(c_new, out=tc)
        np.multiply(gt[:, 3 * H :], tc, out=h_new)

    def backward(grad):
        gs = plan.pack_grad(grad)  # ∂L/∂h, fresh: the carry adds into it
        dxp = np.empty((N, E))
        dWx = np.zeros_like(Wx)
        dWh = np.zeros_like(Wh)
        db = np.zeros_like(bias)
        dproj = np.empty((plan.counts[0] if N else 0, 4 * H))
        g_b, gates_b, tanhc_b, x_b, dx_b = plan.blocks(gs, gates, tanhc, xp, dxp)
        steps = list(zip(
            g_b, plan.state_blocks(states)[1], plan.state_blocks(cells)[1],
            gates_b, tanhc_b, x_b, dx_b,
        ))
        carry_h = carry_c = None
        # Each step's gate gradients stay in a scratch block and go
        # straight into the weight, bias and input gradients.
        for s in range(len(steps) - 1, -1, -1):
            gh, h_prev, c_prev, gt, tc, x_s, dx_s = steps[s]
            if carry_h is not None:
                gh[: len(carry_h)] += carry_h
            i = gt[:, :H]
            f = gt[:, H : 2 * H]
            g_gate = gt[:, 2 * H : 3 * H]
            o = gt[:, 3 * H :]
            # h = o ⊙ tanh(c); the cell gradient also arrives from step s+1.
            dc = gh * o * (1.0 - tc * tc)
            if carry_c is not None:
                dc[: len(carry_c)] += carry_c
            dpt = dproj[: len(gh)]
            dpt[:, :H] = (dc * g_gate) * i * (1.0 - i)
            dpt[:, H : 2 * H] = (dc * c_prev) * f * (1.0 - f)
            dpt[:, 2 * H : 3 * H] = (dc * i) * (1.0 - g_gate * g_gate)
            dpt[:, 3 * H :] = (gh * tc) * o * (1.0 - o)
            dWx += x_s.T @ dpt
            dWh += h_prev.T @ dpt
            db += dpt.sum(axis=0)
            np.dot(dpt, Wx.T, out=dx_s)
            if s:
                carry_h = dpt @ Wh.T
                carry_c = dc * f
        return (plan.unpack_grad(dxp), dWx, dWh, db)

    return Tensor._make(plan.unpack(states), (seq_embedded, w_x, w_h, b), backward)


def _gdu_t_zero(
    parents, gate_ws, gate_bs, gate_slots, has_forget, has_select,
    xd, zd, Wu, Wux, Wuz, bu, D, H,
) -> Tensor:
    """:func:`gdu_layer` fast path for an exactly-zero, no-grad t port.

    With ``t = 0`` the adjust product vanishes (``e ⊙ t = 0``, so the
    adjust gate and the ``W_ut`` rows are dead) and the four selection
    candidates pairwise coincide (``c(z̃,t̃) = c(z̃,t)``, ``c(z,t̃) =
    c(z,t)``), which sums the r gate out of the mixture::

        h = g ⊙ tanh(W_u[x, z̃, 0]) + (1 − g) ⊙ tanh(W_u[x, z, 0])

    Only the forget gate and (when forget is present, so z̃ ≠ z) the g
    gate survive, on the ``[x|z]`` block of their weights. Dead gates get
    explicit all-zero gradients so every parameter still receives a grad.
    """
    k = len(gate_ws)
    need_f = has_forget
    # Without a forget gate z̃ == z, the two surviving candidates coincide
    # and g sums out of the mixture as well.
    need_g = has_select and has_forget
    f = g = None
    S2 = W2 = None
    stack = []  # gate-stack layout: (slot, column) in f-then-g order
    if need_f or need_g:
        ws, bs = [], []
        if need_f:
            stack.append(gate_slots["forget"])
            ws.append(gate_ws[stack[-1]][: D + H])
            bs.append(gate_bs[stack[-1]])
        if need_g:
            stack.append(gate_slots["select-g"])
            ws.append(gate_ws[stack[-1]][: D + H])
            bs.append(gate_bs[stack[-1]])
        S2 = np.concatenate((xd, zd), axis=1)
        W2 = np.concatenate(ws, axis=1) if len(ws) > 1 else ws[0]
        G2 = _sigmoid(S2 @ W2 + np.concatenate(bs))
        if need_f:
            f = G2[:, :H]
        if need_g:
            g = G2[:, H:] if need_f else G2

    z1 = f * zd if need_f else zd
    px = xd @ Wux + bu
    if need_g:
        ca = np.tanh(px + z1 @ Wuz)
        cb = np.tanh(px + zd @ Wuz)
        one_m_g = 1.0 - g
        out = g * ca + one_m_g * cb
    else:
        c = np.tanh(px + z1 @ Wuz)
        out = c

    def backward(gh):
        if need_g:
            da_a = (gh * g) * (1.0 - ca * ca)
            da_b = (gh * one_m_g) * (1.0 - cb * cb)
            da_sum = da_a + da_b
            dg = gh * (ca - cb)
            dz1 = da_a @ Wuz.T
            df = dz1 * zd
            dz = dz1 * f + da_b @ Wuz.T
        else:
            da_sum = gh * (1.0 - c * c)
            dz1 = da_sum @ Wuz.T
            dg = None
            if need_f:
                df = dz1 * zd
                dz = dz1 * f
            else:
                df = None
                dz = dz1

        dWu = np.zeros_like(Wu)
        dWu[:D] = xd.T @ da_sum
        if need_g:
            dWu[D : D + H] = z1.T @ da_a + zd.T @ da_b
        else:
            dWu[D : D + H] = z1.T @ da_sum
        db_u = da_sum.sum(axis=0)
        dx = da_sum @ Wux.T

        gate_grads = [None] * (2 * k)
        if stack:
            dus = []
            if need_f:
                dus.append(df * f * (1.0 - f))
            if need_g:
                dus.append(dg * g * (1.0 - g))
            dU2 = np.concatenate(dus, axis=1) if len(dus) > 1 else dus[0]
            dW2 = S2.T @ dU2
            db2 = dU2.sum(axis=0)
            dS2 = dU2 @ W2.T
            dx = dx + dS2[:, :D]
            dz = dz + dS2[:, D:]
            for col, slot in enumerate(stack):
                dw = np.zeros_like(Wu)
                dw[: D + H] = dW2[:, col * H : (col + 1) * H]
                gate_grads[2 * slot] = dw
                gate_grads[2 * slot + 1] = db2[col * H : (col + 1) * H]
        # Dead gates (adjust always; r always; f/g when not stacked) have
        # exactly-zero gradients — materialize them so optimizers and
        # grad-coverage checks see every parameter.
        for slot in range(k):
            if gate_grads[2 * slot] is None:
                gate_grads[2 * slot] = np.zeros_like(gate_ws[slot])
                gate_grads[2 * slot + 1] = np.zeros_like(gate_bs[slot])

        grads = [dx, dz, None]
        grads.extend(gate_grads)
        grads.append(dWu)
        grads.append(db_u)
        return tuple(grads)

    return Tensor._make(out, tuple(parents), backward)


def gdu_layer(x, z, t, w_u, b_u, forget=None, adjust=None, select=None) -> Tensor:
    """Whole Gated Diffusive Unit (paper §4.2) as one fused tape node.

    The unrolled :class:`repro.core.GDU` builds ~25 tape nodes per call:
    a ``concatenate``, one matmul+bias+sigmoid per gate, and the four
    ``tanh(W_u[·])`` candidates blended by the g/r selection mixture. This
    kernel stacks every *active* gate weight column-wise so the entire gate
    block is a single ``[x|z|t] @ W_gates`` matmul, splits the shared
    candidate weight into its x/z/t row blocks (so the four candidates
    reuse one ``x @ W_ux`` projection and four cheap ``(n, H)`` state
    projections), and evaluates the whole mixture in raw numpy. The
    handwritten backward replays the saved activations and accumulates all
    five weight gradients (plus x/z/t input grads) in closed form.

    Parameters
    ----------
    x, z, t:
        ``(n, D)`` HFLU features and the two ``(n, H)`` diffused states.
    w_u, b_u:
        Shared candidate weight ``(D + 2H, H)`` and bias ``(H,)``.
    forget / adjust / select:
        Optional gate parameter tuples — ``(w_f, b_f)``, ``(w_e, b_e)`` and
        ``(w_g, b_g, w_r, b_r)`` respectively, each weight ``(D + 2H, H)``.
        ``None`` reproduces the matching ablation switch of the unrolled
        path: identity forget/adjust, or the plain ``tanh(W_u[x, z̃, t̃])``
        candidate when the selection pair is absent.

    Returns the ``(n, H)`` diffused hidden state ``h``. Forward values and
    all parameter/input gradients match the unrolled path to 1e-12
    (``tests/test_kernels.py``); gate sigmoids use :func:`_sigmoid`, which
    agrees with ``Tensor.sigmoid`` to ≤ 2 ulp.
    """
    x, z, t = ensure_tensor(x), ensure_tensor(z), ensure_tensor(t)
    w_u, b_u = ensure_tensor(w_u), ensure_tensor(b_u)
    if x.ndim != 2 or z.ndim != 2 or t.ndim != 2:
        raise ValueError(
            f"gdu_layer expects (n, ·) batches, got x={x.shape}, "
            f"z={z.shape}, t={t.shape}"
        )
    n = x.shape[0]
    D = x.shape[1]
    if z.shape[0] != n or t.shape[0] != n:
        raise ValueError(
            f"batch mismatch: x={x.shape}, z={z.shape}, t={t.shape}"
        )
    H = z.shape[1]
    if t.shape[1] != H:
        raise ValueError(f"state width mismatch: z={z.shape}, t={t.shape}")
    C = D + 2 * H
    if w_u.shape != (C, H):
        raise ValueError(f"gdu_layer: w_u shape {w_u.shape} != ({C}, {H})")
    if b_u.shape != (H,):
        raise ValueError(f"gdu_layer: b_u shape {b_u.shape} != ({H},)")

    parents = [x, z, t]
    gate_ws: list = []
    gate_bs: list = []
    gate_slots: dict = {}

    def _add_gate(name: str, w, bias) -> None:
        w, bias = ensure_tensor(w), ensure_tensor(bias)
        if w.shape != (C, H) or bias.shape != (H,):
            raise ValueError(
                f"gdu_layer: {name} gate shapes {w.shape}/{bias.shape} "
                f"!= ({C}, {H})/({H},)"
            )
        parents.append(w)
        parents.append(bias)
        gate_slots[name] = len(gate_ws)
        gate_ws.append(w.data)
        gate_bs.append(bias.data)

    if forget is not None:
        _add_gate("forget", forget[0], forget[1])
    if adjust is not None:
        _add_gate("adjust", adjust[0], adjust[1])
    if select is not None:
        _add_gate("select-g", select[0], select[1])
        _add_gate("select-r", select[2], select[3])
    parents.append(w_u)
    parents.append(b_u)

    xd, zd, td = x.data, z.data, t.data
    k = len(gate_ws)

    # Candidate weight split by input port: W_u = [W_ux; W_uz; W_ut].
    Wu = w_u.data
    Wux = Wu[:D]
    Wuz = Wu[D : D + H]
    Wut = Wu[D + H :]

    # ------------------------------------------------------------------
    # Zero-port fast paths. ``FakeDetectorModel.diffuse`` feeds the §4.2
    # zero defaults through these ports constantly: round 1 starts from
    # all-zero states (both ports zero for every unit) and the creator/
    # subject units never receive a t input at all. With an exactly-zero,
    # no-grad port the gate algebra collapses — the forget/adjust products
    # vanish, candidates that differ only in the dead port coincide, and
    # the mixture weights sum out — so most of the gate matmul and half
    # the candidate work is provably dead. Both paths keep every parent
    # grad exact: dead gates receive explicit all-zero gradient arrays.
    z_inert = not z.requires_grad and not zd.any()
    t_inert = not t.requires_grad and not td.any()
    if t_inert and z_inert:
        # Every candidate is tanh(W_ux x + b_u) and the mixture weights
        # sum to one, so no gate influences the output (or any gradient).
        out = np.tanh(xd @ Wux + b_u.data)

        def backward_zz(gh):
            da = gh * (1.0 - out * out)
            dWu = np.zeros_like(Wu)
            dWu[:D] = xd.T @ da
            grads = [da @ Wux.T, None, None]
            for gw, gb in zip(gate_ws, gate_bs):
                grads.append(np.zeros_like(gw))
                grads.append(np.zeros_like(gb))
            grads.append(dWu)
            grads.append(da.sum(axis=0))
            return tuple(grads)

        return Tensor._make(out, tuple(parents), backward_zz)
    if t_inert:
        return _gdu_t_zero(
            parents, gate_ws, gate_bs, gate_slots,
            forget is not None, select is not None,
            xd, zd, Wu, Wux, Wuz, b_u.data, D, H,
        )
    # ------------------------------------------------------------------

    f = e = g = r = None
    S = Wg = None
    if k:
        # One stacked matmul for every active gate: σ([x|z|t] @ (C, kH)).
        S = np.concatenate((xd, zd, td), axis=1)
        Wg = np.concatenate(gate_ws, axis=1)
        G = _sigmoid(S @ Wg + np.concatenate(gate_bs))
        col = 0
        if forget is not None:
            f = G[:, col : col + H]
            col += H
        if adjust is not None:
            e = G[:, col : col + H]
            col += H
        if select is not None:
            g = G[:, col : col + H]
            r = G[:, col + H : col + 2 * H]

    z1 = f * zd if forget is not None else zd  # z̃ = f ⊙ z
    t1 = e * td if adjust is not None else td  # t̃ = e ⊙ t

    px = xd @ Wux + b_u.data

    if select is not None:
        pz1 = z1 @ Wuz
        pz0 = zd @ Wuz if forget is not None else pz1
        pt1 = t1 @ Wut
        pt0 = td @ Wut if adjust is not None else pt1
        # The four shared-weight candidates of the selection mixture, in
        # the paper's (z̃,t̃) / (z,t̃) / (z̃,t) / (z,t) order, built with
        # in-place adds (commutative, so bit-identical to the naive form).
        ca = px + pz1
        ca += pt1
        np.tanh(ca, out=ca)
        cb = px + pz0
        cb += pt1
        np.tanh(cb, out=cb)
        cc = px + pz1
        cc += pt0
        np.tanh(cc, out=cc)
        cd = px + pz0
        cd += pt0
        np.tanh(cd, out=cd)
        one_m_g = 1.0 - g
        one_m_r = 1.0 - r
        ma = g * r
        mb = one_m_g * r
        mc = g * one_m_r
        md = one_m_g * one_m_r
        out = ma * ca
        out += mb * cb
        out += mc * cc
        out += md * cd
    else:
        c_single = np.tanh(px + z1 @ Wuz + t1 @ Wut)
        out = c_single

    def backward(gh):
        if select is not None:
            # h = Σ m_k ⊙ c_k with m ∈ {gr, (1−g)r, g(1−r), (1−g)(1−r)}.
            daa = (gh * ma) * (1.0 - ca * ca)
            dab = (gh * mb) * (1.0 - cb * cb)
            dac = (gh * mc) * (1.0 - cc * cc)
            dad = (gh * md) * (1.0 - cd * cd)
            da_sum = daa + dab + dac + dad
            da_z1 = daa + dac  # candidates reading the z̃ port
            da_z0 = dab + dad  # candidates reading the raw z port
            da_t1 = daa + dab
            da_t0 = dac + dad
            dg = gh * (r * (ca - cb) + one_m_r * (cc - cd))
            dr = gh * (g * (ca - cc) + one_m_g * (cb - cd))
        else:
            da_sum = gh * (1.0 - c_single * c_single)
            da_z1 = da_t1 = da_sum
            da_z0 = da_t0 = None
            dg = dr = None

        dz1 = da_z1 @ Wuz.T
        dt1 = da_t1 @ Wut.T
        if forget is not None:
            df = dz1 * zd
            dz = dz1 * f
        else:
            df = None
            dz = dz1
        if adjust is not None:
            de = dt1 * td
            dt = dt1 * e
        else:
            de = None
            dt = dt1
        if da_z0 is not None:
            dz = dz + da_z0 @ Wuz.T
            dt = dt + da_t0 @ Wut.T

        dWu = np.empty_like(Wu)
        dWu[:D] = xd.T @ da_sum
        if da_z0 is not None:
            dWu[D : D + H] = z1.T @ da_z1 + zd.T @ da_z0
            dWu[D + H :] = t1.T @ da_t1 + td.T @ da_t0
        else:
            dWu[D : D + H] = z1.T @ da_z1
            dWu[D + H :] = t1.T @ da_t1
        db_u = da_sum.sum(axis=0)
        dx = da_sum @ Wux.T

        grads = [dx, dz, dt]
        if k:
            # Pre-activation grads for the stacked gate block, in the same
            # f/e/g/r stacking order as the forward matmul.
            d_gates = []
            if forget is not None:
                d_gates.append(df * f * (1.0 - f))
            if adjust is not None:
                d_gates.append(de * e * (1.0 - e))
            if select is not None:
                d_gates.append(dg * g * (1.0 - g))
                d_gates.append(dr * r * (1.0 - r))
            dU = np.concatenate(d_gates, axis=1)
            dWg = S.T @ dU
            dbg = dU.sum(axis=0)
            dS = dU @ Wg.T
            grads[0] = grads[0] + dS[:, :D]
            grads[1] = grads[1] + dS[:, D : D + H]
            grads[2] = grads[2] + dS[:, D + H :]
            for i in range(k):
                grads.append(np.ascontiguousarray(dWg[:, i * H : (i + 1) * H]))
                grads.append(dbg[i * H : (i + 1) * H])
        grads.append(dWu)
        grads.append(db_u)
        return tuple(grads)

    return Tensor._make(out, tuple(parents), backward)


# Register with the op profiler / tape sanitizer like every other tape op.
embedding_gather = instrument_op("embedding_gather", embedding_gather)
gru_sequence = instrument_op("gru_sequence", gru_sequence)
lstm_sequence = instrument_op("lstm_sequence", lstm_sequence)
gdu_layer = instrument_op("gdu_layer", gdu_layer)
