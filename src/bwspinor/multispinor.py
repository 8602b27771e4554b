"""Graded storage for totally symmetric multispinors.

A tensor symmetric in r unprimed and s primed two-valued indices has
(r+1)(s+1) independent components, labelled by the number of 1-values in each
group.  The graded array is the canonical storage and every operation here
works on it directly: a 2x2 matrix acting on all r slots of a group is the
(r+1)x(r+1) matrix of `sym_power_matrices`.  Nothing here expands a tensor to
its 2^(r+s) dense entries.  Index height is not tracked here; each operation
states the valence it expects.

`SymMultiSpinor.comp` keeps the batch axes first, (..., r+1, s+1).  The
kernels work batch-last, (r+1, s+1, samples): `matmul_last` is one broadcast
product per summed index over contiguous samples, where a batched `@` on
matrices this small would dispatch one gemm per sample.  `_slot_action`, the
one kernel that moves members by a matrix on every slot, takes the samples
in blocks.

Working arrays live in one complex buffer per thread, `workspace`, which
grows to the largest request and is then reused: each block's table
S_0..S_n and the product buffers of `_slot_action` (and the gathered terms
of `bw`'s distinct-direction route) are views into it, and the products
write through `out=` with one scratch term, so a warm call allocates no
working array and touches no fresh pages.  A member x that `_slot_action`
yields is such a view, valid until the generator takes its next step, and
so are the spare floats it yields beside x for the caller's own sums; a
second slot action started in the same thread while one is suspended works
in a private buffer.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod

import numpy as np


@lru_cache(maxsize=None)
def _binomials(r: int) -> np.ndarray:
    """The row C(r, 0..r); the class sizes of the graded components."""
    return np.array([comb(r, i) for i in range(r + 1)], dtype=float)


@dataclass(frozen=True)
class SymMultiSpinor:
    """Symmetric multispinor with r unprimed and s primed indices."""

    r: int
    s: int
    comp: np.ndarray    # (..., r+1, s+1) complex

    def scaled(self, factor) -> "SymMultiSpinor":
        return SymMultiSpinor(self.r, self.s, self.comp * np.asarray(factor)[..., None, None])


def same_slot_coeffs(x: np.ndarray, n: int) -> np.ndarray:
    """The table (..., 2, n+1) of the powers x_a^j, j = 0..n, of the spinor
    x; `power_row` reads from it the graded components of r <= n copies."""
    powers = np.repeat(np.asarray(x, dtype=complex)[..., None], n + 1, axis=-1)
    powers[..., 0] = 1.0
    np.cumprod(powers, axis=-1, out=powers)
    return powers


def power_row(powers: np.ndarray, r: int) -> np.ndarray:
    """Graded components x0^(r-i) x1^i, (..., r+1), of r copies of the spinor
    x on every slot, from its table of powers."""
    return powers[..., 0, r::-1] * powers[..., 1, :r + 1]


def contract_same(t: SymMultiSpinor, powers: np.ndarray) -> np.ndarray:
    """Contraction with the same spinor x on every unprimed slot and conj(x)
    on every primed slot, from the table of powers of x; conjugation is
    exact, so the primed row is the conjugate of the row of x."""
    wx = _binomials(t.r) * power_row(powers, t.r)
    wy = _binomials(t.s) * np.conj(power_row(powers, t.s))
    return np.einsum('...i,...i->...', wx, np.einsum('...ij,...j->...i', t.comp, wy))


def sym_power_matrices(m: np.ndarray, n: int, out: np.ndarray | None = None,
                       scratch: np.ndarray | None = None) -> list[np.ndarray]:
    """Images S_0..S_n of a batch of 2x2 matrices on the symmetric powers,
    batch-last: m is (..., 2, 2) and S_r is (r+1, r+1, ...).

    S_r[i, j] is the coefficient of x^i y^j in
    (m00 + m01 y + m10 x + m11 x y)^r, i.e. the sum of prod_k m[a_k, b_k]
    over all index tuples a with i ones and b with j ones.  With
    D_r = diag C(r, i), m acting on every slot of a symmetric group maps
    graded components c to D_r^{-1} S_r c, and S_r(m m') =
    S_r(m) D_r^{-1} S_r(m').  Built by the four-term recurrence
    S_r = m00 S_{r-1} + m01 shift_y + m10 shift_x + m11 shift_xy.

    The S_r are contiguous views into one table (power_size(n), ...), `out`
    when given; `scratch`, a flat complex buffer of at least n^2 entries per
    sample, holds each product of the recurrence.  Both are allocated when
    not given.
    """
    m = np.moveaxis(np.asarray(m, dtype=complex), (-2, -1), (0, 1))
    batch = m.shape[2:]
    if out is None:
        out = np.empty((power_size(n),) + batch, dtype=complex)
    if scratch is None:
        scratch = np.empty(n * n * prod(batch), dtype=complex)
    out.fill(0.0)
    out[0] = 1.0
    powers = [out[:1].reshape((1, 1) + batch)]
    for r in range(1, n + 1):
        start = power_size(r - 1)
        s = out[start:start + (r + 1) ** 2].reshape((r + 1, r + 1) + batch)
        term = _views(scratch, powers[-1].shape)[0]
        for a in (0, 1):
            for b in (0, 1):
                s[a:a + r, b:b + r] += np.multiply(m[a, b], powers[-1], out=term)
        powers.append(s)
    return powers


def power_size(n: int) -> int:
    """Entries per sample of S_0..S_n: sum_r (r+1)^2."""
    return (n + 1) * (n + 2) * (2 * n + 3) // 6


def matmul_last(a_cols, b, out: np.ndarray, term: np.ndarray) -> np.ndarray:
    """The product a b of batch-last matrices, given a by its columns
    a_cols[j], each (i, ...), and b by its rows b[j], each (k, ...), as
    sequences or stacks, written to out (i, k, ...); each term is formed in
    `term`, of the shape of out, before it is added.  The batch axes
    broadcast from the right."""
    np.multiply(a_cols[0][:, None], b[0], out=out)
    for j in range(1, len(a_cols)):
        np.multiply(a_cols[j][:, None], b[j], out=term)
        out += term
    return out


def _views(buf: np.ndarray, *shapes) -> list[np.ndarray]:
    """Consecutive C-ordered arrays of the given shapes at the start of the
    flat buffer buf."""
    views, start = [], 0
    for shape in shapes:
        views.append(buf[start:start + prod(shape)].reshape(shape))
        start += prod(shape)
    return views


class _Workspace:
    """One thread's working buffer, and whether a caller holds it."""

    def __init__(self):
        self.buf = np.empty(0, dtype=complex)
        self.busy = False


_threads = threading.local()


@contextmanager
def workspace(size: int):
    """A flat complex buffer of `size` entries, of undefined content, held
    for the duration of the block.

    It is this thread's workspace, grown to the largest request seen and then
    kept, so a warm kernel call touches no fresh pages.  A request made while
    the workspace is held (a second `_slot_action` started while one is
    suspended) gets a private buffer.
    """
    ws = getattr(_threads, "ws", None)
    if ws is None:
        ws = _threads.ws = _Workspace()
    if ws.busy:
        yield np.empty(size, dtype=complex)
        return
    if ws.buf.size < size:
        ws.buf = np.empty(size, dtype=complex)
    ws.busy = True
    try:
        yield ws.buf[:size]
    finally:
        ws.busy = False


def _blocks(count: int, size: int, budget: int) -> list[slice]:
    """Consecutive slices of range(count), each of as many samples as hold
    `size` complex entries apiece within `budget` bytes (at least one)."""
    block = max(1, budget // (16 * size))
    return [slice(start, min(start + block, count)) for start in range(0, count, block)]


def _slot_action(a: np.ndarray, conj_columns, n: int, budget: int):
    """Slot products x = S_r(a) c conj(S_s(a))^T: a on every unprimed slot and
    conj(a) on every primed one maps c to D_r^{-1} x D_s^{-1}.

    a is (S, 2, 2); conj_columns(part) gives, for each member c at the samples
    `part`, the columns of conj(c), each (r+1, samples), with r + s <= n.  One
    `sym_power_matrices` per block of samples serves every member; a block's
    powers and products fit `budget` bytes.  Yields (part, index of the
    member, x, spare), spare a flat float array of 4 x.size entries that the
    caller may overwrite.

    The symmetric powers and the two products of each member live in this
    thread's `workspace`, so a warm call allocates no working array.  The
    yielded x and spare are views into it and hold their values only until
    the generator is advanced: a caller consumes x before the next step.  A
    slot action started in the same thread while this one is suspended
    works in a private buffer.
    """
    size = power_size(n)
    # the two products and a term of the largest member, or a term of the powers
    products = max(3 * max((r + 1) * (n - r + 1) for r in range(n + 1)), n * n)
    parts = _blocks(a.shape[0], size + products, budget)
    most = parts[0].stop if parts else 0
    with workspace((size + products) * most) as buf:
        for part in parts:
            count = part.stop - part.start
            table, rest = _views(buf, (size, count), (products * count,))
            # rows of S(a^T) = S(a)^T, contiguous: the columns of S_r(a), rows of S_s(a)^T
            powers = sym_power_matrices(np.swapaxes(a[part], -1, -2), n, table, rest)
            for i, cols in enumerate(conj_columns(part)):
                r, s = len(cols[0]) - 1, len(cols) - 1
                x, t, term = _views(rest, *3 * [(r + 1, s + 1, count)])
                matmul_last(cols, powers[s], t, term)
                np.conj(t, out=t)
                # t and term, read no more, are the caller's spare floats
                spare = rest[x.size:3 * x.size].view(float)
                yield part, i, matmul_last(powers[r], t, x, term), spare
