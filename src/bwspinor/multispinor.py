"""Graded storage for totally symmetric multispinors.

A tensor symmetric in r unprimed and s primed two-valued indices has
(r+1)(s+1) independent components, labelled by the number of 1-values in each
group.  The graded array is the canonical storage and every operation here
works on it directly: a 2x2 matrix acting on all r slots of a group maps the
components c to Q_r c, with Q_r its (r+1)x(r+1) matrix on binary forms of
degree r from `sym_power_matrices`.  Nothing here expands a tensor to
its 2^(r+s) dense entries.  Index height is not tracked here; each operation
states the valence it expects.

`SymMultiSpinor.comp` keeps the batch axes first, (..., r+1, s+1).  The
kernels work batch-last, (r+1, s+1, samples): `matmul_last` is one broadcast
product per summed index over contiguous samples, where a batched `@` on
matrices this small would dispatch one gemm per sample.  `_slot_action`, the
one kernel that moves members by a matrix on every slot, takes the samples
in blocks and writes the moved members into their buffer; one table
Q_0..Q_n per block serves all of them.  `form_product` applies Q_n to a
single column without that table, as one product of binary forms in O(n^2)
per sample: synthesis's all-unprimed member.  `contract_rows`, the one
kernel that weighs every slot of a group alike, sums a member between a row
and a column that `power_row` reads from one batch-last table of the powers
of a spinor, `spinor_powers`.  `slot_sum` is the generator form of the
slot action: a 2x2 matrix acting on one slot of a group at a time, summed
over the slots (a Pauli-Lubanski or helicity generator on a member).

Working arrays live in one complex buffer per thread, `workspace`, which
grows to the largest request and is then reused: each block's table
Q_0..Q_n and the product buffers of `_slot_action`, the powers and terms of
`form_product` (and the gathered terms of `bw`'s distinct-direction route
and of its synthesis) are views into it, and the products write through
`out=` with one scratch term, so a warm call allocates no working array and
touches no fresh pages.  No kernel asks for the workspace while it holds
it.
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


def spinor_powers(x: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """The table (2, n+1, ...) of the powers x_a^j, j = 0..n, of the spinors
    x (..., 2), batch-last, written to `out` when given; `power_row` reads
    from it the rows of r <= n copies of x."""
    x = np.moveaxis(np.asarray(x), -1, 0)
    powers = (np.empty((2, n + 1) + x.shape[1:], dtype=np.result_type(x, float))
              if out is None else out)
    powers[:, 0] = 1.0
    if n:
        powers[:, 1] = x
    # one product per power: np.cumprod along this axis loops per sample
    for j in range(2, n + 1):
        np.multiply(powers[:, j - 1], powers[:, 1], out=powers[:, j])
    return powers


def power_row(powers: np.ndarray, r: int, binomial: int = 0,
              out: np.ndarray | None = None) -> np.ndarray:
    """The row C(r, a)^binomial x0^(r-a) x1^a, a = 0..r, (r+1, ...), of r
    copies of the spinor x on every slot, from its table of powers, written
    to `out` when given: the graded components (binomial 0) or their
    contraction weights (1), the coefficients of (x0 + x1 y)^r."""
    row = np.multiply(powers[0, r::-1], powers[1, :r + 1], out=out)
    if binomial:
        row *= _binomials(r).reshape((r + 1,) + (1,) * (row.ndim - 1))
    return row


def contract_rows(row: np.ndarray, member: np.ndarray, col: np.ndarray) -> np.ndarray:
    """sum_ab row_a member_ab col_b of a batch-last member (r+1, s+1, ...),
    summed over the columns first and then over the rows; the batch axes
    broadcast from the right."""
    return np.einsum("a...,a...->...", row, np.einsum("ab...,b...->a...", member, col))


def slot_sum(c: np.ndarray, m: np.ndarray, axis: int) -> np.ndarray:
    """The sum over the slots of one group of a 2x2 generator m acting on
    that slot alone, of the graded member c (..., r+1, s+1), the group at
    `axis` (-2 unprimed, -1 primed); m (..., 2, 2) broadcasts against the
    batch axes of c.  Of the slots of an entry with i ones, r - i hold a 0
    and i a 1, so c_i maps to (r - i)(m00 c_i + m01 c_{i+1}) + i(m11 c_i +
    m10 c_{i-1}).  It runs batch-last, as the other kernels do."""
    groups = (axis, -1 if axis == -2 else -2)
    c = np.ascontiguousarray(np.moveaxis(np.asarray(c), groups, (0, 1)))
    m = np.asarray(m)
    i = np.arange(len(c), dtype=float).reshape((-1,) + (1,) * (c.ndim - 1))
    out = (len(c) - 1 - i) * (m[..., 0, 0] * c) + i * (m[..., 1, 1] * c)
    out[:-1] += (len(c) - 1 - i[:-1]) * (m[..., 0, 1] * c[1:])
    out[1:] += i[1:] * (m[..., 1, 0] * c[:-1])
    return np.moveaxis(out, (0, 1), groups)


def sym_power_matrices(m: np.ndarray, n: int, out: np.ndarray | None = None,
                       scratch: np.ndarray | None = None) -> list[np.ndarray]:
    """Matrices Q_0..Q_n of a batch of 2x2 matrices on the binary forms of
    degree r, batch-last: m is (..., 2, 2) and Q_r is (r+1, r+1, ...).

    Q_r[i, j] = [y^j] (m10 + m11 y)^i (m00 + m01 y)^(r-i): m acting on each
    of r symmetric slots maps their graded components c to Q_r c, and
    Q_r(m m') = Q_r(m) Q_r(m').  Built by the two-term recurrence: row i < r
    of Q_r is row i of Q_{r-1} times m00 + m01 y, and row r is row r-1 of
    Q_{r-1} times m10 + m11 y.

    The Q_r are contiguous views into one table (power_size(n), ...), `out`
    when given; `scratch`, a flat complex buffer of at least n^2 entries per
    sample, holds each y-shifted product of the recurrence.  Both are
    allocated when not given.
    """
    m = np.moveaxis(np.asarray(m, dtype=complex), (-2, -1), (0, 1))
    batch = m.shape[2:]
    if out is None:
        out = np.empty((power_size(n),) + batch, dtype=complex)
    if scratch is None:
        scratch = np.empty(n * n * prod(batch), dtype=complex)
    out[0] = 1.0
    powers = [out[:1].reshape((1, 1) + batch)]
    for r in range(1, n + 1):
        start, last = power_size(r - 1), powers[-1]
        q = out[start:start + (r + 1) ** 2].reshape((r + 1, r + 1) + batch)
        term = _views(scratch, (r, r - 1) + batch)[0]
        for rows, prev, (b0, b1) in ((q[:r], last, m[0]), (q[r:], last[r - 1:], m[1])):
            np.multiply(b0, prev, out=rows[:, :r])
            np.multiply(b1, prev[:, r - 1], out=rows[:, r])
            rows[:, 1:r] += np.multiply(b1, prev[:, :r - 1], out=term[:len(rows)])
        powers.append(q)
    return powers


def form_product(m: np.ndarray, c: np.ndarray, out: np.ndarray, budget: int) -> np.ndarray:
    """Q_n(m) c of one graded column c (n+1, S), m (S, 2, 2), written to out
    (n+1, S), whose rows hold their samples contiguously, without the table
    of `sym_power_matrices`.

    C(n, j) Q_n(m)[j, i] = C(n, i) Q_n(m^T)[i, j], so with A = m01 + m11 y
    and B = m00 + m10 y, (Q_n(m) c)_j C(n, j) is the coefficient of y^j in
    the product of binary forms sum_i w_i A^i B^(n-i), w_i = C(n, i) c_i.
    One Horner pass in A builds it, H_0 = w_n and H_k = H_{k-1} A +
    w_{n-k} B^k, with the rows of B^k read by `power_row` from one table of
    the powers of (m00, m10): O(n^2) products per sample where the table
    holds O(n^3) entries.  H grows in `out`; the powers, the weights, A and
    one row of terms are views of this thread's `workspace`, for blocks of
    samples that fit `budget` bytes.
    """
    n = len(c) - 1
    size = 4 * (n + 1) + 2
    parts = _blocks(m.shape[0], size, budget)
    binomials = _binomials(n)[:, None]
    with workspace(size * (parts[0].stop if parts else 0)) as buf:
        for part in parts:
            count = part.stop - part.start
            powers, w, term, a = _views(buf, (2, n + 1, count), (n + 1, count),
                                        (n + 1, count), (2, count))
            spinor_powers(m[part, :, 0], n, powers)
            np.copyto(a, m[part, :, 1].T)
            np.multiply(c[:, part], binomials, out=w)
            h = out[:, part]
            h[0] = w[n]
            for k in range(1, n + 1):
                # H_{k-1} A: the y-shift of the product by a1 joins its product by a0
                np.multiply(h[:k], a[1], out=term[:k])
                np.multiply(h[:k], a[0], out=h[:k])
                h[k] = term[k - 1]
                h[1:k] += term[:k - 1]
                row = power_row(powers, k, 1, out=term[:k + 1])
                row *= w[n - k]
                h[:k + 1] += row
            re_im = h.view(float)     # both parts divided alike, no complex division
            re_im /= binomials
    return out


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
    the workspace is held raises RuntimeError: no kernel nests them.
    """
    ws = getattr(_threads, "ws", None)
    if ws is None:
        ws = _threads.ws = _Workspace()
    if ws.busy:
        raise RuntimeError("this thread's workspace is already held")
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


def _slot_action(a: np.ndarray, members: list, out: list, budget: int) -> None:
    """The members moved by a on every unprimed slot and conj(a) on every
    primed one, x = Q_r(a) c conj(Q_s(a))^T, written to out.

    a is (S, 2, 2); members and out are matching lists of batch-last
    (r+1, s+1, S) arrays.  One `sym_power_matrices` table Q_0..Q_n, n the
    largest r + s, per block of samples serves every member; a block's table
    and products fit `budget` bytes and are views of this thread's
    `workspace`, so a warm call allocates no working array.  Each member's
    block is conjugated into the workspace, moved there, and copied once
    into out.
    """
    n = max(c.shape[0] + c.shape[1] - 2 for c in members)
    size = power_size(n)
    # three arrays of the largest member (its conjugate, then the move; a
    # product; a term), or a term of the powers
    products = max(3 * max(c.shape[0] * c.shape[1] for c in members), n * n)
    parts = _blocks(a.shape[0], size + products, budget)
    most = parts[0].stop if parts else 0
    with workspace((size + products) * most) as buf:
        for part in parts:
            count = part.stop - part.start
            table, rest = _views(buf, (size, count), (products * count,))
            # Q_r(a)^T by rows: the columns of Q_r(a), and the rows of Q_s(a)^T
            powers = [np.swapaxes(q, 0, 1) for q in sym_power_matrices(a[part], n, table, rest)]
            for c, o in zip(members, out):
                r, s = c.shape[0] - 1, c.shape[1] - 1
                x, t, term = _views(rest, *3 * [(r + 1, s + 1, count)])
                np.conj(c[..., part], out=x)
                matmul_last(np.swapaxes(x, 0, 1), powers[s], t, term)
                np.conj(t, out=t)
                np.copyto(o[..., part], matmul_last(powers[r], t, x, term))
