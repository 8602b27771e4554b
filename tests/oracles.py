"""Brute-force reference implementations used as independent oracles.

The oracles enumerate index tuples in plain Python and accumulate with
scalar arithmetic, deliberately sharing no code path with the vectorized
production routines.  Three vectorized helpers sit beside them: the dense
(2,)*(r+s) expansion of graded storage and its inverse;
`contract_T_dense`, the distinct-direction T route that expanded every
labelled member to its 2^n dense entries (`bw` now reads T through its
components on the monomials of the dyad entries; `contract_T_dense` is that
route's reference for n <= 8); and `sym_outer` and `contract_full`, the
graded symmetrized product of one spinor factor per slot, a route that no
production path takes since the slot action took over synthesis.
"""

from __future__ import annotations

import itertools
import string
from functools import lru_cache

import numpy as np

from bwspinor import core
from bwspinor.errors import ValenceMismatch
from bwspinor.multispinor import SymMultiSpinor, _binomials


def dyad_up(t: np.ndarray) -> np.ndarray:
    return np.einsum('aij,a->ij', core.G_UP, np.asarray(t, dtype=float))


# ---------------------------------------------------------------------------
# dense (2,)*(r+s) expansion of graded symmetric storage

@lru_cache(maxsize=None)
def _bitcounts(r: int) -> np.ndarray:
    return np.array([bin(i).count("1") for i in range(2 ** r)])


@lru_cache(maxsize=None)
def _class_average(r: int) -> np.ndarray:
    """Matrix (2^r, r+1) averaging dense positions into graded classes."""
    bits = _bitcounts(r)
    w = np.zeros((2 ** r, r + 1))
    for d, b in enumerate(bits):
        w[d, b] = 1.0
    return w / w.sum(axis=0, keepdims=True)


def dense_from_graded(comp: np.ndarray, r: int, s: int) -> np.ndarray:
    comp = np.asarray(comp)
    flat = comp[..., _bitcounts(r)[:, None], _bitcounts(s)[None, :]]
    return flat.reshape(comp.shape[:-2] + (2,) * (r + s))


def dense(t) -> np.ndarray:
    """Expansion of a SymMultiSpinor to shape (..., 2,...,2), r unprimed axes
    then s primed."""
    return dense_from_graded(t.comp, t.r, t.s)


def graded_from_dense(dense: np.ndarray, r: int, s: int) -> np.ndarray:
    """Class averages of a dense tensor; exact inverse on symmetric input."""
    dense = np.asarray(dense)
    flat = dense.reshape(dense.shape[: dense.ndim - (r + s)] + (2 ** r, 2 ** s))
    return np.einsum('...DE,Di,Ej->...ij', flat, _class_average(r), _class_average(s))


def symmetry_residual(dense: np.ndarray, r: int, s: int) -> float:
    """Max deviation of a dense tensor from its symmetrized self."""
    sym = dense_from_graded(graded_from_dense(dense, r, s), r, s)
    return float(np.max(np.abs(dense - sym)))


def dense_pattern(psi, primed_at: tuple[int, ...]) -> np.ndarray:
    """Dense member of the labelled family with primed indices at the given
    slots (single unbatched component)."""
    n = psi.n
    k = len(primed_at)
    comp = psi.comps[k].comp
    out = np.zeros((2,) * n, dtype=complex)
    unprimed_at = [i for i in range(n) if i not in primed_at]
    for idx in itertools.product(range(2), repeat=n):
        i = sum(idx[j] for j in unprimed_at)
        j = sum(idx[j] for j in primed_at)
        out[idx] = comp[i, j]
    return out


def contract_T_bruteforce(psi, ts: list[np.ndarray]) -> float:
    """t_1...t_n T by looping over every labelled member and index pair."""
    n = psi.n
    tds = [dyad_up(t) for t in ts]
    total = 0.0 + 0.0j
    kmax = psi.n if psi.mass > 0 else 0
    for k in range(kmax + 1):
        for primed_at in itertools.combinations(range(n), k):
            member = dense_pattern(psi, primed_at)
            for idx in itertools.product(range(2), repeat=n):
                for jdx in itertools.product(range(2), repeat=n):
                    w = member[idx] * np.conj(member[jdx])
                    for slot in range(n):
                        if slot in primed_at:
                            w *= tds[slot][jdx[slot], idx[slot]]
                        else:
                            w *= tds[slot][idx[slot], jdx[slot]]
                    total += w
    return float(np.real(total))


_PSI = string.ascii_uppercase
_BAR = string.ascii_lowercase


def _pattern_contraction(dense: np.ndarray, tdy: np.ndarray, n: int,
                         primed_at: tuple[int, ...]) -> np.ndarray:
    """Contract one labelled member with its conjugate and one dyad per slot.

    dense holds the canonical (unprimed..., primed...) axis order; primed_at
    assigns those axes to world slots and fixes the pairing orientation.
    """
    r = n - len(primed_at)
    unprimed_at = tuple(i for i in range(n) if i not in primed_at)
    subs = ["..." + _PSI[:n], "..." + _BAR[:n]]
    ops = [dense, np.conj(dense)]
    for axis in range(n):
        slot = unprimed_at[axis] if axis < r else primed_at[axis - r]
        pair = (_PSI[axis] + _BAR[axis]) if axis < r else (_BAR[axis] + _PSI[axis])
        subs.append("..." + pair)
        ops.append(tdy[slot])
    return np.einsum(",".join(subs) + "->...", *ops, optimize=True)


def contract_T_dense(psi, ts: np.ndarray) -> np.ndarray:
    """t_1...t_n T over every labelled member expanded to 2^n dense entries,
    one einsum per member; batched, ts of shape (n, ..., 4)."""
    n = psi.n
    tdy = core.vector_to_dyad(ts, "up")
    total = 0.0
    for k, comp in enumerate(psi.comps):
        member = dense_from_graded(comp.comp, n - k, k)
        for primed_at in itertools.combinations(range(n), k):
            total = total + _pattern_contraction(member, tdy, n, primed_at)
    return np.real(total)


def _lower(kappa) -> list:
    """kappa_A = kappa^B eps_{BA} with eps_{01} = +1."""
    return [-kappa[1], kappa[0]]


def synth_bruteforce(frame, f: np.ndarray, sign: int, n_scale) -> list[np.ndarray]:
    """Graded members (S, r+1, k+1) of the chi tensor-product expansion.

    Per sample, an unprimed slot carries u- = -pi_A or u+ = sign omega_A and a
    primed slot v- = -sign omegabar_A' or v+ = -pibar_A'; every routing of the
    plus factors adds f_(number of plus factors) times the product of the
    slot factors at the entry's indices.  Entry [i, j] of member k is read
    at the index tuple with i unprimed and j primed ones, each group ones first.
    """
    f = np.asarray(f, dtype=complex)
    count, n = f.shape[0], f.shape[1] - 1
    members = [np.zeros((count, n - k + 1, k + 1), dtype=complex) for k in range(n + 1)]
    for s in range(count):
        pil, oml = _lower(frame.pi[s]), _lower(frame.omega[s])
        u = [[-x for x in pil], [sign * x for x in oml]]
        v = [[-sign * np.conj(x) for x in oml], [-np.conj(x) for x in pil]]
        scale = complex(np.broadcast_to(n_scale, (count,))[s]) ** n
        for k in range(n + 1):
            r = n - k
            for i in range(r + 1):
                for j in range(k + 1):
                    idx = (1,) * i + (0,) * (r - i)
                    jdx = (1,) * j + (0,) * (k - j)
                    val = 0.0 + 0.0j
                    for sigma in itertools.product(range(2), repeat=r):
                        for tau in itertools.product(range(2), repeat=k):
                            w = f[s, sum(sigma) + sum(tau)]
                            for slot in range(r):
                                w *= u[sigma[slot]][idx[slot]]
                            for slot in range(k):
                                w *= v[tau[slot]][jdx[slot]]
                            val += w
                    members[k][s, i, j] = scale * val
    return members


def extract_bruteforce(psi, frame, n_scale: complex) -> np.ndarray:
    """Amplitudes via explicit sums of omega contractions."""
    n = psi.n
    om = frame.omega
    omb = np.conj(frame.omega)
    out = []
    for k in range(n + 1):
        r = n - k
        dense = dense_pattern(psi, tuple(range(r, n)))
        val = 0.0 + 0.0j
        for idx in itertools.product(range(2), repeat=n):
            w = dense[idx]
            for slot in range(r):
                w *= om[idx[slot]]
            for slot in range(r, n):
                w *= omb[idx[slot]]
            val += w
        out.append(val / n_scale ** n)
    return np.array(out)


def field_equation_residual_loop(psi) -> float:
    """Both momentum-space equation families of a single massive component,
    contracting the last unprimed slot of member k (the first primed slot of
    member k+1) index tuple by index tuple; relative to the same scale as
    `bw.field_equation_residual_massive`."""
    n, m, e = psi.n, psi.mass, psi.sign
    pul, plu = vector_to_dyad_loop(psi.p, "ul"), vector_to_dyad_loop(psi.p, "lu")
    c = m / 2 ** 0.5
    worst = 0.0
    for k in range(n):
        r = n - k
        lo = dense_pattern(psi, tuple(range(r, n)))
        hi = dense_pattern(psi, tuple(range(r - 1, n)))
        for idx in itertools.product(range(2), repeat=n):
            z = idx[r - 1]
            at = [idx[:r - 1] + (b,) + idx[r:] for b in range(2)]
            lhs = e * sum(pul[b, z] * lo[at[b]] for b in range(2))
            worst = max(worst, abs(lhs + c * hi[idx]))
            lhs2 = e * sum(plu[z, b] * hi[at[b]] for b in range(2))
            worst = max(worst, abs(lhs2 - c * lo[idx]))
    scale = max(1.0, max(float(np.max(np.abs(x.comp))) for x in psi.comps)
                * max(float(np.max(np.abs(psi.p))), m))
    return worst / scale


def helicity_residual_loop(psi) -> float:
    """max_{a, idx} |sum_slots S^a psi + (n/2) p^a psi| of a single massless
    component, slot by slot over index tuples, with S^a from
    `pl_momentum_rep_loop`; relative as in `bw.helicity_residual_massless`."""
    n = psi.n
    s_op = pl_momentum_rep_loop(psi.p)[0]
    member = dense_pattern(psi, ())
    worst = 0.0
    for a in range(4):
        for idx in itertools.product(range(2), repeat=n):
            val = 0.5 * n * psi.p[a] * member[idx]
            for slot in range(n):
                for b in range(2):
                    at = idx[:slot] + (b,) + idx[slot + 1:]
                    val += s_op[a, idx[slot], b] * member[at]
            worst = max(worst, abs(val))
    scale = max(1.0, float(np.max(np.abs(member))) * float(np.max(np.abs(psi.p))))
    return worst / scale


def hertz_loop(xi, p, sign: int) -> np.ndarray:
    """Dense (-+i)^n p_{A_1 A'_1}...p_{A_n A'_n} xi^{A'_1...A'_n} of a single
    all-primed xi, contracting one slot at a time over index tuples."""
    n = xi.s
    pl = vector_to_dyad_loop(p, "low")
    out = dense_from_graded(xi.comp, 0, n)
    for slot in range(n):
        nxt = np.zeros_like(out)
        for idx in itertools.product(range(2), repeat=n):
            nxt[idx] = sum(pl[idx[slot], b] * out[idx[:slot] + (b,) + idx[slot + 1:]]
                           for b in range(2))
        out = nxt
    return (-1j * sign) ** n * out


def symmetrize_bruteforce(dense: np.ndarray, r: int, s: int) -> np.ndarray:
    """Average over all permutations within each index group."""
    out = np.zeros_like(dense)
    count = 0
    for pu in itertools.permutations(range(r)):
        for pv in itertools.permutations(range(s)):
            axes = [pu[i] for i in range(r)] + [r + pv[i] for i in range(s)]
            out = out + np.transpose(dense, axes)
            count += 1
    return out / count


def sym_outer_bruteforce(unprimed: list[np.ndarray],
                         primed: list[np.ndarray]) -> np.ndarray:
    """Symmetrized outer product built densely from permutations."""
    r, s = len(unprimed), len(primed)
    dense = np.ones((), dtype=complex)
    for f in unprimed + primed:
        dense = np.multiply.outer(dense, np.asarray(f, dtype=complex))
    return symmetrize_bruteforce(dense.reshape((2,) * (r + s)), r, s)


# ---------------------------------------------------------------------------
# the symmetrized outer product of one factor per slot

def _sym_power_coeffs(factors: list[np.ndarray]) -> np.ndarray:
    """Graded components of the symmetrized outer product of 2-spinors.

    Multiplying the linear forms (x0 + x1 z) and dividing the coefficients by
    binomials realizes the normalized symmetrization (1/r!) sum over
    permutations.
    """
    r = len(factors)
    if r == 0:
        return np.ones((1,), dtype=complex)
    c = np.zeros(np.broadcast_shapes(*(f.shape[:-1] for f in factors)) + (r + 1,),
                 dtype=complex)
    c[..., 0] = 1.0
    deg = 0
    for f in factors:
        nxt = np.zeros_like(c)
        nxt[..., :deg + 1] += c[..., :deg + 1] * f[..., 0, None]
        nxt[..., 1:deg + 2] += c[..., :deg + 1] * f[..., 1, None]
        c = nxt
        deg += 1
    return c / _binomials(r)


def sym_outer(unprimed: list[np.ndarray], primed: list[np.ndarray]) -> SymMultiSpinor:
    """Normalized symmetrized outer product of individual spinor factors."""
    u = [np.asarray(f, dtype=complex) for f in unprimed]
    v = [np.asarray(f, dtype=complex) for f in primed]
    cu = _sym_power_coeffs(u)
    cv = _sym_power_coeffs(v)
    comp = np.einsum('...i,...j->...ij', cu, cv)
    return SymMultiSpinor(len(u), len(v), comp)


def contract_full(t: SymMultiSpinor, unprimed: list[np.ndarray],
                  primed: list[np.ndarray]) -> np.ndarray:
    """Full contraction with one spinor per slot (contraction is a plain sum,
    so factors must carry the opposite index height).

    The sum over all index tuples with i unprimed and j primed 1-values is
    C(r,i) C(s,j) times the graded components of the factors' symmetrized
    product, so no dense expansion is needed.
    """
    if len(unprimed) != t.r or len(primed) != t.s:
        raise ValenceMismatch(
            f"need {t.r} unprimed and {t.s} primed factors, "
            f"got {len(unprimed)} and {len(primed)}")
    cu = _sym_power_coeffs([np.asarray(f, dtype=complex) for f in unprimed])
    cv = _sym_power_coeffs([np.asarray(f, dtype=complex) for f in primed])
    return np.einsum('...ij,...i,...j->...', t.comp,
                     _binomials(t.r) * cu, _binomials(t.s) * cv)


def standard_sum_bruteforce(psi) -> float:
    """Sum of |component|^2 over every labelled member and index value."""
    n = psi.n
    total = 0.0
    kmax = psi.n if psi.mass > 0 else 0
    for k in range(kmax + 1):
        for primed_at in itertools.combinations(range(n), k):
            member = dense_pattern(psi, primed_at)
            total += float(np.sum(np.abs(member) ** 2))
    return total


# ---------------------------------------------------------------------------
# constant-coefficient maps of core and pauli_lubanski, one batch entry at a
# time, from the conventions written out again as plain Python lists:
# sigma_a = (1, sigma_x, sigma_y, sigma_z), g_a^{AA'} = sigma_a / sqrt2,
# eps_{01} = eps^{01} = +1, metric (+, -, -, -).

_SIGMA = (((1, 0), (0, 1)), ((0, 1), (1, 0)),
          ((0, -1j), (1j, 0)), ((1, 0), (0, -1)))
_EPS = ((0, 1), (-1, 0))
_METRIC = (1, -1, -1, -1)
_R2 = 2 ** 0.5


def _g_up(a, i, j):
    return _SIGMA[a][i][j] / _R2


def _g_low(a, i, j):
    """g_{aAA'} = g_a^{BB'} eps_{BA} eps_{B'A'}."""
    return sum(_EPS[b][i] * _g_up(a, b, c) * _EPS[c][j]
               for b in range(2) for c in range(2))


def _dyad_one(v, valence):
    up = [[sum(v[a] * _g_up(a, i, j) for a in range(4)) for j in range(2)]
          for i in range(2)]
    low = [[sum(v[a] * _g_low(a, i, j) for a in range(4)) for j in range(2)]
           for i in range(2)]
    if valence == "up":
        return up
    if valence == "low":
        return low
    if valence == "lu":     # p_A^{A'} = eps^{A'B'} p_{AB'}
        return [[sum(_EPS[j][c] * low[i][c] for c in range(2)) for j in range(2)]
                for i in range(2)]
    if valence == "ul":     # p^A_{A'} = eps^{AB} p_{BA'}
        return [[sum(_EPS[i][b] * low[b][j] for b in range(2)) for j in range(2)]
                for i in range(2)]
    raise ValueError(f"unknown valence {valence!r}")


def vector_to_dyad_loop(p, valence: str = "up") -> np.ndarray:
    p = np.asarray(p)
    out = np.zeros(p.shape[:-1] + (2, 2), dtype=complex)
    for idx in np.ndindex(p.shape[:-1]):
        v = [complex(x) for x in p[idx]]
        out[idx] = _dyad_one(v, valence)
    return out


def dyad_to_vector_loop(d, valence: str = "up") -> np.ndarray:
    """p^a = (1/sqrt2) tr(sigma_a d^{up}); a "low" dyad is raised with eps first."""
    d = np.asarray(d)
    out = np.zeros(d.shape[:-2] + (4,), dtype=complex)
    for idx in np.ndindex(d.shape[:-2]):
        m = [[complex(d[idx][i, j]) for j in range(2)] for i in range(2)]
        if valence == "low":    # p^{AA'} = eps^{AB} eps^{A'B'} p_{BB'}
            m = [[sum(_EPS[i][b] * m[b][c] * _EPS[j][c]
                      for b in range(2) for c in range(2)) for j in range(2)]
                 for i in range(2)]
        elif valence != "up":
            raise ValueError(f"unknown valence {valence!r}")
        out[idx] = [sum(_SIGMA[a][j][i] * m[i][j] for i in range(2) for j in range(2)) / _R2
                    for a in range(4)]
    return out


def lorentz_from_sl2c_loop(a) -> np.ndarray:
    """Lambda^a_b = (1/2) Re tr(sigma_a A sigma_b A^dagger)."""
    a = np.asarray(a)
    out = np.zeros(a.shape[:-2] + (4, 4))
    for idx in np.ndindex(a.shape[:-2]):
        m = a[idx]
        for r in range(4):
            for c in range(4):
                val = 0j
                for i, j, k, l in itertools.product(range(2), repeat=4):
                    val += (_SIGMA[r][l][i] * m[i, j] * _SIGMA[c][j][k]
                            * np.conj(m[l, k]))
                out[idx + (r, c)] = 0.5 * val.real
    return out


def pair_to_world_loop(x) -> np.ndarray:
    """x_ab = g_a^{AA'} g_b^{BB'} x_{AA'BB'}."""
    x = np.asarray(x)
    out = np.zeros(x.shape[:-4] + (4, 4), dtype=complex)
    for idx in np.ndindex(x.shape[:-4]):
        for a, b in itertools.product(range(4), repeat=2):
            out[idx + (a, b)] = sum(
                _g_up(a, i, m) * _g_up(b, j, n) * x[idx + (i, m, j, n)]
                for i, m, j, n in itertools.product(range(2), repeat=4))
    return out


def pl_momentum_rep_loop(p) -> tuple[np.ndarray, np.ndarray]:
    """S^a(p) = -(1/2)(p_{XE'} g^{aYE'} - g^a_{XE'} p^{YE'}) on the unprimed
    block and (1/2)(p_{EX'} g^{aEY'} - g^a_{EX'} p^{EY'}) on the primed one,
    with g^a = METRIC^{aa} g_a."""
    p = np.asarray(p, dtype=float)
    unprimed = np.zeros(p.shape[:-1] + (4, 2, 2), dtype=complex)
    primed = np.zeros_like(unprimed)
    for idx in np.ndindex(p.shape[:-1]):
        v = [float(x) for x in p[idx]]
        pl, pu = _dyad_one(v, "low"), _dyad_one(v, "up")
        for a, x, y in itertools.product(range(4), range(2), range(2)):
            eta = _METRIC[a]
            unprimed[idx + (a, x, y)] = -0.5 * sum(
                pl[x][e] * eta * _g_up(a, y, e) - eta * _g_low(a, x, e) * pu[y][e]
                for e in range(2))
            primed[idx + (a, x, y)] = 0.5 * sum(
                pl[e][x] * eta * _g_up(a, e, y) - eta * _g_low(a, e, x) * pu[e][y]
                for e in range(2))
    return unprimed, primed


def pl_project_loop(t, p) -> tuple[np.ndarray, np.ndarray]:
    """t_a S^a(p): (1/2)(t^Y_E p_X^E + t_{XE} p^{YE}) and its primed partner
    -(1/2)(t_E^{Y'} p^E_{X'} + t_{EX'} p^{EY'}); t and p broadcast."""
    t, p = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(p, dtype=float))
    unprimed = np.zeros(t.shape[:-1] + (2, 2), dtype=complex)
    primed = np.zeros_like(unprimed)
    for idx in np.ndindex(t.shape[:-1]):
        tv = [float(x) for x in t[idx]]
        pv = [float(x) for x in p[idx]]
        tul, tlu, tlow = (_dyad_one(tv, v) for v in ("ul", "lu", "low"))
        plu, pul, pup = (_dyad_one(pv, v) for v in ("lu", "ul", "up"))
        for x, y in itertools.product(range(2), repeat=2):
            unprimed[idx + (x, y)] = 0.5 * sum(
                tul[y][e] * plu[x][e] + tlow[x][e] * pup[y][e] for e in range(2))
            primed[idx + (x, y)] = -0.5 * sum(
                tlu[e][y] * pul[e][x] + tlow[e][x] * pup[e][y] for e in range(2))
    return unprimed, primed
