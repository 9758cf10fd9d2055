"""Cutoff specs, operator helpers and the eigenvector, fold, unfold, DFT, characteristic-polynomial and long-double oracles shared by the test modules."""

import math

from hypothesis import strategies as st
import numpy as np

import opencat.experiments as experiments
from opencat.catmap import CatMap
from opencat.eigensolver import match_distance, sort_by_modulus
from opencat.errors import NumericError
from opencat.hn import dft_sector, live_run, sector_basis, torus_rep_array, unfold_parity
from opencat.metaplectic import factor_sl2z
from opencat.quantizer import (BumpSpec, TorusSymbol, cutoff_profile, cutoff_symbol,
                               op_left_separable, op_weyl_sector, profile_sectors)

# The cutoffs of the README's example config and of the benchmark workloads.
TRAPPED_SPEC = BumpSpec("product_bump", 0.10, 0.20)
NONTRAP_SPEC = BumpSpec("annulus_product", 0.15, 0.24)

# The support-guard warning of a trapped sweep of TRAPPED_SPEC on Arnold's map.
GUARD_ADVISORY = ("cutoff support radius 0.2828 exceeds the guard limit 0.0955; the "
                  "trapped-limit theorem is only guaranteed for small enough support")

# A shear, ("U", b) for [[1, b], [0, 1]] or ("L", c) for [[1, 0], [c, 1]];
# products of two or more of them draw random SL(2,Z) maps, hyperbolic once
# their trace exceeds 2 in modulus.
shear = st.tuples(st.sampled_from(["U", "L"]),
                  st.integers(-3, 3).filter(lambda v: v != 0))


def shear_map(shears, negate=False):
    """The ordered product of the shears, times -I when negate."""
    m = CatMap(-1, 0, 0, -1) if negate else CatMap(1, 0, 0, 1)
    for kind, v in shears:
        m = m @ (CatMap(1, v, 0, 1) if kind == "U" else CatMap(1, 0, v, 1))
    return m


def shear_word(shears):
    """A word of the quantizer's letters for shear_map(shears), not factor_sl2z's.

    U(b) is a letter, and L(c) = S U(-c) S^-1 with S = -I S^-1 is the word
    PAR, S_INV, U(-c), S_INV.
    """
    word = []
    for kind, v in shears:
        word += [("U", v)] if kind == "U" else [("PAR",), ("S_INV",), ("U", -v), ("S_INV",)]
    return word


def guard_warnings(caplog):
    """The support-guard warnings logged since the last call, which clears them."""
    found = [message for message in caplog.messages
             if message.startswith("cutoff support radius")]
    caplog.clear()
    return found


def eigvec_matrix(m):
    """The det-1 eigenvector matrix Q of a hyperbolic cat map, with Q M Q^-1 = diag(mu+, mu-).

    The oracle for catmap.analyze's norm: unit right eigenvectors of M, for
    the eigenvalues mu+ = +-lam and mu- = +-1/lam signed as the trace, are
    the columns of P, scaled to det P = 1, and Q = P^-1.
    """
    mat = np.array([[m.a, m.b], [m.c, m.d]], dtype=float)
    tr = m.a + m.d
    lam = (abs(tr) + math.sqrt(tr * tr - 4)) / 2.0
    sign = -1.0 if tr < 0 else 1.0
    p = np.column_stack([_eigvec(mat, sign * lam), _eigvec(mat, sign / lam)])
    det_p = np.linalg.det(p)
    if det_p < 0:
        p[:, 1] *= -1.0
        det_p = -det_p
    p /= math.sqrt(det_p)
    q = np.linalg.inv(p)
    if q[0, 0] < 0:
        # flip both rows: keeps det, fixes the sign convention on column one
        q = -q
    return q


def _eigvec(mat, mu):
    a, b = mat[0]
    c, d = mat[1]
    if abs(b) > 1e-14:
        v = np.array([b, mu - a])
    elif abs(c) > 1e-14:
        v = np.array([mu - d, c])
    else:
        v = np.array([1.0, 0.0]) if abs(a - mu) < abs(d - mu) else np.array([0.0, 1.0])
    return v / np.linalg.norm(v)


def _fold_rows(x):
    """The rows of x (N rows) in the sector basis, as (even rows, odd rows)."""
    n = x.shape[0]
    h = n // 2
    j = np.arange(1, h)
    p, m = x[j], x[n - j]
    r = math.sqrt(0.5)
    return np.concatenate([x[:1], (p + m) * r, x[h:h + 1]]), (p - m) * r


def fold_pairs(d):
    """A diagonal in the sector basis, as (even, odd, defect), N even, by the pairwise formula.

    The oracle for hn.fold_parity and hn.parity_defect: a pair's entry in
    both sectors is the mean (d_j + d_{N-j})/2 and a fixed point keeps its
    entry; defect is the largest (d_j - d_{N-j})/2, the part that couples
    the sectors, relative to d's largest entry.
    """
    n = d.shape[0]
    h = n // 2
    j = np.arange(1, h)
    p, m = d[j], d[n - j]
    odd = (p + m) * 0.5
    scale = np.abs(d).max(initial=0.0)
    cross = np.abs(p - m).max(initial=0.0) * 0.5
    return np.concatenate([d[:1], odd, d[h:h + 1]]), odd, cross / scale if scale > 0 else 0.0


def chirp_diagonal(letter, n):
    """U(b)'s chirp e^{i pi coef m^2 / N}, coef = -b, on the N points, as metaplectic._chirp forms it."""
    coef = (n - letter[1]) % (2 * n) - n
    m = np.arange(n)
    return np.exp(1j * math.pi * coef * m * m / n)


def unfold_q(even, odd):
    """The N x N matrix with sector blocks even and odd, as the sum of Q_s^T B_s Q_s.

    The oracle for hn.unfold_parity: row s of Q_s is sector basis vector s
    in e_0..e_{N-1}, built from hn.sector_basis, and each sector's part is
    two dense products, O(N^3).
    """
    n = 2 * (len(even) - 1)
    out = np.zeros((n, n), dtype=complex)
    for parity, block in zip((1, -1), (even, odd)):
        index, partner, weight = sector_basis(n, parity)
        q = np.zeros((len(index), n))
        rows = np.arange(len(index))
        q[rows, partner] = parity * weight
        q[rows, index] = weight
        out += q.T @ block @ q
    return out


def fold_matrix(a):
    """An N x N matrix in the sector basis, as (even, odd, defect), N even.

    The oracle for quantizer.op_weyl_sector: the rows and then the columns
    of a are folded into the two sectors, the two blocks that couple them
    are dropped, and defect is their largest entry relative to a's largest
    entry: zero when a commutes with parity.
    """
    a = np.asarray(a)
    scale = np.abs(a).max(initial=0.0)
    even_rows, odd_rows = _fold_rows(a)
    even_t, even_odd = _fold_rows(even_rows.T)
    odd_even, odd_t = _fold_rows(odd_rows.T)
    cross = max(np.abs(even_odd).max(initial=0.0), np.abs(odd_even).max(initial=0.0))
    return even_t.T, odd_t.T, cross / scale if scale > 0 else 0.0


def dft_matrix(n):
    """The N x N unitary DFT with kernel N^{-1/2} exp(-2 pi i m k / N).

    The oracle for hn.dft_sector: the same expression for every entry, with
    m k not reduced mod N.
    """
    m = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(m, m) / n) / math.sqrt(n)


def dft_sectors_oracle(n):
    """hn.dft_sector's two blocks from complex exponentials on the full blocks, as (F_even, F_odd, defect).

    Each pass of a few rows evaluates the four kernel values
    exp(-2 pi i p / N) / sqrt(N) at p = j k, j (N - k), (N - j) k and
    (N - j)(N - k) on every column, p not reduced mod N, and adds them in
    the order dft_sector does.  defect is the largest entry of the block
    that couples the sectors, relative to the kernel's modulus N^{-1/2},
    which dft_sector does not form.  N must be even.
    """
    h = n // 2
    idx = np.arange(h + 1)
    fixed = (idx == 0) | (idx == h)
    partner = np.where(fixed, idx, n - idx)
    weight = np.where(fixed, 0.5, math.sqrt(0.5))

    def kernel(p):
        return np.exp(-2j * np.pi * p / n) / math.sqrt(n)

    even = np.empty((h + 1, h + 1), dtype=complex)
    odd = np.empty((h - 1, h - 1), dtype=complex)
    cross = 0.0
    for start in range(0, h + 1, 64):
        rows = slice(start, min(start + 64, h + 1))
        j, pj = idx[rows, None], partner[rows, None]
        direct, far = kernel(j * idx), kernel(pj * partner)
        near, back = kernel(j * partner), kernel(pj * idx)
        same, swapped = direct + far, near + back
        even[rows] = (same + swapped) * (weight[rows, None] * weight)
        pairs = ~fixed[rows]
        odd[j[pairs, 0] - 1] = (same - swapped)[pairs, 1:h] * 0.5
        coupling = ((direct - far) + (back - near))[:, 1:h] * weight[rows, None]
        cross = max(cross, np.abs(coupling).max(initial=0.0) * math.sqrt(0.5))
    return even, odd, cross * math.sqrt(n)


def both_sectors(build, *args):
    """(even, odd) from a function that builds one sector, called with args and then the parity, +1 or -1."""
    return build(*args, 1), build(*args, -1)


def built(cutoff, n):
    """The two sectors of a cutoff from cutoff_sectors at N, each built, as (live, factor, rows).

    A sector's live rows are factor @ rows, or rows when factor is None.
    On the left route factor is op_left_separable's on the sector's DFT
    block and rows are the block's live rows; on the Weyl route there is
    no factor and rows are the symbol's sector block (op_weyl_sector).
    """
    out = []
    for parity, live, part in cutoff[1]:
        if isinstance(part, TorusSymbol):
            out.append((live, None, op_weyl_sector(part, n, parity)))
        else:
            f = dft_sector(n, parity)
            out.append((live, op_left_separable(part, f), f[live]))
    return out


def left_sectors(profile, n):
    """built for the left cutoff of a profile folded at N (profile_sectors), whatever its parity defect."""
    even, odd, defect = profile_sectors(profile, n)
    return built((defect, ((1, live_run(even), even), (-1, live_run(odd), odd))), n)


def live_rows(cutoff):
    """The live rows of both sectors of a cutoff from cutoff_sectors."""
    return sum(live.stop - live.start for _, live, _ in cutoff[1])


def open_sectors(m, spec, n):
    """The open operator's two sectors for spec's cutoff at N, as (live, block from build_open_operator)."""
    return [(sector[1], experiments.build_open_operator(m, sector, n))
            for sector in experiments.cutoff_sectors(spec, n)[1]]


def spectrum(m, spec, n):
    """open_spectrum with spec's cutoff prepared at N."""
    return experiments.open_spectrum(m, experiments.cutoff_sectors(spec, n), n)


def dense_operator(sectors, n):
    """The N x N matrix of a cutoff from its two sectors, as built or left_sectors give them.

    Each sector is (live, factor, rows): its rows live are factor @ rows,
    or rows when factor is None, and its other rows are zero.
    """
    blocks = []
    for (live, factor, rows), size in zip(sectors, (n // 2 + 1, n // 2 - 1)):
        block = np.zeros((size, size), dtype=complex)
        block[live] = rows if factor is None else factor @ rows
        blocks.append(block)
    return unfold_parity(*blocks)


def live_operator(sectors, n):
    """The N x N matrix with each sector's live x live block, as open_sectors gives them, in place, zeros elsewhere.

    With its dead rows permuted last a sector of the open operator is
    [[B_LL, B_LD], [0, 0]], so this matrix has the operator's spectrum and
    the traces of its powers.
    """
    blocks = []
    for (live, block), size in zip(sectors, (n // 2 + 1, n // 2 - 1)):
        live = np.arange(size)[live]
        full = np.zeros((size, size), dtype=complex)
        full[np.ix_(live, live)] = block
        blocks.append(full)
    return unfold_parity(*blocks)


def operator_sectors(a, dead=None):
    """A stand-in for build_open_operator that gives the sectors of the N x N matrix a.

    dead marks rows of a that are zero, a set closed under parity; a
    sector's live rows are the others, every row when dead is None, and
    its block, for the sector's parity, is the live x live part of the
    folded matrix.
    """
    n = a.shape[0]
    h = n // 2
    even, odd, _ = fold_matrix(a)
    dead = np.zeros(n, dtype=bool) if dead is None else np.asarray(dead)
    live_e, live_o = np.flatnonzero(~dead[:h + 1]), np.flatnonzero(~dead[1:h])
    blocks = {1: even[np.ix_(live_e, live_e)], -1: odd[np.ix_(live_o, live_o)]}
    return lambda m, sector, n: blocks[sector[0]]


def odd_term_symbol(spec):
    """The cutoff's symbol plus 0.5 e^{2 pi i x}: a term that parity (x, xi) -> (-x, -xi)
    does not fix, so its Weyl quantization couples the sectors at O(1)."""
    sym = cutoff_symbol(spec)
    table = sym.table.copy()
    table[sym.k_max + 1, sym.k_max] += 0.5
    return TorusSymbol(table)


def nan_in_dead_column(monkeypatch):
    """Make the left cutoff carry a NaN in its live even rows, at a dead column.

    The word's rows on the even sector, a read-only view of the DFT block's
    live rows, are copied and the copy gets a NaN at row 0 and column N/2:
    the bump's even run starts at index 0 and ends before N/2, so row 0 is
    live and column N/2 dead.  The factor and the word's DFT block stay
    finite, and every live row the factor mixes row 0 into has the NaN.
    """
    word = experiments.apply_word

    def poisoned(x, letters, f, n, parity, **kwargs):
        if f is not None and parity == 1:
            x = x.copy()
            x[0, n // 2] = np.nan
        return word(x, letters, f, n, parity, **kwargs)

    monkeypatch.setattr(experiments, "apply_word", poisoned)


def _unit_roots(period):
    """exp(2 pi i p / period) for p = 0..period - 1, in long double."""
    theta = np.arange(period, dtype=np.longdouble) * (8 * np.arctan(np.longdouble(1)) / period)
    return np.cos(theta) + 1j * np.sin(theta)


def long_double_operator(m, spec, n):
    """The left route's open operator on its live rows and columns, in the full space, in long double.

    The oracle for the trapped sweep's moduli: x87 long double has eps
    1.1e-19, and numpy 2 runs the FFT of a clongdouble array in it.  The
    live rows of diag(rho) F^dag diag(rho) F, rho the package's double
    profile at the points x_m, are rho_j g(j - l) with g = ifft(rho).  Each
    letter of factor_sl2z(m) acts on them from the right as in
    metaplectic.apply_word, by np.fft, with every chirp phase coef m^2
    reduced mod 2N in the integers.  The live columns are kept at the end.
    """
    rho = np.asarray(cutoff_profile(spec)(torus_rep_array(np.arange(n) / n)), dtype=float)
    live = np.flatnonzero(rho)
    g = np.fft.ifft(rho.astype(np.clongdouble))
    x = rho[live, None] * g[(live[:, None] - np.arange(n)) % n]
    omega, chirps = _unit_roots(8)[7], _unit_roots(2 * n)    # e^{-i pi/4}, e^{i pi p/N}
    root_n = np.sqrt(np.longdouble(n))
    squares = np.arange(n, dtype=np.int64) ** 2
    for letter in factor_sl2z(m):
        if letter[0] == "S_INV":
            x = np.fft.fft(x, axis=1) * (np.conj(omega) / root_n)
        elif letter[0] == "U":
            x = np.fft.ifft(np.fft.fft(x, axis=1) * chirps[-letter[1] * squares % (2 * n)], axis=1)
        else:  # PAR
            x = x[:, -np.arange(n) % n]
    return x[:, live]


def _lu_solve(lu, perm, b, adjoint=False):
    """Solve A x = b, or A^H x = b when adjoint, from A[perm] = L U packed in lu."""
    size = len(lu)
    if adjoint:
        u = lu.conj().T          # A^H = U^H L^H P: U^H lower, L^H unit upper
        y = b.copy()
        for i in range(size):
            y[i] = (y[i] - u[i, :i] @ y[:i]) / u[i, i]
        for i in reversed(range(size)):
            y[i] -= u[i, i + 1:] @ y[i + 1:]
        x = np.empty_like(y)
        x[perm] = y
        return x
    y = b[perm]
    for i in range(size):
        y[i] -= lu[i, :i] @ y[:i]
    for i in reversed(range(size)):
        y[i] = (y[i] - lu[i, i + 1:] @ y[i + 1:]) / lu[i, i]
    return y


def long_double_modes(m, spec, n, count):
    """The top count modes of the left route's open operator at N in long double, as (values, residuals).

    Each of the top count double eigenvalues of long_double_operator is
    refined by inverse iteration shifted at it, with a long-double LU with
    partial pivoting done in row operations, on a right and a left vector;
    the value is the two-sided Rayleigh quotient, and its residual is
    |B v - mu v| for the unit right vector v.
    """
    b = long_double_operator(m, spec, n)
    size = len(b)
    start = np.array([1, 1j]) @ np.random.default_rng(0).standard_normal((2, size))
    values, residuals = [], []
    for shift in sort_by_modulus(np.linalg.eigvals(b.astype(complex)))[:count]:
        lu, perm = b - shift * np.eye(size), np.arange(size)
        for k in range(size):
            p = k + int(np.argmax(np.abs(lu[k:, k])))
            lu[[k, p]], perm[[k, p]] = lu[[p, k]], perm[[p, k]]
            lu[k + 1:, k] /= lu[k, k]
            lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
        right = left = start.astype(np.clongdouble)
        for _ in range(3):
            right = _lu_solve(lu, perm, right)
            right /= np.sqrt(np.sum(np.abs(right) ** 2))
            left = _lu_solve(lu, perm, left, adjoint=True)
            left /= np.sqrt(np.sum(np.abs(left) ** 2))
        mu = (left.conj() @ b @ right) / (left.conj() @ right)
        values.append(complex(mu))
        residuals.append(float(np.sqrt(np.sum(np.abs(b @ right - mu * right) ** 2))))
    return values, residuals


# The characteristic-polynomial oracle for eigensolver.eigenvalues, for
# matrices of dimension <= ORACLE_MAX_DIM.  Durand-Kerner stops once every
# residual is below ORACLE_TOL times 1 + max |coefficient|, and raises after
# ORACLE_MAX_SWEEPS sweeps.
ORACLE_MAX_DIM = 8
ORACLE_MAX_SWEEPS = 500
ORACLE_TOL = 1e-12


def char_poly_coeffs(a):
    """Monic characteristic polynomial coefficients via Faddeev-LeVerrier.

    Returns [1, c1, ..., cn] with p(t) = t^n + c1 t^{n-1} + ... + cn.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    mk = np.array(a)
    for k in range(1, n + 1):
        ck = -np.trace(mk) / k
        coeffs[k] = ck
        if k < n:
            mk = a @ (mk + ck * np.eye(n))
    return coeffs


def durand_kerner(coeffs):
    """Simultaneous root iteration for a monic polynomial.

    Starts from a slightly rotated circle (radius from the Cauchy bound) so
    no initial guess sits on a symmetry axis of the root set.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    n = len(coeffs) - 1
    if n == 0:
        return np.zeros(0, dtype=complex)
    radius = 1.0 + np.abs(coeffs[1:]).max()
    angles = 2.0 * np.pi * np.arange(n) / n + 0.41
    z = radius * np.exp(1j * angles)
    scale = 1.0 + np.abs(coeffs).max()
    for _ in range(ORACLE_MAX_SWEEPS):
        p = np.polyval(coeffs, z)
        if np.abs(p).max() < ORACLE_TOL * scale:
            return z
        moved = 0.0
        for i in range(n):
            denom = np.prod(z[i] - np.delete(z, i))
            if denom == 0:
                z[i] += 1e-8 * (1 + 1j)
                continue
            step = np.polyval(coeffs, z[i]) / denom
            z[i] -= step
            moved = max(moved, abs(step))
        if moved < 5e-15 * radius:
            return z
    raise NumericError(f"characteristic-polynomial oracle: Durand-Kerner roots "
                       f"did not converge in {ORACLE_MAX_SWEEPS} sweeps")


def char_poly_roots(a):
    """Oracle eigenvalues for matrices of dimension <= ORACLE_MAX_DIM."""
    a = np.asarray(a, dtype=complex)
    if a.shape[0] > ORACLE_MAX_DIM:
        raise ValueError(f"oracle limited to dim <= {ORACLE_MAX_DIM}")
    return durand_kerner(char_poly_coeffs(a))


def multiset_distance(a, b):
    """match_distance between two eigenvalue multisets of one size."""
    if len(a) != len(b):
        raise ValueError("multisets differ in size")
    return match_distance(a, b)
