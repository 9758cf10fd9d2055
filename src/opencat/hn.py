"""The N-dimensional state space of the quantized torus and its parity sectors.

The Planck scale attached to N, the torus representative of a position, and
the split of the space by parity j -> -j mod N.  Every factor of the open
operator commutes with parity (the DFT exactly: (N - j)(N - k) = j k mod N),
so the package does its algebra in the sector basis, N even:

    even: e_0, e_{N/2} and (e_j + e_{N-j})/sqrt(2) for 0 < j < N/2, in the
          natural order j = 0..N/2 (size N/2 + 1);
    odd:  (e_j - e_{N-j})/sqrt(2) for 0 < j < N/2 (size N/2 - 1).

sector_basis defines that layout and sector_embedding reads it from the
full space's side, as the place and weight of each e_j in a sector;
everything that needs the layout reads one of the two.  fold_parity takes
a diagonal into one sector and parity_defect measures what the fold
drops, live_run gives the run of indices where a folded cutoff profile is
nonzero, unfold_parity takes two sector blocks back to an N x N matrix,
and dft_sector builds one sector's block of the unitary DFT straight from
its kernel, on half of the symmetric block: no N x N DFT matrix is
formed.  Nothing is cached: the caller holds the block as long as it
needs it and passes it to whatever reads it.  All matrices are plain
dense numpy arrays.
"""

import math

import numpy as np

from .errors import ConfigError

# Rows of a DFT sector block built per pass.  A pass holds a few
# temporaries of this many rows by at most N/2 + 1 columns, 0.95 MB at
# N = 2048 beside the even block's 16.8 MB.
_DFT_CHUNK = 16

# Every dimension, and the grid a cutoff symbol is sampled on, is below MAX_N:
# a shear's int64 phase coef m^2, |coef| <= N and m < N, is exact while N^3 < 2**63.
MAX_N = 2**21


def planck(n: int) -> float:
    """Planck scale h = 1/(2 pi N) attached to dimension N."""
    if n < 1:
        raise ConfigError(f"dimension N = {n} must be positive")
    return 1.0 / (2.0 * math.pi * n)


def sector_basis(n: int, parity: int):
    """One parity sector's basis, even (parity=+1) or odd, as (index, partner, weight); N even.

    Basis vector s has weight[s] at e_j and parity weight[s] at e_{j'},
    with j = index[s] and j' = partner[s] = N - j mod N: the indices run
    0..N/2 in the even sector and 1..N/2 - 1 in the odd one.  A fixed point
    j = 0, N/2, in the even sector only, is its own partner and its vector
    is e_j, weight 1; every other weight is sqrt(1/2).
    """
    if n < 1:
        raise ConfigError(f"dimension N = {n} must be positive")
    if n % 2:
        raise ConfigError(f"dimension N = {n} must be even")
    h = n // 2
    index = np.arange(h + 1) if parity == 1 else np.arange(1, h)
    partner = (n - index) % n
    return index, partner, np.where(index == partner, 1.0, math.sqrt(0.5))


def live_run(d):
    """The indices from d's first nonzero entry to its last, as a slice; slice(0, 0) when d is zero.

    A folded bump or annulus profile is nonzero on one run of indices, so
    for them the run is exactly the nonzero set; a hole would be zeros in it.
    """
    nz = np.flatnonzero(d)
    return slice(int(nz[0]), int(nz[-1]) + 1) if nz.size else slice(0, 0)


def fold_parity(d, parity: int):
    """A diagonal d in one parity sector: the pair means (d_j + d_{N-j})/2, d_j at a fixed point.

    The part that couples the sectors, (d_j - d_{N-j})/2, is dropped;
    parity_defect measures it.
    """
    index, partner, _ = sector_basis(len(d), parity)
    return (d[index] + d[partner]) * 0.5


def parity_defect(d) -> float:
    """The largest entry of the part fold_parity drops, relative to d's largest entry: zero when d commutes with parity."""
    index, partner, _ = sector_basis(len(d), -1)     # every pair j, N - j once
    scale = np.abs(d).max(initial=0.0)
    cross = np.abs(d[index] - d[partner]).max(initial=0.0) * 0.5
    return cross / scale if scale > 0 else 0.0


def sector_embedding(n: int, parity: int):
    """Each e_j of the full space in one parity sector, as (place, weight); N even.

    e_j's part in the sector is weight[j] times basis vector place[j] of
    sector_basis, so a row x in the sector basis unfolds to x[place] * weight
    in e_0..e_{N-1}.  A fixed point j = 0, N/2 has no vector in the odd
    sector: its weight is 0, at place 0.
    """
    index, partner, weight = sector_basis(n, parity)
    place, signed = np.zeros(n, dtype=int), np.zeros(n)
    place[partner], signed[partner] = np.arange(len(index)), parity * weight
    place[index], signed[index] = np.arange(len(index)), weight
    return place, signed


def unfold_parity(even, odd):
    """The N x N matrix with sector blocks even and odd and no coupling between them.

    Entry (j, k) of a sector's part is weight[j] B[place[j], place[k]]
    weight[k] (sector_embedding): the one nonzero product of Q^T B Q, with
    Q's row s basis vector s, so it is formed in O(N^2) without Q.
    """
    n = 2 * (len(even) - 1)
    out = np.zeros((n, n), dtype=complex)
    for parity, block in zip((1, -1), (even, odd)):
        if len(block):      # N = 2's odd sector is empty
            place, weight = sector_embedding(n, parity)
            out += weight[:, None] * block[np.ix_(place, place)] * weight
    return out


def dft_sector(n: int, parity: int):
    """The unitary DFT's block in the even (parity=+1) or odd sector, built from the kernel, read-only.

    The DFT has kernel g(p) = N^{-1/2} exp(-2 pi i p / N) at p = j k and
    commutes with parity.  A sector entry (j, k) is a weighted sum of the
    four kernel values at p = j k, j (N - k), (N - j) k and (N - j)(N - k),
    with p an exact integer that is not reduced mod N.  Each value is
    cos and sin of (-2 pi p)(1/N), times 1/sqrt(N): the real arithmetic
    that numpy's exp(-2j pi p / N) / sqrt(N) does, a complex division by a
    real being a product with its reciprocal.  The four values are added
    in an order symmetric in j and k, so the block equals its transpose
    bit for bit and F_s^dag = conj(F_s).  The block is built a few rows at
    a time: a pass computes the columns from its first row on and mirrors
    them into the rows below, so the kernel is evaluated on half of the
    block and the N x N matrix is never formed.  The block that would
    couple the sectors is not formed: its partner arguments are equal mod
    N, so it is the unreduced phases' roundoff.
    """
    idx, partner, weight = sector_basis(n, parity)
    size = len(idx)
    # a fixed point is its own partner: its four terms are one value, 4 g
    weight = np.where(idx == partner, 0.5 * weight, weight)
    step, scale = 1.0 / n, 1.0 / math.sqrt(n)

    def kernel(a, b):
        # g at p = a b, with p formed in floating point: exact below 2^53
        theta = np.multiply(a, b, dtype=float)
        theta *= -2.0 * math.pi
        theta *= step
        g = np.empty(theta.shape, dtype=complex)
        np.cos(theta, out=g.real)
        np.sin(theta, out=g.imag)
        parts = g.view(float)
        parts *= scale
        return g

    block = np.empty((size, size), dtype=complex)
    for start in range(0, size, _DFT_CHUNK):
        # rows start.. from their columns start.., mirrored into those columns
        rows, cols = slice(start, min(start + _DFT_CHUNK, size)), slice(start, size)
        j, pj = idx[rows, None], partner[rows, None]
        k, pk = idx[cols], partner[cols]
        # direct + far and back + near, from the four kernels
        part = kernel(j, k)
        part += kernel(pj, pk)
        swapped = kernel(pj, k)
        swapped += kernel(j, pk)
        if parity == 1:
            part += swapped
            part *= weight[rows, None] * weight[cols]
        else:
            # every odd weight is sqrt(1/2), whose square rounds above 1/2
            part -= swapped
            part *= 0.5
        block[rows, cols] = part
        block[cols, rows] = part.T
    block.setflags(write=False)
    return block


def torus_rep_array(x: np.ndarray) -> np.ndarray:
    """Representative of each x mod 1 in [-1/2, 1/2)."""
    r = x - np.floor(x)
    return np.where(r >= 0.5, r - 1.0, r)
