"""Symbols on the torus and their quantization on the N-dimensional space.

Smooth symbols are carried as truncated Fourier coefficient tables.  Two
quantizations are provided.  The general Weyl quantization is cyclically
banded: weyl_band gives its 2 k_max + 1 diagonals by the midpoint rule,
entry (m, m + t) being column t of the table synthesized at (2m + t)/2N,
and one scatter adds them into a block: op_weyl places them in a dense
N x N matrix, op_weyl_sector in one parity sector, through each e_m's
place and weight there (hn.sector_embedding), without forming it; the
sectors couple only through the table's part that is odd under
T -> T[::-1, ::-1], since P op_weyl(T) P = op_weyl(T[::-1, ::-1]).
The left (standard) quantization of the cutoff rho(x)rho(xi), a
diagonal/Fourier-multiplier sandwich, is given per sector in factored
form: a square factor from the folded profile and the DFT's sector block,
which the caller passes, times that block's rows on the profile's live
set, one run of indices; the factor is built on its own, so a caller can
form it after the rows are used.  Both build one sector at a time, so a
caller need hold only one.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .hn import MAX_N, fold_parity, live_run, parity_defect, sector_embedding, torus_rep_array

DEFAULT_K_MAX = 48
DEFAULT_GRID = 512

# Cyclic diagonals of a Weyl quantization computed per pass: the 2N x 8
# spectra, transformed in place, is 0.2 MB at N = 768.
_BAND_CHUNK = 8

# At k_max = 4096 the symbol's table is 1.07 GB; grid has the cap on N,
# hn.MAX_N.
MAX_K_MAX = 4096


@dataclass(frozen=True)
class BumpSpec:
    """A cutoff: per-axis radii of the plateau/support of its profile rho, and
    the route that quantizes it.

    quantization "left" quantizes the profile itself; "weyl" quantizes
    cutoff_symbol(spec), the profile's Fourier coefficients with
    |k| <= k_max taken from grid samples.  The sweeps read k_max and grid
    only on the Weyl route, but they are validated here on both (k_max up
    to MAX_K_MAX, grid from 4 k_max to below MAX_N), and verify's
    Hermiticity check quantizes cutoff_symbol(spec) on either.
    """

    kind: str          # "product_bump" or "annulus_product"
    r_inner: float
    r_outer: float
    quantization: str = "left"
    k_max: int = DEFAULT_K_MAX
    grid: int = DEFAULT_GRID

    def __post_init__(self):
        if self.kind not in ("product_bump", "annulus_product"):
            raise ConfigError(f"unknown cutoff kind {self.kind!r}")
        if not (0.0 < self.r_inner < self.r_outer < 0.5):
            raise ConfigError(f"cutoff needs 0 < r_inner < r_outer < 1/2, got "
                              f"({self.r_inner}, {self.r_outer})")
        if self.kind == "annulus_product" and 2.0 * self.r_outer >= 0.5:
            raise ConfigError("annulus cutoff needs 2*r_outer < 1/2")
        if self.quantization not in ("left", "weyl"):
            raise ConfigError(f"cutoff quantization must be 'left' or 'weyl', "
                              f"got {self.quantization!r}")
        if not 1 <= self.k_max <= MAX_K_MAX:
            raise ConfigError(f"cutoff k_max must be in 1..{MAX_K_MAX}, got {self.k_max}")
        if self.grid >= MAX_N:
            raise ConfigError(f"cutoff grid {self.grid} must be below 2**{MAX_N.bit_length() - 1}")
        if self.grid < 4 * self.k_max:
            raise ConfigError(f"cutoff grid {self.grid} < 4*k_max = {4 * self.k_max}")


def _smooth_step(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, exp(-1/t) partition between."""
    t = np.asarray(t, dtype=float)
    s = np.zeros_like(t)
    sc = np.zeros_like(t)
    pos = t > 0
    s[pos] = np.exp(-1.0 / t[pos])
    posc = (1.0 - t) > 0
    sc[posc] = np.exp(-1.0 / (1.0 - t[posc]))
    return s / (s + sc)


def bump_profile(spec: BumpSpec, x):
    """The plateau bump rho: 1 on |x| <= r_inner, 0 on |x| >= r_outer, smooth between."""
    ax = np.abs(np.asarray(x, dtype=float))
    t = (spec.r_outer - ax) / (spec.r_outer - spec.r_inner)
    return _smooth_step(t)


def annulus_profile(spec: BumpSpec, x):
    """rho(x) - rho(2x): vanishes near 0 and outside |x| >= r_outer."""
    x = np.asarray(x, dtype=float)
    return bump_profile(spec, x) - bump_profile(spec, 2.0 * x)


@dataclass(frozen=True)
class TorusSymbol:
    """Truncated Fourier series a(x, xi) = sum coeff(k, l) e^{2 pi i (k x + l xi)}.

    The table is dense, indexed [k + k_max, l + k_max] for |k|, |l| <= k_max.
    """

    table: np.ndarray

    def __post_init__(self):
        shape = self.table.shape
        if len(shape) != 2 or shape[0] != shape[1] or shape[0] % 2 == 0:
            raise ValueError(f"table shape {shape}, expected square with an odd side")
        self.table.setflags(write=False)

    @property
    def k_max(self) -> int:
        return self.table.shape[0] // 2


def plane_wave(k: int, l: int) -> TorusSymbol:
    """The symbol e^{2 pi i (k x + l xi)}: a one-hot table of side 2 max(|k|, |l|) + 1."""
    k_max = max(abs(k), abs(l))
    table = np.zeros((2 * k_max + 1, 2 * k_max + 1), dtype=complex)
    table[k + k_max, l + k_max] = 1.0
    return TorusSymbol(table)


def weyl_band(sym: TorusSymbol, n: int):
    """The cyclic diagonals of the Weyl quantization, a few at a time, as (offsets, diagonals).

    Entry (m, j) of the N x N matrix is the lattice sum of coeff(k, j - m - l N)
    times the parity sign (-1)^{k l} and the half-integer phase
    e^{i pi (j+m) k / N}.  With t = j - m - l N, j + m = 2m + t + l N and the
    parity sign cancels the e^{i pi l k} of the wrapped phase, so every
    |t| <= k_max contributes

        A[m, (m + t) mod N] += sum_k coeff(k, t) e^{2 pi i k (2m + t) / 2N},

    column t of the table synthesized at the midpoint (2m + t) / 2N: one
    length-2N inverse DFT over k (frequencies folded mod 2N) per offset,
    read at row (2m + t) mod 2N.  The 2 k_max + 1 offsets are yielded
    _BAND_CHUNK at a time, column i of diagonals holding the term of
    offsets[i] at A[m, (m + offsets[i]) mod N], so the N x (2 k_max + 1)
    band is never held whole.  When N < 2 k_max + 1 several offsets land on
    one diagonal; their terms add, so every N >= 1 is exact.
    """
    kmax = sym.k_max
    k = np.arange(-kmax, kmax + 1)   # table rows: frequencies in x; columns: offsets
    m = np.arange(n)[:, None]
    for start in range(0, k.size, _BAND_CHUNK):
        part = slice(start, start + _BAND_CHUNK)
        offsets = k[part]
        spectra = np.zeros((2 * n, offsets.size), dtype=complex)
        np.add.at(spectra, k % (2 * n), sym.table[:, part])
        np.fft.ifft(spectra, axis=0, norm="forward", out=spectra)   # unscaled, in place
        diagonals = spectra[(2 * m + offsets) % (2 * n), np.arange(offsets.size)]
        del spectra   # the 2N-row array does not outlive the chunk's read
        yield offsets, diagonals


def _scatter_band(sym: TorusSymbol, n: int, place, weight, size: int) -> np.ndarray:
    """weyl_band added into a size x size block through per-index places and weights.

    Entry A[m, c] adds into (place[m], place[c]) times weight[m] weight[c].
    Entries that land on one cell, from offsets equal mod N or from the two
    basis vectors of one sector pair, add.  O(k_max N) work beside the
    transforms; only one chunk of the band is held at a time.
    """
    m = np.arange(n)[:, None]
    block = np.zeros((size, size), dtype=complex)
    for offsets, diagonals in weyl_band(sym, n):
        c = (m + offsets) % n
        # a zero weight has no place: the odd sector's fixed points, and every
        # e_m at N = 2, whose odd sector is empty
        keep = (weight[:, None] != 0) & (weight[c] != 0)
        # repeated cells add: np.add.at on the flat view
        np.add.at(block.reshape(-1), (place[:, None] * size + place[c])[keep],
                  (weight[:, None] * weight[c] * diagonals)[keep])
    return block


def op_weyl(sym: TorusSymbol, n: int) -> np.ndarray:
    """Weyl quantization as a dense N x N matrix: weyl_band scattered with e_m at place m, weight 1."""
    return _scatter_band(sym, n, np.arange(n), np.ones(n), n)


def op_weyl_sector(sym: TorusSymbol, n: int, parity: int) -> np.ndarray:
    """One parity sector's block of the Weyl quantization, even (parity=+1) or odd, N even.

    weyl_band is scattered with each e_m at its place and signed weight in
    the sector (hn.sector_embedding), so the part that couples the sectors
    is dropped and no N x N array is formed.
    """
    place, weight = sector_embedding(n, parity)
    return _scatter_band(sym, n, place, weight, n // 2 + parity)


def profile_sectors(profile, n: int):
    """A profile sampled at the points x_m and folded into the sectors, as (even, odd, parity_defect)."""
    d = np.asarray(profile(torus_rep_array(np.arange(n) / n)), dtype=complex)
    return fold_parity(d, 1), fold_parity(d, -1), parity_defect(d)


def op_left_separable(d, f):
    """Left quantization of the cutoff rho(x) rho(xi) in one parity sector: its factor.

    The N x N operator is diag(rho) F^dag diag(rho) F, rho the profile
    sampled at the points x_m.  In the sector s (parity +1 even, -1 odd) it is
    d_s F_s^dag d_s F_s, with d = d_s the profile folded into the sector
    (the even or odd entry of profile_sectors; the fold defect is the
    caller's) and f = F_s the DFT's block (hn.dft_sector).  Its rows
    outside the run live = live_run(d), where d_s is zero, are zero, and
    the rows in it equal factor @ F_s[live].  F_s is symmetric, so
    F_s^dag = conj(F_s): the factor is d_s[live] conj(F_s[live, live])
    d_s[live], built entrywise in place in that order.  It is built apart
    from the rows F_s[live], so a caller can run the map's word on them
    first and form the factor after the word.
    """
    live = live_run(d)
    factor = np.conj(f[live, live])
    np.multiply(d[live, None], factor, out=factor)
    factor *= d[live]
    return factor


def cutoff_profile(spec: BumpSpec):
    """The one-variable profile of a cutoff: rho, or rho(x) - rho(2x) for an annulus."""
    profile = bump_profile if spec.kind == "product_bump" else annulus_profile
    return lambda x: profile(spec, x)


def cutoff_symbol(spec: BumpSpec) -> TorusSymbol:
    """Fourier-truncated symbol rho(x) rho(xi) of the cutoff, for the Weyl route.

    The profile is sampled on spec.grid uniform points of [0, 1) (through
    torus_rep) and transformed with one length-grid DFT.  The symbol is a
    product, so its coefficient table is the outer product of the profile's
    coefficients with |k| <= spec.k_max.  Aliasing is bounded by the
    profile's Fourier tail beyond grid - k_max.
    """
    k_max, grid = spec.k_max, spec.grid
    samples = cutoff_profile(spec)(torus_rep_array(np.arange(grid) / grid))
    c = np.fft.fft(samples)[np.arange(-k_max, k_max + 1) % grid] / grid
    return TorusSymbol(np.outer(c, c))
