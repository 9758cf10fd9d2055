"""Symbols on the torus and their quantization on the N-dimensional space.

A symbol is a product f(x) g(xi), as every cutoff is, carried as the
truncated Fourier coefficients of f and g.  Two quantizations are
provided.  The Weyl quantization is cyclically banded: by the midpoint
rule entry (m, m + t) is g's coefficient at t times f at (2m + t)/2N, one
inverse FFT per block, and one scatter adds the 2 k_max + 1 diagonals
into a block: op_weyl places them in a dense N x N matrix,
op_weyl_sector in one parity sector, through each e_m's place and weight
there (hn.sector_embedding), without forming it; the sectors couple only
through the symbol's part odd under (x, xi) -> (-x, -xi), since
P op_weyl(a) P = op_weyl(a(-x, -xi)).
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

# Cyclic diagonals of a Weyl quantization gathered per pass: the N x 8
# chunk is 98 KB at N = 768.
_BAND_CHUNK = 8

# Input validation: a Weyl block's band costs N (2 k_max + 1) work; grid
# has the cap on N, hn.MAX_N.
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
    """Truncated Fourier series of a product f(x) g(xi): coeff(k, l) = x[k + k_max] xi[l + k_max].

    x and xi, made read-only, hold the coefficients of f and g, |k| <= k_max.
    """

    x: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        shapes = self.x.shape, self.xi.shape
        if len(shapes[0]) != 1 or shapes[0] != shapes[1] or shapes[0][0] % 2 == 0:
            raise ValueError(f"factor shapes {shapes}, expected two 1-D of one odd length")
        self.x.setflags(write=False)
        self.xi.setflags(write=False)

    @property
    def k_max(self) -> int:
        return len(self.x) // 2


def plane_wave(k: int, l: int) -> TorusSymbol:
    """The symbol e^{2 pi i (k x + l xi)}: one-hot factors of length 2 max(|k|, |l|) + 1."""
    k_max = max(abs(k), abs(l))
    x, xi = np.zeros((2, 2 * k_max + 1))
    x[k + k_max] = xi[l + k_max] = 1.0
    return TorusSymbol(x, xi)


def _scatter_band(sym: TorusSymbol, n: int, place, weight, size: int) -> np.ndarray:
    """The Weyl quantization's cyclic band added into a size x size block through per-index places and weights.

    Entry (m, j) of the N x N matrix is the lattice sum of coeff(k, j - m - l N)
    times the parity sign (-1)^{k l} and the half-integer phase
    e^{i pi (j+m) k / N}.  With t = j - m - l N, j + m = 2m + t + l N and the
    parity sign cancels the e^{i pi l k} of the wrapped phase, so every
    |t| <= k_max contributes

        A[m, (m + t) mod N] += xi_t sum_k x_k e^{2 pi i k (2m + t) / 2N} = xi_t f((2m + t) / 2N),

    f the truncated series of x at the midpoint (2m + t) / 2N: one
    unscaled length-2N inverse DFT of x, its frequencies folded mod 2N so
    that every k_max is exact, read at row (2m + t) mod 2N.  The
    2 k_max + 1 offsets are gathered _BAND_CHUNK at a time, so the
    N x (2 k_max + 1) band is never held whole.  Entry A[m, c] adds into
    (place[m], place[c]) times weight[m] weight[c].  Entries that land on
    one cell, from offsets equal mod N (N < 2 k_max + 1) or from the two
    basis vectors of one sector pair, add, so every N >= 1 is exact.
    O(k_max N) work beside the one transform.
    """
    k = np.arange(-sym.k_max, sym.k_max + 1)
    f = np.zeros(2 * n, dtype=complex)
    np.add.at(f, k % (2 * n), sym.x)
    np.fft.ifft(f, norm="forward", out=f)   # unscaled, in place
    m = np.arange(n)[:, None]
    block = np.zeros((size, size), dtype=complex)
    for start in range(0, k.size, _BAND_CHUNK):
        offsets = k[start:start + _BAND_CHUNK]
        diagonals = sym.xi[start:start + _BAND_CHUNK] * f[(2 * m + offsets) % (2 * n)]
        c = (m + offsets) % n
        # a zero weight has no place: the odd sector's fixed points, and every
        # e_m at N = 2, whose odd sector is empty
        keep = (weight[:, None] != 0) & (weight[c] != 0)
        # repeated cells add: np.add.at on the flat view
        np.add.at(block.reshape(-1), (place[:, None] * size + place[c])[keep],
                  (weight[:, None] * weight[c] * diagonals)[keep])
    return block


def op_weyl(sym: TorusSymbol, n: int) -> np.ndarray:
    """Weyl quantization as a dense N x N matrix: the band scattered with e_m at place m, weight 1."""
    return _scatter_band(sym, n, np.arange(n), np.ones(n), n)


def op_weyl_sector(sym: TorusSymbol, n: int, parity: int) -> np.ndarray:
    """One parity sector's block of the Weyl quantization, even (parity=+1) or odd, N even.

    The band is scattered with each e_m at its place and signed weight in
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
    product, so both of its factors are the profile's coefficients with
    |k| <= spec.k_max.  Aliasing is bounded by the profile's Fourier tail
    beyond grid - k_max.
    """
    k_max, grid = spec.k_max, spec.grid
    samples = cutoff_profile(spec)(torus_rep_array(np.arange(grid) / grid))
    c = np.fft.fft(samples)[np.arange(-k_max, k_max + 1) % grid] / grid
    return TorusSymbol(c, c)
