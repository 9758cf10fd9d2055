"""Symbols on the torus and their quantization on the N-dimensional space.

Smooth symbols are carried as truncated Fourier coefficient tables.  Two
quantizations are provided: the general Weyl quantization, a dense N x N
matrix built diagonal by diagonal from its explicit matrix-entry formula,
and the left (standard) quantization of separable products f(x)g(xi), a
diagonal/Fourier-multiplier sandwich built in the parity sectors of hn from
the folded profiles and the DFT's sector blocks.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import GridTooCoarse, InvalidSpec
from .hn import dft_sectors, fold_parity, torus_rep_array

DEFAULT_K_MAX = 48
DEFAULT_GRID = 512


@dataclass(frozen=True)
class BumpSpec:
    """A cutoff: per-axis radii of the plateau/support of its profile rho, and
    the route that quantizes it.

    quantization "left" quantizes the profile itself and ignores k_max and
    grid; "weyl" quantizes cutoff_symbol(spec), the profile's Fourier
    coefficients with |k| <= k_max taken from grid samples.
    """

    kind: str          # "product_bump" or "annulus_product"
    r_inner: float
    r_outer: float
    quantization: str = "left"
    k_max: int = DEFAULT_K_MAX
    grid: int = DEFAULT_GRID

    def __post_init__(self):
        if self.kind not in ("product_bump", "annulus_product"):
            raise InvalidSpec(f"unknown kind {self.kind!r}")
        if not (0.0 < self.r_inner < self.r_outer < 0.5):
            raise InvalidSpec(f"need 0 < r_inner < r_outer < 1/2, got "
                              f"({self.r_inner}, {self.r_outer})")
        if self.kind == "annulus_product" and 2.0 * self.r_outer >= 0.5:
            raise InvalidSpec("annulus profile needs 2*r_outer < 1/2")
        if self.quantization not in ("left", "weyl"):
            raise InvalidSpec(f"quantization must be 'left' or 'weyl', "
                              f"got {self.quantization!r}")
        if self.k_max < 1:
            raise InvalidSpec(f"k_max must be >= 1, got {self.k_max}")
        if self.grid < 4 * self.k_max:
            raise GridTooCoarse(f"grid {self.grid} < 4*k_max = {4 * self.k_max}")


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
    k_max: int

    def __post_init__(self):
        kk = 2 * self.k_max + 1
        if self.table.shape != (kk, kk):
            raise ValueError(f"table shape {self.table.shape}, expected ({kk}, {kk})")
        self.table.setflags(write=False)


def op_weyl(sym: TorusSymbol, n: int) -> np.ndarray:
    """Weyl quantization as a dense N x N matrix, built from its band.

    Entry (m, j) is the lattice sum of coeff(k, j - m - l N) times the parity
    sign (-1)^{k l} and the half-integer phase e^{i pi (j+m) k / N}.  With
    t = j - m - l N the parity sign cancels the e^{i pi l k} of the wrapped
    phase, so every |t| <= k_max contributes

        A[m, (m + t) mod N] += sum_k coeff(k, t) e^{i pi t k / N} e^{2 pi i m k / N},

    one length-N inverse DFT over k per offset t: O(k_max N log N) work for
    the 2 k_max + 1 cyclic diagonals.  The frequencies k are folded mod N
    before the transform, and when N < 2 k_max + 1 several offsets t land on
    the same diagonal and add, so every N >= 1 is exact.
    """
    kmax = sym.k_max
    k = np.arange(-kmax, kmax + 1)   # table rows: frequencies in x
    t = k                            # table columns: diagonal offsets
    weighted = sym.table * np.exp(1j * math.pi * np.outer(k, t) / n)
    folded = np.zeros((n, t.size), dtype=complex)
    np.add.at(folded, k % n, weighted)
    diagonals = n * np.fft.ifft(folded, axis=0)   # [m, t]
    m = np.arange(n)[:, None]
    a = np.zeros((n, n), dtype=complex)
    np.add.at(a, (m, (m + t) % n), diagonals)
    return a


def op_left_separable(f_profile, g_profile, n: int):
    """Left quantization of f(x) g(xi) in the parity sectors, as (even, odd, defect).

    The N x N operator is diag(f) F^dag diag(g) F, f and g sampled at the
    points x_m.  In each sector s it is d_f,s F_s^dag d_g,s F_s, with d_f,s
    and d_g,s the profiles folded into the sector (fold_parity) and F_s the
    DFT's block (dft_sectors).  F_s equals its transpose, so rows live of
    F_s^dag are conj(F_s[live]).  A sector is (live, rows): live indexes its
    rows where d_f,s is nonzero and rows holds them, multiplied out; every
    other row of the sector is exactly zero.  defect is the larger of the
    two profiles' fold defects.
    """
    x = torus_rep_array(np.arange(n) / n)
    f_even, f_odd, f_defect = fold_parity(np.asarray(f_profile(x), dtype=complex))
    g_even, g_odd, g_defect = fold_parity(np.asarray(g_profile(x), dtype=complex))
    sectors = []
    for d_f, d_g, f_mat in zip((f_even, f_odd), (g_even, g_odd), dft_sectors(n)[:2]):
        live = np.flatnonzero(d_f)
        sectors.append((live, d_f[live, None] * (np.conj(f_mat[live]) * d_g) @ f_mat))
    return sectors[0], sectors[1], max(f_defect, g_defect)


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
    return TorusSymbol(table=np.outer(c, c), k_max=k_max)
