"""The two spectral studies: trapped-limit convergence and nontrapping decay.

An open operator is the product of a quantized cutoff with the quantized map.
With the cutoff equal to 1 near the hyperbolic fixed point, the top
eigenvalue moduli converge to lam^{-(2k+1)/2}; with an annulus cutoff
excluding the fixed point, the spectral radius decays superpolynomially in h.
Parity j -> -j commutes with the quantized map (-I is central in SL(2,Z))
and with either quantization of an even cutoff, so every factor is built
in the two parity sectors of hn, and the operator is built, diagonalized
and freed sector by sector, on the block of rows and columns where the
cutoff is nonzero.  cutoff_sectors prepares the cutoff at one N, by its
route, as its parity defect and per sector the data (parity, live,
cutoff): the folded profile on the left route, the symbol on the Weyl
route.  build_open_operator switches on that cutoff once and runs the
map's word once on all of the sector's live rows.  On the left route it
builds the sector's DFT block once for the rows, the word and the
factor, which it forms after the word; the Weyl route reads no block,
and its word runs as full-space steps (row FFTs and chirps) in place in
the symbol's sector block.
The map commutes with parity exactly, in the integers of its phases, so
only the cutoff, which comes from the spec, is checked.
"""

from dataclasses import dataclass
import logging
import math

import numpy as np

from .catmap import CatMap, analyze, guard_radius
from .eigensolver import eigenvalues, match_distance, sort_by_modulus
from .errors import ConfigError, NumericError
from .hn import dft_sector, live_run, planck, sector_basis
from .metaplectic import apply_word, factor_sl2z, phase_factor
from .quantizer import (BumpSpec, TorusSymbol, cutoff_profile, cutoff_symbol,
                        op_left_separable, op_weyl_sector, profile_sectors)

log = logging.getLogger(__name__)

# Largest parity defect of the cutoff (cutoff_sectors) that open_spectrum
# accepts as roundoff.  Measured on the benchmark's cutoffs: the left
# profiles give 0 at N = 2048 and at most 8.9e-16 at N = 768, where m/N is
# inexact; the Weyl symbols' tables 1.9e-16 (annulus) and 1.6e-16 (bump).
# A cutoff that really breaks parity gives O(1): 0.96 and 0.87 for those
# symbols with the tests' odd term added.  The map's factors are not
# checked: their roundoff coupling is about 5.4e-16 N, 1.1e-12 at N = 2048.
PARITY_TOL = 1e-9


# The most modes a trapped sweep reports, which spectrum_gap compares, and
# the gap's bound at N = 64.  The gap is the roundoff of ill-conditioned
# eigenvalues and grows like N^3: over 120 random hyperbolic maps (words
# of 2-4 shears U(b), L(c), 0 < |b|, |c| <= 3) with the trapped cutoff at
# N = 4 to 256, on both routes and for both symmetries, it stayed below
# 4.7e-18 N^3 (1.7e-13 at N = 64, 7.7e-11 at N = 256), and 800 more draws
# at N = 16 to 256 below 0.15 of the bound, SYMMETRY_TOL_N64 (N/64)^3.  A
# word that drops its -I breaks the time reversal by 1e-2 or more.
MAX_MODES = 8
SYMMETRY_TOL_N64 = 1e-11


@dataclass
class SweepRow:
    n: int
    h: float
    k: int
    re: float
    im: float
    modulus: float
    target: float
    abs_err: float


@dataclass
class NontrapRow:
    n: int
    h: float
    top_modulus: float
    slope_vs_prev: float = math.nan


def theorem_targets(m: CatMap, k_count: int) -> np.ndarray:
    """Predicted eigenvalue moduli lam^{-(2k+1)/2} for k = 0..k_count-1."""
    lam = analyze(m).lam
    return lam ** (-(2.0 * np.arange(k_count) + 1.0) / 2.0)


def cutoff_sectors(spec: BumpSpec, n: int):
    """The cutoff of spec at N, by its route, spec.quantization, as (defect, sectors).

    defect is how far the cutoff breaks parity.  sectors holds the even
    and the odd sector as plain data (parity, live, cutoff): the sector's
    rows outside the slice live are zero, and cutoff is what
    build_open_operator quantizes on the live rows.  The left route
    samples and folds the profile once (profile_sectors): the defect is
    the fold's, cutoff is the sector's folded profile and a sector is live
    on the run where it is nonzero (live_run).  The Weyl route builds the
    symbol once (cutoff_symbol): cutoff is the TorusSymbol in both
    sectors, every row is live, and the defect is max|T - T[::-1, ::-1]| /
    max|T| on its table T, for every N, since P op_weyl(T) P =
    op_weyl(T[::-1, ::-1]).
    """
    if spec.quantization == "weyl":
        sym = cutoff_symbol(spec)
        scale = np.abs(sym.table).max()
        defect = np.abs(sym.table - sym.table[::-1, ::-1]).max() / scale if scale > 0 else 0.0
        return defect, tuple((parity, slice(0, len(sector_basis(n, parity)[0])), sym)
                             for parity in (1, -1))
    even, odd, defect = profile_sectors(cutoff_profile(spec), n)
    return defect, ((1, live_run(even), even), (-1, live_run(odd), odd))


def build_open_operator(m: CatMap, sector, n: int) -> np.ndarray:
    """(quantized cutoff) @ (quantized map) in one parity sector, unnormalized phase.

    Returns the product's live x live block for a sector (parity, live,
    cutoff) of cutoff_sectors: the only part the spectrum reads.  The
    cutoff's type picks the route.  A TorusSymbol (Weyl) is quantized into
    its sector block (op_weyl_sector), and the map's word runs on all of
    its rows as full-space steps, row FFTs and chirps, in place
    (metaplectic.apply_word); no DFT block is built.  A folded profile
    (left) is quantized as op_left_separable's factor times the sector's
    DFT block f: the word runs once on f's live rows into a new live x
    live block, the factor is formed after the word, and f is freed
    before the factor multiplies the block.
    """
    parity, live, cutoff = sector
    word = factor_sl2z(m)
    if isinstance(cutoff, TorusSymbol):
        x = op_weyl_sector(cutoff, n, parity)
        return apply_word(x, word, None, n, parity, out=x)
    f = dft_sector(n, parity)
    block = apply_word(f[live], word, f, n, parity, cols=live)
    lead = op_left_separable(cutoff, f)
    del f
    return lead @ block


def open_spectrum(m: CatMap, cutoff, n: int) -> np.ndarray:
    """All N eigenvalues of the open operator, unordered, for the cutoff as cutoff_sectors gives it at N.

    A cutoff whose parity defect exceeds PARITY_TOL raises NumericError
    before any product is formed, rather than lose the coupling.  Then
    each parity sector (parity, live, cutoff) is built, diagonalized and
    freed in turn, so one sector's live block, and on the left route its
    DFT block, are held at a time, with the word's working rows; the
    cutoff's type picks the route, a left factor is formed only after the
    word, and the DFT block is freed before the live block is solved
    (build_open_operator).  With its dead rows permuted last a
    sector is block upper triangular, [[B_LL, B_LD], [0, 0]], so its
    spectrum is that of the live block B_LL, which is all that
    build_open_operator forms, plus one exact zero per dead row.  A NaN
    in a live row of the cutoff still reaches the live block, whose solve
    rejects it: every hyperbolic word has a Fourier letter, which spreads
    it along the row.
    """
    log.info("open operator spectrum: N = %d", n)
    defect, sectors = cutoff
    if defect > PARITY_TOL:
        raise NumericError(f"open operator at N = {n} couples the parity "
                           f"sectors: cutoff defect {defect:.3e} > {PARITY_TOL:g}")
    vals = np.concatenate([eigenvalues(build_open_operator(m, sector, n)) for sector in sectors])
    return np.concatenate([vals, np.zeros(n - len(vals), dtype=complex)])


def spectrum_gap(vals: np.ndarray, partner: np.ndarray) -> float:
    """How far a partner's open spectrum is from vals, up to the global phase.

    The quantized map carries a global phase, so two maps whose open
    operators agree up to it have spectra that agree up to a rotation.
    Complex conjugation in the position basis takes Mhat_M to Mhat_{RMR},
    R = diag(1, -1), and fixes either quantization of the real, even
    cutoff, so M and RMR have conjugate spectra: the partner of M's is the
    conjugate of RMR's.  On the Weyl route the DFT also quantizes S
    exactly, so M and S M S^-1 have one spectrum.  vals is rotated by
    phase_factor and the partner so that one of its leading eigenvalues is
    real and positive: each one that ties for the largest modulus to a
    relative 1e-8, since the phase rule cannot tell them apart.  The gap is
    the smallest over those choices of the distance from vals' top
    MAX_MODES eigenvalues matched into the partner (match_distance):
    roundoff, with no reference.  A zero spectrum has no phase to fix; its
    gap is the partner's largest modulus.  A partner with none to fix
    under a nonzero vals raises NumericError (phase_factor).
    """
    if not vals.any():
        return float(np.abs(partner).max())
    vals = sort_by_modulus(vals)
    top = vals[:MAX_MODES] * phase_factor(vals[0])
    lead = np.abs(partner).max()
    return min(match_distance(top, partner * phase_factor(mu))
               for mu in partner[np.abs(partner) >= lead * (1.0 - 1e-8)])


def trapped_sweep(m: CatMap, spec: BumpSpec, n_list, k_count: int | None = None):
    """Top-k eigenvalues against the theorem targets, as SweepRows in (N, k) order.

    The global phase of the quantized map is a convention, fixed by one
    rule: each N's top k eigenvalues, in sort_by_modulus order, are rotated
    by phase_factor of the first, so it is real and positive; the moduli do
    not change.  A leading modulus below 1e-12 has no phase to fix and
    raises NumericError.  A cutoff whose support leaves the ball of
    guard_radius logs one warning per sweep, not one per N; the theorem's
    constant is unspecified, so this is advisory.  A product bump's support
    reaches the corner of its square, so its radius is sqrt(2) * r_outer.
    Each N's cutoff is prepared once (cutoff_sectors).  A k_count above its
    live rows at any N raises ConfigError before any N is solved: the
    modes beyond the live rows would be padding zeros.  k_count defaults to
    4, or to the fewest live rows over n_list when that is below 4 (but at
    least 1); one outside 1..MAX_MODES raises ConfigError.  A cutoff that
    is not a product bump raises ConfigError too.
    """
    if spec.kind != "product_bump":
        raise ConfigError(f"trapped sweep needs a product_bump cutoff, got {spec.kind!r}")
    if k_count is not None and not 1 <= k_count <= MAX_MODES:
        raise ConfigError(f"k_count must be in 1..{MAX_MODES} at desk scale, got {k_count}")
    cutoffs = [cutoff_sectors(spec, n) for n in n_list]
    live = [sum(run.stop - run.start for _, run, _ in sectors) for _, sectors in cutoffs]
    if k_count is None:
        k_count = max(1, min([4] + live))
    for n, count in zip(n_list, live):
        if k_count > count:
            raise ConfigError(f"k_count {k_count} exceeds the {count} rows "
                              f"where the cutoff is nonzero at N = {n}")
    support_radius = math.sqrt(2.0) * spec.r_outer
    radius_limit = guard_radius(analyze(m))
    if support_radius > radius_limit:
        log.warning("cutoff support radius %.4f exceeds the guard limit %.4f; the "
                    "trapped-limit theorem is only guaranteed for small enough support",
                    support_radius, radius_limit)
    targets = theorem_targets(m, k_count)
    rows = []
    for n, cutoff in zip(n_list, cutoffs):
        top = sort_by_modulus(open_spectrum(m, cutoff, n))[:k_count]
        top = top * phase_factor(top[0])
        errors = np.abs(np.abs(top) - targets)
        rows += [SweepRow(n=n, h=planck(n), k=k, re=float(mu.real),
                          im=float(mu.imag), modulus=float(abs(mu)),
                          target=float(targets[k]), abs_err=float(errors[k]))
                 for k, mu in enumerate(top)]
    return rows


def nontrapping_sweep(m: CatMap, spec: BumpSpec, n_list):
    """Spectral radius per dimension with log-log slopes between neighbors."""
    if spec.kind != "annulus_product":
        raise ConfigError(f"nontrapping sweep needs an annulus_product cutoff, got {spec.kind!r}")
    tops = [float(np.abs(open_spectrum(m, cutoff_sectors(spec, n), n)).max())
            for n in n_list]
    return nontrapping_rows(n_list, tops)


def nontrapping_rows(n_list, tops):
    """Rows of a nontrapping sweep; tops[i] is the spectral radius at n_list[i].

    Each row carries h and the log-log slope of the radius against h since
    the previous dimension; the first slope, or one across a zero radius, is
    NaN.
    """
    rows = []
    for n, top in zip(n_list, tops):
        h = planck(n)
        slope = math.nan
        if rows:
            prev = rows[-1]
            if top <= 0.0 or prev.top_modulus <= 0.0:
                log.warning("slope undefined from N = %d to %d: a spectral radius is 0, "
                            "so the cutoff vanishes at every point of that N", prev.n, n)
            else:
                slope = ((math.log(top) - math.log(prev.top_modulus))
                         / (math.log(h) - math.log(prev.h)))
        rows.append(NontrapRow(n=n, h=h, top_modulus=top, slope_vs_prev=slope))
    return rows
