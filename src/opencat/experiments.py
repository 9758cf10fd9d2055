"""The two spectral studies: trapped-limit convergence and nontrapping decay.

An open operator is the product of a quantized cutoff with the quantized map.
With the cutoff equal to 1 near the hyperbolic fixed point, the top
eigenvalue moduli converge to lam^{-(2k+1)/2}; with an annulus cutoff
excluding the fixed point, the spectral radius decays superpolynomially in h.
"""

from dataclasses import dataclass
import logging
import math
import warnings

import numpy as np

from .catmap import CatMap, analyze, guard_radius
from .eigensolver import eigenvalues, sort_by_modulus
from .errors import ParityBroken
from .hn import planck
from .metaplectic import apply_word, factor_sl2z, phase_factor
from .quantizer import (BumpSpec, cutoff_profile, cutoff_symbol,
                        op_left_separable, op_weyl)

log = logging.getLogger(__name__)

# Largest off-sector entry of the parity-folded live block, relative to the
# block's largest entry, that open_spectrum accepts as roundoff.  The DFT's
# phase error makes it about 2e-12 at N = 2048 on either route; an operator
# that really breaks parity couples the sectors at O(1).
PARITY_TOL = 1e-9


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


def cutoff_operator(spec: BumpSpec, n: int):
    """Quantize the cutoff by its own route, spec.quantization, as (live, rows).

    rows holds the rows of the N x N operator that live indexes; the others
    are exactly zero.  The left route quantizes the profile itself and keeps
    the rows where it is nonzero; the Weyl route quantizes
    cutoff_symbol(spec) and keeps every row.
    """
    if spec.quantization == "left":
        profile = cutoff_profile(spec)
        return op_left_separable(profile, profile, n)
    return slice(None), op_weyl(cutoff_symbol(spec), n)


def build_open_operator(m: CatMap, spec: BumpSpec, n: int):
    """(quantized cutoff) @ (quantized map) as (live, rows), unnormalized phase.

    The cutoff's rows outside live are zero, and so are the product's; the
    map's word is applied to the cutoff's live rows only.
    """
    live, chi = cutoff_operator(spec, n)
    return live, apply_word(chi, factor_sl2z(m), n)


def _fold(x, fixed, plus, minus):
    """The rows of x in the parity basis, as (even rows, odd rows).

    Row j of x pairs with row -j: the even rows are the fixed rows and the
    sums (x_j + x_-j)/sqrt(2), the odd rows the differences.
    """
    p, m = x[plus], x[minus]
    return (np.concatenate([x[fixed], (p + m) * math.sqrt(0.5)]),
            (p - m) * math.sqrt(0.5))


def parity_sectors(live, rows, n: int):
    """The live block of (live, rows) split by parity j -> -j: (even, odd, defect).

    live is first closed under parity; a row that adds is an exact zero row
    of the operator.  On the closed set the even sector has the basis e_j for
    the fixed points j = -j mod N (0 and N/2) and (e_j + e_-j)/sqrt(2) for
    each pair, the odd sector (e_j - e_-j)/sqrt(2).  Rows are combined, then
    columns, in O(live^2) work and with no basis matrix.  defect is the
    largest entry of the two off-sector blocks relative to the largest entry
    of the block: zero for an operator that commutes with parity, and then
    the block's spectrum is the union of the sectors'.
    """
    idx = np.arange(n)[live]
    closed = np.union1d(idx, -idx % n)
    block = np.zeros((closed.size, closed.size), dtype=complex)
    block[np.searchsorted(closed, idx)] = rows[:, closed]
    fixed = np.flatnonzero(closed == -closed % n)
    plus = np.flatnonzero((closed > 0) & (2 * closed < n))
    minus = np.searchsorted(closed, n - closed[plus])
    scale = np.abs(block).max(initial=0.0)
    even_rows, odd_rows = _fold(block, fixed, plus, minus)
    del block
    even_t, even_odd_t = _fold(even_rows.T, fixed, plus, minus)
    odd_even_t, odd_t = _fold(odd_rows.T, fixed, plus, minus)
    cross = max(np.abs(even_odd_t).max(initial=0.0),
                np.abs(odd_even_t).max(initial=0.0))
    return even_t.T, odd_t.T, cross / scale if scale > 0 else 0.0


def open_spectrum(m: CatMap, spec: BumpSpec, n: int) -> np.ndarray:
    """All N eigenvalues of the open operator, unordered.

    With its dead rows permuted last the operator is block upper triangular,
    [[B_LL, B_LD], [0, 0]], so its spectrum is that of the live block B_LL
    plus one exact zero per dead row.  Parity commutes with the quantized map
    (-I is central in SL(2,Z)) and with the quantized even cutoff, so B_LL
    splits into the even and odd blocks of parity_sectors, and each is
    diagonalized on its own: about half the size, a quarter of the work.  An
    operator whose sectors couple by more than PARITY_TOL raises ParityBroken
    rather than lose the coupling.  A NaN in a live row of the cutoff still
    reaches a sector, whose solve rejects it: every hyperbolic word has a
    Fourier letter, which spreads it along the row.  The operator is freed on
    return, before a sweep builds the next, larger N.
    """
    log.info("open operator spectrum: N = %d", n)
    live, rows = build_open_operator(m, spec, n)
    even, odd, defect = parity_sectors(live, rows, n)
    if defect > PARITY_TOL:
        raise ParityBroken(f"open operator at N = {n} couples the parity "
                           f"sectors: defect {defect:.3e} > {PARITY_TOL:g}")
    vals = np.concatenate([eigenvalues(even), eigenvalues(odd)])
    return np.concatenate([vals, np.zeros(n - len(vals), dtype=complex)])


def trapped_sweep(m: CatMap, spec: BumpSpec, n_list, k_count: int = 4,
                  normalize_phase: bool = True):
    """Top-k eigenvalues against the theorem targets, as SweepRows in (N, k) order.

    The global phase of the quantized map is a convention.  normalize_phase
    fixes it by rotating each N's eigenvalues with phase_factor, so the
    largest-modulus one is real and positive; the moduli do not change.  A
    cutoff whose support leaves the ball of guard_radius warns once per
    sweep, not once per N; the theorem's constant is unspecified, so this is
    advisory.  A product bump's support reaches the corner of its square, so
    its radius is sqrt(2) * r_outer.
    """
    if k_count > 8:
        raise ValueError("k_count > 8 exceeds the resolvable range at desk scale")
    support_radius = math.sqrt(2.0) * spec.r_outer
    radius_limit = guard_radius(analyze(m))
    if support_radius > radius_limit:
        warnings.warn(
            f"cutoff support radius {support_radius:.4f} exceeds the "
            f"guard limit {radius_limit:.4f}; the trapped-limit "
            "theorem is only guaranteed for small enough support", stacklevel=2)
    targets = theorem_targets(m, k_count)
    rows = []
    for n in n_list:
        vals = open_spectrum(m, spec, n)
        if normalize_phase:
            vals = vals * phase_factor(vals)
        top = sort_by_modulus(vals)[:k_count]
        errors = np.abs(np.abs(top) - targets)
        rows += [SweepRow(n=n, h=planck(n), k=k, re=float(mu.real),
                          im=float(mu.imag), modulus=float(abs(mu)),
                          target=float(targets[k]), abs_err=float(errors[k]))
                 for k, mu in enumerate(top)]
    return rows


def nontrapping_sweep(m: CatMap, spec: BumpSpec, n_list):
    """Spectral radius per dimension with log-log slopes between neighbors."""
    if spec.kind != "annulus_product":
        raise ValueError("nontrapping sweep needs an annulus cutoff")
    tops = [float(np.abs(open_spectrum(m, spec, n)).max()) for n in n_list]
    return nontrapping_rows(n_list, tops)


def nontrapping_rows(n_list, tops):
    """Rows of a nontrapping sweep; tops[i] is the spectral radius at n_list[i].

    Each row carries h and the log-log slope of the radius against h since
    the previous dimension; the first slope, or one across a zero radius, is
    NaN.
    """
    rows = []
    prev = None
    for n, top in zip(n_list, tops):
        h = planck(n)
        slope = math.nan
        if prev is not None:
            h_prev, top_prev = prev
            if top <= 0.0 or top_prev <= 0.0:
                log.warning("spectral radius underflow at N = %d; slope undefined", n)
            else:
                slope = (math.log(top) - math.log(top_prev)) / (math.log(h) - math.log(h_prev))
        rows.append(NontrapRow(n=n, h=h, top_modulus=top, slope_vs_prev=slope))
        prev = (h, top)
    return rows
