from dataclasses import replace
import math
import tracemalloc
from unittest import mock

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from opencat.errors import ConfigError
import opencat.experiments as experiments
from opencat.experiments import cutoff_sectors
from opencat.hn import live_run, parity_defect, torus_rep_array
from opencat.quantizer import (BumpSpec, TorusSymbol, annulus_profile,
                               bump_profile, cutoff_profile, cutoff_symbol, op_weyl,
                               op_weyl_sector, plane_wave, profile_sectors)

from helpers import NONTRAP_SPEC, both_sectors, dense_operator, fold_matrix, left_sectors

SPEC = BumpSpec("product_bump", 0.10, 0.20)


def symbol_from_function(f, k_max, grid):
    """Reference Fourier truncation of a periodic function on the torus, as a general table.

    f is sampled on a grid x grid uniform lattice of [0,1)^2 (f may be given
    on the fundamental domain [-1/2,1/2)^2; sampling arguments are passed
    through torus_rep) and transformed with an exact 2D DFT.  The table is
    indexed [k + k_max, l + k_max] for |k|, |l| <= k_max; a product symbol's
    is np.outer(sym.x, sym.xi).  Aliasing is bounded by f's Fourier tail
    beyond grid - k_max.
    """
    if grid < 4 * k_max:
        raise ConfigError(f"grid {grid} < 4*k_max = {4 * k_max}")
    pts = torus_rep_array(np.arange(grid) / grid)
    xx, yy = np.meshgrid(pts, pts, indexing="ij")
    samples = np.asarray(f(xx, yy), dtype=complex)
    big = np.fft.fft2(samples) / grid**2
    kk = np.arange(-k_max, k_max + 1)
    return big[np.ix_(kk % grid, kk % grid)]


def profile_coefficients(profile, k_max, grid):
    """The Fourier coefficients with |k| <= k_max of a profile on the circle, from grid samples through torus_rep."""
    samples = profile(torus_rep_array(np.arange(grid) / grid))
    return np.fft.fft(samples)[np.arange(-k_max, k_max + 1) % grid] / grid


def coeff(table, k, l):
    """Entry (k, l) of a coefficient table, |k|, |l| <= k_max."""
    k_max = len(table) // 2
    return complex(table[k + k_max, l + k_max])


def value(sym, x, xi):
    """The truncated Fourier series of the symbol at a phase-space point."""
    k = np.arange(-sym.k_max, sym.k_max + 1)
    return complex((np.exp(2j * np.pi * k * x) @ sym.x) * (sym.xi @ np.exp(2j * np.pi * k * xi)))


def hermitian_defect(sym):
    """Max deviation from coeff(-k, -l) = conj(coeff(k, l)); 0 for real symbols."""
    table = np.outer(sym.x, sym.xi)
    return float(np.abs(table - table[::-1, ::-1].conj()).max())


def op_weyl_dense(table, n):
    """Reference Weyl quantization of a general coefficient table: the entry formula summed over the lattice.

    Entry (m, j) is the sum of coeff(k, j - m - l N) (-1)^{k l}
    e^{i pi (j+m) k / N} over every (k, l) the truncation keeps, one dense
    N x N pass per pair.
    """
    kmax = len(table) // 2
    mm, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    s = jj - mm
    jpm = jj + mm
    l_span = (kmax + n - 1) // n + 1
    a = np.zeros((n, n), dtype=complex)
    for k in range(-kmax, kmax + 1):
        col = table[k + kmax]
        if not np.any(col):
            continue
        phase = np.exp(1j * math.pi * k * jpm / n)
        for l in range(-l_span, l_span + 1):
            idx = s - l * n
            mask = np.abs(idx) <= kmax
            if not mask.any():
                continue
            sign = -1.0 if (k * l) % 2 else 1.0
            vals = np.zeros((n, n), dtype=complex)
            vals[mask] = col[idx[mask] + kmax]
            a += sign * vals * phase
    return a


def test_bump_spec_validation():
    with pytest.raises(ConfigError, match=r"cutoff needs 0 < r_inner < r_outer < 1/2, got \(0.2, 0.1\)"):
        BumpSpec("product_bump", 0.2, 0.1)
    with pytest.raises(ConfigError, match=r"annulus cutoff needs 2\*r_outer < 1/2"):
        BumpSpec("annulus_product", 0.2, 0.3)  # 2*r_outer >= 1/2
    with pytest.raises(ConfigError, match="unknown cutoff kind 'mystery'"):
        BumpSpec("mystery", 0.1, 0.2)
    with pytest.raises(ConfigError, match="cutoff quantization must be 'left' or 'weyl', got 'exact'"):
        BumpSpec("product_bump", 0.1, 0.2, quantization="exact")
    with pytest.raises(ConfigError, match=r"cutoff k_max must be in 1\.\.4096, got 0"):
        BumpSpec("product_bump", 0.1, 0.2, quantization="weyl", k_max=0)
    # grid >= 4 k_max is checked on either route
    with pytest.raises(ConfigError, match=r"cutoff grid 100 < 4\*k_max = 192"):
        BumpSpec("product_bump", 0.1, 0.2, quantization="weyl", k_max=48, grid=100)
    with pytest.raises(ConfigError, match=r"cutoff grid 100 < 4\*k_max = 192"):
        BumpSpec("product_bump", 0.1, 0.2, k_max=48, grid=100)
    with pytest.raises(ConfigError, match=r"cutoff grid 63 < 4\*k_max = 64"):
        replace(SPEC, k_max=16, grid=63)


def test_bump_profile_plateau_and_support():
    assert bump_profile(SPEC, 0.0) == 1.0
    assert bump_profile(SPEC, 0.05) == 1.0
    assert bump_profile(SPEC, 0.20) == 0.0
    assert bump_profile(SPEC, 0.35) == 0.0
    assert bump_profile(SPEC, 0.15) == pytest.approx(0.5, abs=1e-14)
    xs = np.linspace(0.10, 0.20, 101)
    vals = bump_profile(SPEC, xs)
    assert (np.diff(vals) <= 1e-15).all()  # monotone on the transition
    assert bump_profile(SPEC, -0.13) == bump_profile(SPEC, 0.13)


def test_annulus_profile_shape():
    spec = BumpSpec("annulus_product", 0.15, 0.24)
    assert annulus_profile(spec, 0.0) == 0.0
    assert annulus_profile(spec, 0.05) == 0.0
    assert annulus_profile(spec, 0.13) == 1.0  # rho=1, rho(2x)=0 at 0.26 > r_outer
    assert annulus_profile(spec, 0.30) == 0.0
    spec2 = BumpSpec("annulus_product", 0.15, 0.249)
    assert annulus_profile(spec2, 0.15) == pytest.approx(1.0, abs=1e-15)


def test_symbol_constant():
    table = symbol_from_function(lambda x, xi: np.ones_like(x), k_max=4, grid=32)
    assert coeff(table, 0, 0) == pytest.approx(1.0, abs=1e-14)
    table[4, 4] = 0.0
    assert np.abs(table).max() < 1e-14


def test_symbol_cosine():
    table = symbol_from_function(lambda x, xi: np.cos(2 * np.pi * x), k_max=4, grid=32)
    assert coeff(table, 1, 0) == pytest.approx(0.5, abs=1e-13)
    assert coeff(table, -1, 0) == pytest.approx(0.5, abs=1e-13)
    assert abs(coeff(table, 0, 1)) < 1e-14


def test_symbol_grid_too_coarse():
    with pytest.raises(ConfigError, match=r"grid 32 < 4\*k_max = 64"):
        symbol_from_function(lambda x, xi: x, k_max=16, grid=32)


@st.composite
def cutoff_specs(draw):
    kind = draw(st.sampled_from(["product_bump", "annulus_product"]))
    # an annulus needs 2 r_outer < 1/2
    r_outer = draw(st.floats(0.02, 0.49 if kind == "product_bump" else 0.249))
    r_inner = r_outer * draw(st.floats(0.05, 0.95))
    return BumpSpec(kind, r_inner, r_outer)


@settings(max_examples=60, deadline=None)
@given(spec=cutoff_specs(), k_max=st.integers(1, 48), data=st.data())
def test_cutoff_symbol_matches_2d_oracle(spec, k_max, data):
    grid = data.draw(st.integers(4 * k_max, 512), label="grid")
    p = cutoff_profile(spec)
    oracle = symbol_from_function(lambda x, xi: p(x) * p(xi), k_max, grid)
    sym = cutoff_symbol(replace(spec, k_max=k_max, grid=grid))
    assert sym.k_max == k_max
    assert np.abs(np.outer(sym.x, sym.xi) - oracle).max() <= 1e-15


def test_bump_symbol_tail_below_tolerance():
    sym = cutoff_symbol(replace(SPEC, k_max=40, grid=256))
    table = np.outer(sym.x, sym.xi)
    shell = np.concatenate([np.abs(table[0]), np.abs(table[-1]),
                            np.abs(table[:, 0]), np.abs(table[:, -1])])
    assert shell.max() < 1e-10


def test_trapped_symbol_values_and_reality():
    # k_max = 32 truncates the bump's Fourier tail at the ~1e-3 level
    sym = cutoff_symbol(replace(SPEC, k_max=32, grid=256))
    assert value(sym, 0.0, 0.0).real == pytest.approx(1.0, abs=2e-3)
    assert abs(value(sym, 0.4, 0.0)) < 2e-3
    assert hermitian_defect(sym) < 1e-12
    assert np.abs(np.outer(sym.x, sym.xi).imag).max() < 1e-12  # even in each variable


def test_nontrapping_symbol_profile():
    spec = BumpSpec("annulus_product", 0.15, 0.24)
    f = cutoff_profile(spec)
    sym = cutoff_symbol(replace(spec, k_max=32, grid=256))
    assert f(0.0) == 0.0
    assert f(0.30) == 0.0
    assert hermitian_defect(sym) < 1e-12
    # the annulus, not the bump, vanishes at the origin
    assert abs(value(sym, 0.0, 0.0)) < 2e-3


def test_op_weyl_identity():
    sym = plane_wave(0, 0)
    for n in (4, 9, 16):
        assert np.abs(op_weyl(sym, n) - np.eye(n)).max() < 1e-14


def test_op_weyl_position_mode():
    a = op_weyl(plane_wave(1, 0), 8)
    assert np.abs(a - np.diag(np.exp(2j * np.pi * np.arange(8) / 8))).max() < 1e-13


def test_op_weyl_momentum_mode():
    a = op_weyl(plane_wave(0, 1), 8)
    shift = np.zeros((8, 8))
    shift[np.arange(8), (np.arange(8) + 1) % 8] = 1.0
    assert np.abs(a - shift).max() < 1e-13


def test_op_weyl_zero_symbol():
    z = TorusSymbol(np.zeros(5, dtype=complex), np.zeros(5, dtype=complex))
    assert np.abs(op_weyl(z, 16)).max() == 0.0


# the table np.outer(x, xi) is square with an odd side exactly when the
# factors are 1-D of one odd length: lengths that differ, an even length
# and 2-D factors are each refused
@pytest.mark.parametrize("shape", [((3,), (5,)), ((4,), (4,)), ((3, 3), (3, 3))])
def test_torus_symbol_needs_a_square_table_with_an_odd_side(shape):
    with pytest.raises(ValueError):
        TorusSymbol(*(np.zeros(side, dtype=complex) for side in shape))


def test_plane_wave_is_one_hot():
    sym = plane_wave(-3, 1)
    assert sym.k_max == 3 and sym.x.shape == sym.xi.shape == (7,)
    assert sym.x[0] == 1.0 and sym.xi[4] == 1.0
    assert np.count_nonzero(sym.x) == np.count_nonzero(sym.xi) == 1


def test_op_weyl_linear():
    # the symbol is linear in each factor with the other held, and so is
    # its quantization
    rng = np.random.default_rng(11)
    u1, u2, v = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
    a, b = 0.7 - 0.2j, -1.3 + 0.5j
    for pair in (lambda u: (u, v), lambda u: (v, u)):
        combo = op_weyl(TorusSymbol(*pair(a * u1 + b * u2)), 12)
        parts = a * op_weyl(TorusSymbol(*pair(u1)), 12) + b * op_weyl(TorusSymbol(*pair(u2)), 12)
        assert np.abs(combo - parts).max() < 1e-12


def test_op_weyl_hermitian_for_real_bump():
    sym = cutoff_symbol(replace(SPEC, k_max=32, grid=256))
    a = op_weyl(sym, 64)
    assert np.abs(a - a.conj().T).max() < 1e-11


@settings(max_examples=150, deadline=None)
@given(kmax=st.integers(1, 7), n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
@example(kmax=7, n=10, seed=0)
@example(kmax=7, n=4, seed=0)
@example(kmax=7, n=2, seed=0)
def test_op_weyl_band_matches_dense(kmax, n, seed):
    # n runs over even and odd dimensions, and below 2 kmax + 1 the cyclic
    # diagonals of different offsets coincide; the examples pin N < 2 kmax + 1
    # <= 2N (only offsets alias), 2 kmax + 1 > 2N (the frequencies also fold
    # mod 2N in the midpoint synthesis) and N = 2
    rng = np.random.default_rng(seed)
    x, xi = rng.standard_normal((2, 2 * kmax + 1)) + 1j * rng.standard_normal((2, 2 * kmax + 1))
    table = np.outer(x, xi)
    tol = 1e-12 * np.abs(table).max()
    assert np.abs(op_weyl(TorusSymbol(x, xi), n) - op_weyl_dense(table, n)).max() <= tol


@pytest.mark.parametrize("n", [96, 97, 256])
def test_op_weyl_band_matches_dense_annulus(n):
    # the default cutoff has k_max = 48: N = 96 folds two offsets onto one
    # diagonal, N = 97 is the first dimension where all 97 are distinct
    sym = cutoff_symbol(BumpSpec("annulus_product", 0.15, 0.24))
    assert np.abs(op_weyl(sym, n) - op_weyl_dense(np.outer(sym.x, sym.xi), n)).max() < 1e-14


@settings(max_examples=100, deadline=None)
@given(kmax=st.integers(1, 8), h=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
@example(kmax=7, h=5, seed=0)
@example(kmax=7, h=2, seed=0)
@example(kmax=7, h=1, seed=0)
def test_op_weyl_sectors_match_fold_oracle(kmax, h, seed):
    # even N from 2 to 40: below 2 kmax + 1 offsets alias onto one diagonal;
    # the examples pin N = 10 (only offsets alias), N = 4 (frequencies fold
    # mod 2N too) and N = 2, whose odd sector is empty
    n = 2 * h
    rng = np.random.default_rng(seed)
    u, v = rng.uniform(-1, 1, (2, 2 * kmax + 1)) + 1j * rng.uniform(-1, 1, (2, 2 * kmax + 1))
    # a general product, and products of the factors' parts even and odd
    # under k -> -k: the symbol is even under (x, xi) -> (-x, -xi) when both
    # factors are even or both odd, and odd when one is odd
    (ue, uo), (ve, vo) = ((w + w[::-1], w - w[::-1]) for w in (u, v))
    syms = [TorusSymbol(*pair) for pair in ((u, v), (ue, ve), (uo, ve), (ue, vo), (uo, vo))]
    flip = -np.arange(n) % n
    couplings = []
    for sym in syms:
        even, odd = both_sectors(op_weyl_sector, sym, n)
        a = op_weyl(sym, n)
        even_o, odd_o, coupling = fold_matrix(a)
        couplings.append(coupling)
        assert even.shape == even_o.shape and odd.shape == odd_o.shape
        assert np.abs(even - even_o).max() <= 1e-13
        assert np.abs(odd - odd_o).max(initial=0.0) <= 1e-13
        # parity covariance P op_weyl(a) P = op_weyl(a(-x, -xi)), whose
        # factors are the reversed ones, which lets cutoff_sectors read the
        # coupling off the factors
        flipped = op_weyl(TorusSymbol(sym.x[::-1], sym.xi[::-1]), n)
        assert np.abs(a[np.ix_(flip, flip)] - flipped).max() <= 1e-13
    # an even symbol commutes with parity; an odd one maps each sector to the
    # other, so the coupling is all there is (N = 2 has no odd sector)
    assert couplings[1] < 1e-14 and couplings[4] < 1e-14
    assert all(c > 0.5 or n == 2 for c in couplings[2:4])
    assert weyl_defect(syms[1], n) == 0.0
    # the defect rejects both odd terms, and an odd x odd product too: it
    # commutes with parity, but no cutoff is one
    assert all(weyl_defect(sym, n) > 0.5 for sym in syms[2:])


def weyl_defect(sym, n):
    """cutoff_sectors' parity defect at N for a Weyl cutoff whose symbol is sym."""
    spec = replace(SPEC, quantization="weyl", k_max=sym.k_max, grid=4 * sym.k_max)
    with mock.patch.object(experiments, "cutoff_symbol", lambda _: sym):
        return cutoff_sectors(spec, n)[0]


def test_weyl_cutoff_peaks_at_its_blocks():
    # the band is scattered into one sector's block a few diagonals at a
    # time; an N x N array (4.2 MB here) would take the peak above 3x one
    # sector's block (1.1 MB)
    n = 512
    block = (n // 2 + 1) ** 2 * 16
    spec = replace(NONTRAP_SPEC, quantization="weyl")
    tracemalloc.start()
    try:
        for parity, _, sym in cutoff_sectors(spec, n)[1]:
            op_weyl_sector(sym, n, parity)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * block


def test_op_weyl_sector_peak_is_independent_of_the_table():
    # k_max = 1024: the symbol's factors are built before tracing; a
    # (2 k_max + 1)^2 table would be 67 MB and the whole band at N = 512
    # (N x (2 k_max + 1)) 16.8 MB, while one sector's block is 1.1 MB and
    # the chunked band adds about 0.4 MB to it
    sym = cutoff_symbol(BumpSpec("annulus_product", 0.15, 0.24, quantization="weyl",
                                 k_max=1024, grid=4096))
    for parity in (1, -1):
        tracemalloc.start()
        try:
            op_weyl_sector(sym, 512, parity)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


def test_weyl_symbol_and_sector_blocks_peak_below_1mb():
    # k_max = 1024 at N = 64: the symbol is two factors of 2049 entries and
    # each sector's block 17 KB, so nothing of size (2 k_max + 1)^2 (67 MB)
    # or N x (2 k_max + 1) (2.1 MB) may appear
    spec = BumpSpec("annulus_product", 0.15, 0.24, quantization="weyl", k_max=1024, grid=4096)
    tracemalloc.start()
    try:
        sym = cutoff_symbol(spec)
        for parity in (1, -1):
            op_weyl_sector(sym, 64, parity)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_op_weyl_sector_takes_one_inverse_fft():
    # the band is g's coefficients times f synthesized at the midpoints,
    # which is one length-2N transform of f's coefficients per block
    sym = cutoff_symbol(replace(NONTRAP_SPEC, quantization="weyl"))
    assert sym.k_max == 48
    for parity in (1, -1):
        with mock.patch.object(np.fft, "ifft", wraps=np.fft.ifft) as ifft:
            op_weyl_sector(sym, 64, parity)
        assert ifft.call_count == 1


def test_op_weyl_sectors_reject_odd_n():
    with pytest.raises(ConfigError, match="dimension N = 7 must be even"):
        op_weyl_sector(cutoff_symbol(SPEC), 7, 1)


def test_op_left_identity_and_position():
    n = 16
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    sectors = left_sectors(one, n)
    assert [live for live, _, _ in sectors] == [slice(0, 9), slice(0, 7)]
    assert np.abs(dense_operator(sectors, n) - np.eye(n)).max() < 1e-13
    # cos(2 pi x) cos(2 pi xi) is diag(cos(2 pi m / N)) times the shift
    # average (T + T^-1)/2
    cos = lambda x: np.cos(2 * np.pi * np.asarray(x, dtype=float))
    sectors = left_sectors(cos, n)
    assert [live for live, _, _ in sectors] == [slice(0, 9), slice(0, 7)]
    shift = np.roll(np.eye(n), 1, axis=1)
    expect = np.diag(np.cos(2 * np.pi * np.arange(n) / n)) @ (shift + shift.T) / 2
    assert np.abs(dense_operator(sectors, n) - expect).max() < 1e-13


def op_left_dense(f, n):
    """Reference left quantization diag(f) F^dag diag(f) F, F the unitary DFT
    of kernel e^{-2 pi i m k / N} built by np.fft."""
    x = torus_rep_array(np.arange(n) / n)
    fourier = np.fft.fft(np.eye(n), axis=0) / math.sqrt(n)
    return np.diag(f(x)) @ fourier.conj().T @ np.diag(f(x)) @ fourier


@pytest.mark.parametrize("n", [16, 64, 130])
# the ids keep the names these cases have long had in the suite
@pytest.mark.parametrize("kind", ["product_bump", "annulus_product"], ids=["kinds0", "kinds1"])
def test_op_left_live_rows_match_dense(n, kind):
    f = cutoff_profile(BumpSpec(kind, 0.11, 0.23))
    sectors = left_sectors(f, n)
    oracle = op_left_dense(f, n)
    x = torus_rep_array(np.arange(n) / n)
    # the profile is even, so the fold drops nothing
    assert parity_defect(f(x)) < 1e-15
    assert np.abs(dense_operator(sectors, n) - oracle).max() < 1e-13
    for (live, factor, rows), d, block in zip(sectors, profile_sectors(f, n)[:2],
                                              fold_matrix(oracle)[:2]):
        # the live set is one run, and exactly the profile's nonzero set
        assert np.array_equal(np.arange(len(block))[live], np.flatnonzero(d))
        assert 0 < live.stop - live.start < len(block)
        # the square factor mixes the DFT's rows on the live set
        assert factor.shape == (live.stop - live.start,) * 2
        assert rows.shape == (live.stop - live.start, len(block))
        assert not np.delete(block, np.arange(len(block))[live], axis=0).any()
        assert np.abs(factor @ rows - block[live]).max() < 1e-13


@settings(max_examples=200, deadline=None)
@given(spec=cutoff_specs(), n=st.integers(1, 2048).map(lambda h: 2 * h))
@example(spec=SPEC, n=4096)
@example(spec=NONTRAP_SPEC, n=4096)
def test_folded_profile_is_live_on_one_run(spec, n):
    # a bump or an annulus is nonzero on one interval of x >= 0, so in each
    # sector the hull live_run takes adds no zero row
    for d in profile_sectors(cutoff_profile(spec), n)[:2]:
        assert np.array_equal(np.flatnonzero(d), np.arange(len(d))[live_run(d)])


def test_disjoint_supports_shrink():
    inner = BumpSpec("product_bump", 0.05, 0.10)

    def boxbump(cx):
        # the bump at (cx, 0), from the 1-D profiles of its two factors
        return TorusSymbol(*(profile_coefficients(lambda x: bump_profile(inner, x - c), 48, 512)
                             for c in (cx, 0.0)))

    left, right = boxbump(-0.25), boxbump(0.25)
    norms = {n: np.linalg.norm(op_weyl(left, n) @ op_weyl(right, n), 2)
             for n in (64, 256)}
    assert norms[256] < norms[64]


def test_left_weyl_consistency_first_order():
    f, sym = cutoff_profile(SPEC), cutoff_symbol(SPEC)
    diff = {n: np.linalg.norm(dense_operator(left_sectors(f, n), n)
                              - op_weyl(sym, n), 2)
            for n in (128, 256)}
    assert 1.3 <= diff[128] / diff[256] <= 3.0
