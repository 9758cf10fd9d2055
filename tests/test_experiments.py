from dataclasses import replace
import json
import math
import weakref

from hypothesis import assume, given, reject, settings, strategies as st
import numpy as np
import pytest

import opencat.experiments as experiments
from opencat.catmap import ARNOLD, CatMap
from opencat.cli import main
from opencat.eigensolver import eigenvalues, match_distance, sort_by_modulus
from opencat.errors import ConfigError, NumericError
from opencat.experiments import (PARITY_TOL, cutoff_sectors, nontrapping_rows,
                                 nontrapping_sweep, SYMMETRY_TOL_N64, spectrum_gap,
                                 theorem_targets, trapped_sweep)
from opencat.hn import live_run, torus_rep_array
from opencat.metaplectic import factor_sl2z, phase_factor
from opencat.quantizer import (BumpSpec, TorusSymbol, cutoff_profile, cutoff_symbol,
                               op_weyl, profile_sectors)

from helpers import (GUARD_ADVISORY, NONTRAP_SPEC, TRAPPED_SPEC, built, dense_operator,
                     dft_matrix, fold_matrix, guard_warnings, left_sectors, live_operator,
                     live_rows, long_double_modes, multiset_distance, nan_in_dead_column,
                     odd_term_symbol, open_sectors, operator_sectors, shear, shear_map,
                     shear_word, spectrum)
from test_metaplectic import quantize_word_dense

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def test_theorem_targets_arnold():
    targets = theorem_targets(ARNOLD, 4)
    assert np.allclose(targets, [0.6180340, 0.2360680, 0.0901699, 0.0344419],
                       atol=5e-8)
    assert np.allclose(targets, GOLDEN ** -(2 * np.arange(4) + 1), rtol=1e-13)
    lam = (3 + math.sqrt(5)) / 2
    assert np.allclose(targets[1:] / targets[:-1], 1 / lam, rtol=1e-12)


def test_open_operator_with_unit_cutoff_is_unitary():
    from opencat.metaplectic import quantize_map
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    sectors = left_sectors(one, 64)
    assert [live for live, _, _ in sectors] == [slice(0, 33), slice(0, 31)]
    a = dense_operator(sectors, 64) @ quantize_map(ARNOLD, 64)
    assert np.abs(np.abs(np.linalg.eigvals(a)) - 1.0).max() < 1e-9


def test_guard_warns_once_per_trapped_sweep_only(caplog):
    # both specs are outside the guard (support radius > 0.0955)
    trapped_sweep(ARNOLD, TRAPPED_SPEC, [16, 32, 64], k_count=2)
    assert guard_warnings(caplog) == [GUARD_ADVISORY]
    nontrapping_sweep(ARNOLD, NONTRAP_SPEC, [16, 32, 64])
    assert guard_warnings(caplog) == []


def test_no_guard_warning_inside_guard(caplog):
    # support radius sqrt(2) * 0.05 = 0.0707 < guard radius 0.0955; at
    # N = 16 the cutoff is live on one row, so one mode
    trapped_sweep(ARNOLD, BumpSpec("product_bump", 0.02, 0.05), [16, 32], k_count=1)
    assert guard_warnings(caplog) == []


def test_degenerate_phase(monkeypatch):
    monkeypatch.setattr(experiments, "build_open_operator",
                        operator_sectors(np.zeros((16, 16))))
    # a zero spectrum has no phase to fix, and the phase rule is the only rule
    with pytest.raises(NumericError, match="cannot fix the global phase"):
        trapped_sweep(ARNOLD, TRAPPED_SPEC, [16])


def test_phase_rule_rotates_the_mode_sort_by_modulus_ranks_first(monkeypatch):
    # 0.5i and 0.5 tie in modulus, as do their turns by 0.6 + 0.8i;
    # sort_by_modulus ranks the larger real part first, 0.5 or 0.3 + 0.4i,
    # so that one is made real and positive and the others turn with it
    vals = np.array([0.5j, 0.1, 0.5, 0.3j, 0.2])
    for turn in (1, 0.6 + 0.8j):
        monkeypatch.setattr(experiments, "open_spectrum", lambda m, cutoff, n: vals * turn)
        top = np.array([complex(r.re, r.im)
                        for r in trapped_sweep(ARNOLD, TRAPPED_SPEC, [16], k_count=4)])
        assert np.abs(top - [0.5, 0.5j, 0.3j, 0.2]).max() < 1e-15


def test_trapped_sweep_k_count_above_live_rows_raises_before_solving(monkeypatch):
    # the bump is nonzero at 1 point of N = 4: more modes would be padding
    # zeros, and the check comes before N = 64 is solved
    with pytest.raises(ConfigError, match="k_count 4 exceeds the 1 rows "
                                          "where the cutoff is nonzero at N = 4"):
        trapped_sweep(ARNOLD, TRAPPED_SPEC, [4], k_count=4)
    solved = []
    monkeypatch.setattr(experiments, "open_spectrum", lambda m, cutoff, n: solved.append(n))
    with pytest.raises(ConfigError, match="k_count 4 exceeds the 1 rows where the cutoff "
                                          "is nonzero at N = 4"):
        trapped_sweep(ARNOLD, TRAPPED_SPEC, [64, 4], k_count=4)
    assert solved == []


def test_sweep_builds_one_sector_and_one_n_at_a_time(monkeypatch):
    # the word runs once per sector, on all of its live rows, a view of
    # that sector's DFT block; a sector's factor is formed only after the
    # word, once that row view is gone, and after the sector before it is
    # solved and its factor and block are gone; each (N, parity) DFT block
    # is built once, only after the block before it is gone, and it is
    # gone before the sector is solved
    events, held, rows_held, dfts, keys = [], [], [], [], []
    quantize, word, build, solve, build_dft = (
        experiments.op_left_separable, experiments.apply_word,
        experiments.build_open_operator, experiments.eigenvalues, experiments.dft_sector)

    def alive(refs):
        return any(ref() is not None for ref in refs)

    def owner(a):
        return weakref.ref(a if a.base is None else a.base)

    def cutoff(d, f):
        n, parity = next(key for key, ref in zip(keys, dfts) if ref() is f)
        events.append(("factor", n, parity, alive(held), alive(rows_held)))
        factor = quantize(d, f)
        held.append(weakref.ref(factor))
        return factor

    def apply(x, letters, f, n, parity, **kwargs):
        events.append(("word", n, parity, f is dfts[-1]() and x.base is f))
        rows_held.append(weakref.ref(x))
        return word(x, letters, f, n, parity, **kwargs)

    def sector(m, cutoff_sector, n):
        block = build(m, cutoff_sector, n)
        held.append(owner(block))
        return block

    def eigenvalues(a):
        events.append(("solve", alive(dfts)))
        return solve(a)

    def dft(n, parity):
        events.append(("dft", n, parity, alive(dfts)))
        block = build_dft(n, parity)
        dfts.append(weakref.ref(block))
        keys.append((n, parity))
        return block

    def sector_events(n, parity):
        return [("word", n, parity), ("factor", n, parity), ("solve", False)]

    monkeypatch.setattr(experiments, "op_left_separable", cutoff)
    monkeypatch.setattr(experiments, "apply_word", apply)
    monkeypatch.setattr(experiments, "build_open_operator", sector)
    monkeypatch.setattr(experiments, "eigenvalues", eigenvalues)
    monkeypatch.setattr(experiments, "dft_sector", dft)
    trapped_sweep(ARNOLD, TRAPPED_SPEC, [256, 512], k_count=2)
    assert [e for e in events if e[0] == "dft"] == [
        ("dft", 256, 1, False), ("dft", 256, -1, False),
        ("dft", 512, 1, False), ("dft", 512, -1, False)]
    assert [e[:3] for e in events if e[0] != "dft"] == (
        sector_events(256, 1) + sector_events(256, -1) + sector_events(512, 1)
        + sector_events(512, -1))
    assert all(e[3] for e in events if e[0] == "word")
    assert not any(e[3] or e[4] for e in events if e[0] == "factor")


def test_weyl_sweeps_build_no_dft_block(monkeypatch):
    # the Weyl route's word runs as full-space steps, row FFTs and chirps, so
    # both of its sweeps complete with dft_sector failing, and agree within
    # a relative 1e-9 with the same sweeps whose word multiplies by the
    # sector's DFT block
    nontrap = replace(NONTRAP_SPEC, quantization="weyl")
    trapped = replace(TRAPPED_SPEC, quantization="weyl")
    word, build_dft = experiments.apply_word, experiments.dft_sector

    def sweeps():
        radii = [r.top_modulus for r in nontrapping_sweep(ARNOLD, nontrap, [64, 128])]
        modes = [complex(r.re, r.im) for r in trapped_sweep(ARNOLD, trapped, [64, 128], k_count=4)]
        return np.array(radii), np.array(modes)

    def block_word(x, letters, f, n, parity, cols=slice(None), out=None):
        return word(x, letters, build_dft(n, parity) if f is None else f, n, parity, cols, out)

    def no_block(n, parity):
        raise AssertionError(f"DFT block built at N = {n}, parity {parity}")

    with monkeypatch.context() as mp:
        mp.setattr(experiments, "apply_word", block_word)
        expected = sweeps()
    monkeypatch.setattr(experiments, "dft_sector", no_block)
    for got, want in zip(sweeps(), expected):
        assert len(got) == len(want) > 0
        assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))


def test_trapped_sweep_rows():
    rows = trapped_sweep(ARNOLD, TRAPPED_SPEC, [64, 128], k_count=3)
    assert len(rows) == 6
    assert [(r.n, r.k) for r in rows] == [(64, 0), (64, 1), (64, 2),
                                          (128, 0), (128, 1), (128, 2)]
    for r in rows:
        assert r.h == pytest.approx(1.0 / (2 * math.pi * r.n), rel=1e-14)
        assert r.abs_err == pytest.approx(abs(r.modulus - r.target), abs=1e-14)
    assert [r.target for r in rows[3:]] == list(theorem_targets(ARNOLD, 3))
    assert rows[3].target > rows[4].target > rows[5].target
    # leading eigenvalue already close at N = 128
    assert rows[3].abs_err < 1e-2


def test_trapped_sweep_k_count_zero():
    # no modes is outside 1..MAX_MODES, as through the command line
    with pytest.raises(ConfigError, match=r"k_count must be in 1\.\.8"):
        trapped_sweep(ARNOLD, TRAPPED_SPEC, [32], k_count=0)


def test_nontrapping_synthetic_h2():
    n_list = [64, 128, 256]
    radii = [(1.0 / (2 * math.pi * n)) ** 2 for n in n_list]
    rows = nontrapping_rows(n_list, radii)
    assert math.isnan(rows[0].slope_vs_prev)
    assert rows[1].slope_vs_prev == pytest.approx(2.0, rel=1e-12)
    assert rows[2].slope_vs_prev == pytest.approx(2.0, rel=1e-12)


def test_nontrapping_synthetic_superpolynomial():
    # keep 1/h below ~700 so exp(-1/h) stays above the float underflow floor
    n_list = [8, 16, 32, 64]
    hs = [1.0 / (2 * math.pi * n) for n in n_list]
    rows = nontrapping_rows(n_list, [math.exp(-1.0 / h) for h in hs])
    slopes = [r.slope_vs_prev for r in rows[1:]]
    assert all(b > a for a, b in zip(slopes, slopes[1:]))


def test_nontrapping_real_small():
    rows = nontrapping_sweep(ARNOLD, NONTRAP_SPEC, [64, 128])
    assert rows[1].top_modulus < rows[0].top_modulus
    assert rows[1].slope_vs_prev > 0


def test_nontrapping_requires_annulus():
    with pytest.raises(ValueError):
        nontrapping_sweep(ARNOLD, TRAPPED_SPEC, [64])


def test_sweep_input_errors_are_config_errors():
    # each sweep checks its own cutoff kind and mode count; the errors are
    # ConfigErrors, and still ValueErrors for callers
    for sweep, spec, kwargs, cause in (
            (trapped_sweep, NONTRAP_SPEC, {}, "trapped sweep needs a product_bump cutoff"),
            (nontrapping_sweep, TRAPPED_SPEC, {}, "nontrapping sweep needs an annulus_product cutoff"),
            (trapped_sweep, TRAPPED_SPEC, {"k_count": 9}, r"k_count must be in 1\.\.")):
        with pytest.raises(ConfigError, match=cause) as info:
            sweep(ARNOLD, spec, [16], **kwargs)
        assert isinstance(info.value, ValueError)


def test_moduli_invariant_under_conventions(monkeypatch):
    # another word for the same map, through the production factorization
    # hook, moves the global phase, which the phase rule takes out: the
    # phase-fixed rows agree as complex numbers.  At N = 32 and 64 a
    # conjugate pair straddles the top-4 cut and roundoff picks its member
    n = 128
    base = [complex(r.re, r.im) for r in trapped_sweep(ARNOLD, TRAPPED_SPEC, [n])]
    monkeypatch.setattr(experiments, "factor_sl2z", lambda m: shear_word([("U", 1), ("L", 1)]))
    other = [complex(r.re, r.im) for r in trapped_sweep(ARNOLD, TRAPPED_SPEC, [n])]
    assert len(base) == len(other) == 4
    assert match_distance(np.array(base), np.array(other)) < 1e-9


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double on this platform")
@pytest.mark.skipif(np.fft.fft(np.ones(2, dtype=np.clongdouble)).dtype != np.clongdouble,
                    reason="numpy < 2 computes the FFT of a long-double array in double")
def test_trapped_moduli_match_long_double_oracle():
    # the sweep's moduli against the truth, Arnold's map at N = 512: the
    # operator formed and its top modes refined in long double.  Measured
    # relative errors 1.5e-13, 7.4e-12, 9.1e-11 and 2.3e-9 for k = 0..3:
    # mode k's roundoff grows with its condition number.  The bounds are
    # Arnold's; on [1, 1, 1, 2] k = 3 reads 2.9e-8.  Moduli do not see a
    # conjugated chirp, which verify's time_reversal_N64_witness guards
    n = 512
    rows = trapped_sweep(ARNOLD, TRAPPED_SPEC, [n])
    values, residuals = long_double_modes(ARNOLD, TRAPPED_SPEC, n, len(rows))
    errors = [abs(r.modulus - abs(mu)) / abs(mu) for r, mu in zip(rows, values)]
    assert len(errors) == 4
    assert max(errors[:3]) <= 1e-9 and errors[3] <= 1e-8
    # measured at most 6.7e-15
    assert max(residuals) < 1e-13


@pytest.mark.parametrize("m", [ARNOLD, CatMap(1, 1, 1, 2), CatMap(-2, -1, -1, -1),
                               CatMap(-1, -1, -1, -2)])
def test_trapped_modes_match_the_signed_prediction(m):
    # the theorem predicts each mode, not only its modulus: once the phase
    # rule fixes mode 0, mode k is eps^k lam^{-(2k+1)/2}, eps = sign(tr M),
    # and lies in parity sector (-1)^k.  At N = 1024 the relative errors on
    # the benchmark's four maps and their negatives were at most 1.2e-8,
    # 9.6e-6 and 1.2e-4 for k = 0..2.  A PAR letter that loses the odd
    # sector's sign reads 2.0 at k = 1 on the maps whose word has one, here
    # Arnold's and [1, 1, 1, 2]; their moduli do not move.  Mode 3 (3.8e-2
    # off on Arnold's map) is left out
    n = 1024
    rows = trapped_sweep(m, TRAPPED_SPEC, [n], k_count=3)
    top = np.array([complex(r.re, r.im) for r in rows])
    sectors = [(parity, eigenvalues(block))
               for parity, (_, block) in zip((1, -1), open_sectors(m, TRAPPED_SPEC, n))]
    lead = sort_by_modulus(np.concatenate([vals for _, vals in sectors]))[0]
    eps = 1 if m.trace > 0 else -1
    predicted = eps ** np.arange(3) * theorem_targets(m, 3)
    errors = np.abs(top - predicted) / np.abs(predicted)
    assert (errors <= [1e-7, 1e-4, 1e-3]).all(), errors
    for k, mu in enumerate(top):
        nearest = min(sectors, key=lambda s: np.abs(s[1] * phase_factor(lead) - mu).min())
        assert nearest[0] == (-1) ** k


def test_trapped_sweep_diagonalizes_once_per_sector_per_n(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals

    def counted(a):
        calls.append(a.shape[0])
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    trapped_sweep(ARNOLD, TRAPPED_SPEC, [32, 64], k_count=2)
    # one solve per parity sector per N, even then odd; together they span
    # the rows where the cutoff profile is nonzero
    profile = cutoff_profile(TRAPPED_SPEC)
    live = [int(np.count_nonzero(profile(torus_rep_array(np.arange(n) / n))))
            for n in (32, 64)]
    assert 0 < live[0] < 32 and 0 < live[1] < 64
    assert len(calls) == 4
    assert [calls[0] + calls[1], calls[2] + calls[3]] == live
    # the live rows hold x = 0 and pair up, so the even sector has one more
    assert calls[0] == calls[1] + 1 and calls[2] == calls[3] + 1


def test_trapped_sweep_phase_matches_normalized_operator():
    n = 64
    plain = live_operator(open_sectors(ARNOLD, TRAPPED_SPEC, n), n)
    normed = plain * phase_factor(sort_by_modulus(eigenvalues(plain))[0])
    top = np.array([complex(r.re, r.im) for r in trapped_sweep(ARNOLD, TRAPPED_SPEC, [n])])
    expect = sort_by_modulus(np.linalg.eigvals(normed))
    assert np.abs(top - expect[:4]).max() < 1e-9
    assert top[0].real > 0
    assert abs(top[0].imag) < 1e-15


def test_symbol_built_only_on_weyl_route(monkeypatch):
    built = []
    maker = experiments.cutoff_symbol

    def counted(spec):
        built.append(spec)
        return maker(spec)

    monkeypatch.setattr(experiments, "cutoff_symbol", counted)
    trapped_sweep(ARNOLD, TRAPPED_SPEC, [32, 64], k_count=2)
    assert built == []
    weyl = replace(TRAPPED_SPEC, quantization="weyl", k_max=16, grid=64)
    trapped_sweep(ARNOLD, weyl, [32, 64], k_count=2)
    # once per N, from the sweep's own spec, which carries k_max and grid
    assert built == [weyl] * 2


def test_cutoff_prepared_once_per_n(monkeypatch, tmp_path, capsys):
    # the sweep's live-rows check and its solve share one prepared cutoff
    # per N, so the left profile is sampled and folded once per N; verify
    # prepares N = 64 once for parity_commutation and both time-reversal
    # spectra
    folded = []
    fold = experiments.profile_sectors

    def counted(profile, n):
        folded.append(n)
        return fold(profile, n)

    monkeypatch.setattr(experiments, "profile_sectors", counted)
    trapped_sweep(ARNOLD, TRAPPED_SPEC, [32, 64], k_count=2)
    assert folded == [32, 64]
    folded.clear()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"matrix": [2, 1, 1, 1], "n_list": [32],
                                  "cutoff": {"kind": "product_bump", "r_inner": 0.1,
                                             "r_outer": 0.2}}))
    assert main(["verify", "--config", str(config)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 16
    assert folded == [64]


def test_symmetry_gap_of_a_zero_spectrum():
    # no phase to fix: the gap is how far the partner is from zero
    zero = np.zeros(8, dtype=complex)
    assert spectrum_gap(zero, zero) == 0.0
    assert spectrum_gap(zero, np.array([0.0, 0.5j, -0.25])) == 0.5


def test_symmetry_gap_against_a_zero_partner_is_degenerate():
    # a nonzero spectrum has a phase to fix, its zero partner none: the
    # phase rule raises instead of rotating by 0 / 0 into a NaN gap
    with pytest.raises(NumericError, match="cannot fix the global phase"):
        spectrum_gap(np.array([0.5, 0.25j]), np.zeros(2, dtype=complex))


def test_symmetry_gap_rotates_the_partner_by_the_phase_rule():
    vals = np.array([0.6, 0.2j, -0.05])
    partner = vals * np.exp(0.7j)
    assert spectrum_gap(vals, partner) < 1e-15


def test_nan_outside_live_block_raises(monkeypatch):
    # the Fourier letters of the word spread the NaN into the live block
    nan_in_dead_column(monkeypatch)
    with pytest.raises(NumericError, match="matrix contains NaN or Inf"):
        trapped_sweep(ARNOLD, TRAPPED_SPEC, [32, 64], k_count=2)


def uneven_profile(spec):
    """The cutoff's profile times 1 + x: no longer even, so its fold drops 0.1 of it."""
    profile = cutoff_profile(spec)
    return lambda x: profile(x) * (1.0 + np.asarray(x))


def test_parity_breaking_operator_raises(monkeypatch):
    # a factor that does not commute with parity, on either route
    with monkeypatch.context() as mp:
        mp.setattr(experiments, "cutoff_profile", uneven_profile)
        with pytest.raises(NumericError, match="couples the parity sectors"):
            spectrum(ARNOLD, TRAPPED_SPEC, 32)
    weyl = replace(TRAPPED_SPEC, quantization="weyl", k_max=16, grid=64)
    assert spectrum(ARNOLD, weyl, 32).shape == (32,)
    monkeypatch.setattr(experiments, "cutoff_symbol", odd_term_symbol)
    with pytest.raises(NumericError, match="couples the parity sectors"):
        spectrum(ARNOLD, weyl, 32)


@pytest.mark.parametrize("n", [2, 4, 8, 64])
def test_live_rows_count_the_cutoff_sectors(n):
    cutoff = cutoff_sectors(TRAPPED_SPEC, n)
    # each sector's live slice spans the rows its builder forms
    assert live_rows(cutoff) == sum(len(rows) for _, _, rows in built(cutoff, n))
    # the bump is nonzero exactly inside its support |x| < r_outer = 0.2
    assert live_rows(cutoff) == np.count_nonzero(
        np.abs(torus_rep_array(np.arange(n) / n)) < 0.2)
    weyl = cutoff_sectors(replace(TRAPPED_SPEC, quantization="weyl", k_max=1, grid=4), n)
    assert live_rows(weyl) == n


@pytest.mark.parametrize("quantization", ["left", "weyl"])
def test_prepared_cutoff_is_data(quantization):
    # a prepared sector is (parity, live, cutoff) and holds no callable: the
    # left route's cutoff is the sector's folded profile, the Weyl route's
    # the symbol, the same in both sectors
    n = 64
    spec = replace(TRAPPED_SPEC, quantization=quantization, k_max=16, grid=64)
    defect, sectors = cutoff_sectors(spec, n)
    assert [sector[0] for sector in sectors] == [1, -1]
    assert all(len(sector) == 3 and not any(map(callable, sector)) for sector in sectors)
    if quantization == "weyl":
        assert isinstance(sectors[0][2], TorusSymbol) and sectors[0][2] is sectors[1][2]
        assert np.array_equal(sectors[0][2].table, cutoff_symbol(spec).table)
        assert [live for _, live, _ in sectors] == [slice(0, n // 2 + 1), slice(0, n // 2 - 1)]
    else:
        even, odd, fold_defect = profile_sectors(cutoff_profile(spec), n)
        assert defect == fold_defect
        for (_, live, cutoff), d in zip(sectors, (even, odd)):
            assert isinstance(cutoff, np.ndarray) and np.array_equal(cutoff, d)
            assert live == live_run(d)


def test_live_set_closed_under_parity(monkeypatch):
    # an even profile with a hole: the bump of TRAPPED_SPEC, live at
    # x = 0, +-1/16, +-1/8, +-3/16 for N = 16, with x = +-1/8 cut out.  Each
    # dead pair j, -j is one dead row in each sector, the fixed point N/2
    # one in the even sector, and open_spectrum pads one zero per dead row
    n = 16
    profile = cutoff_profile(TRAPPED_SPEC)
    pinched = lambda x: profile(x) * (np.abs(np.asarray(x)) != 0.125)
    monkeypatch.setattr(experiments, "cutoff_profile", lambda spec: pinched)
    x = torus_rep_array(np.arange(n) / n)
    dead = pinched(x) == 0
    assert np.array_equal(np.flatnonzero(~dead), [0, 1, 3, 13, 15])
    even, odd = open_sectors(ARNOLD, TRAPPED_SPEC, n)
    assert cutoff_sectors(TRAPPED_SPEC, n)[0] < 1e-12
    # the live set is the run from the first live index to the last: the
    # hole, index 2 of the even sector and 1 of the odd, is a zero row of
    # each live block, and its eigenvalue is an exact zero
    assert even[0] == slice(0, 4) and odd[0] == slice(0, 3)
    vals = spectrum(ARNOLD, TRAPPED_SPEC, n)
    a = (dense_operator(built(cutoff_sectors(TRAPPED_SPEC, n), n), n)
         @ quantize_word_dense(factor_sl2z(ARNOLD), n))
    assert not a[dead].any()
    # the sectors are the live x live blocks of the folded dense product
    for (live, block), oracle in zip((even, odd), fold_matrix(a)[:2]):
        assert np.abs(block - oracle[live, live]).max() <= 1e-12
    assert np.count_nonzero(vals == 0) == np.count_nonzero(dead)
    assert multiset_distance(vals, np.linalg.eigvals(a)) < 1e-8


def dense_cutoff(spec, n):
    """The quantized cutoff as a dense N x N matrix from the dense DFT oracle."""
    if spec.quantization == "weyl":
        return op_weyl(cutoff_symbol(spec), n)
    x = torus_rep_array(np.arange(n) / n)
    f = dft_matrix(n)
    d = cutoff_profile(spec)(x)
    return d[:, None] * (f.conj().T * d) @ f


@settings(max_examples=40, deadline=None)
@given(word=st.lists(shear, min_size=2, max_size=4),
       n=st.sampled_from([2, 4, 16, 32, 96]),
       quant=st.sampled_from(["left", "weyl"]),
       spec=st.sampled_from([TRAPPED_SPEC, NONTRAP_SPEC]))
def test_parity_sectors_on_random_hyperbolic_maps(word, n, quant, spec):
    m = shear_map(word)
    assume(abs(m.a + m.d) > 2)
    routed = replace(spec, quantization=quant, k_max=16, grid=64)
    even, odd = open_sectors(m, routed, n)
    assert cutoff_sectors(routed, n)[0] <= PARITY_TOL
    # N = 2 has no pair j != -j, so no odd sector
    assert n > 2 or odd[1].shape == (0, 0)
    # the dense chi Mhat from the dense DFT, unsplit, is the oracle
    oracle = dense_cutoff(routed, n) @ quantize_word_dense(factor_sl2z(m), n)
    vals = spectrum(m, routed, n)
    assert vals.shape == (n,)
    assert multiset_distance(vals, np.linalg.eigvals(oracle)) < 1e-8


S, S_INV = CatMap(0, -1, 1, 0), CatMap(0, 1, -1, 0)


def time_reversed(m):
    """R M R with R = diag(1, -1)."""
    return CatMap(m.a, -m.b, -m.c, m.d)


@settings(max_examples=25, deadline=None)
@given(word=st.lists(shear, min_size=2, max_size=4),
       n=st.integers(8, 128).map(lambda h: 2 * h),
       quant=st.sampled_from(["left", "weyl"]))
def test_symmetries_of_the_open_spectrum_on_random_hyperbolic_maps(word, n, quant):
    # no reference: conjugation in the position basis takes M to R M R and
    # fixes the cutoff, so their open spectra are conjugate; on the Weyl
    # route the DFT quantizes S exactly, so S M S^-1 has M's spectrum.  The
    # roundoff bound grows like N^3
    m = shear_map(word)
    assume(abs(m.a + m.d) > 2)
    spec = replace(TRAPPED_SPEC, quantization=quant)
    tol = SYMMETRY_TOL_N64 * (n / 64) ** 3
    try:
        vals = spectrum(m, spec, n)
        assert spectrum_gap(vals, np.conj(spectrum(time_reversed(m), spec, n))) < tol
        if quant == "weyl":
            assert spectrum_gap(vals, spectrum(S @ m @ S_INV, spec, n)) < tol
    except NumericError as exc:
        if not str(exc).startswith("cannot fix the global phase"):
            raise
        reject()


def test_symmetry_gaps_resolve_a_broken_symmetry():
    # the left quantization is not S-covariant: the same gap reads O(0.1)
    left = replace(TRAPPED_SPEC, quantization="left")
    vals = spectrum(ARNOLD, left, 64)
    assert spectrum_gap(vals, np.conj(spectrum(time_reversed(ARNOLD), left, 64))) < 1e-13
    assert spectrum_gap(vals, spectrum(S @ ARNOLD @ S_INV, left, 64)) > 1e-2
