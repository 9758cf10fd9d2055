import math

from hypothesis import assume, given, settings, strategies as st
import numpy as np
import pytest

from opencat.catmap import (ARNOLD, CatMap, EscapeReport, RationalPoint, analyze,
                            escape_check, guard_radius)
from opencat.errors import ConfigError

from helpers import eigvec_matrix, shear, shear_map

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def torus_norm(p: RationalPoint) -> float:
    """Euclidean distance of p to 0, coordinates represented in [-1/2, 1/2)."""
    mx = min(p.x_num, p.q - p.x_num) if p.x_num else 0
    my = min(p.y_num, p.q - p.y_num) if p.y_num else 0
    return math.hypot(mx, my) / p.q


def iterate_mod_q(m: CatMap, p: RationalPoint) -> RationalPoint:
    """One step of the map on a rational point, exact mod-q arithmetic."""
    return RationalPoint(m.a * p.x_num + m.b * p.y_num,
                         m.c * p.x_num + m.d * p.y_num, p.q)


def orbit(m: CatMap, p: RationalPoint) -> list[RationalPoint]:
    """Reference forward orbit of p until first return; length is the period."""
    pts = [p]
    cur = iterate_mod_q(m, p)
    while cur != p:
        pts.append(cur)
        cur = iterate_mod_q(m, cur)
    return pts


def escape_check_loop(m: CatMap, radius: float, q_max: int) -> EscapeReport:
    """Reference escape check: a pure-Python orbit scan over every point.

    Starts each orbit at the first unseen point in lexicographic order, so
    the witness starts at its orbit's smallest point.
    """
    report = EscapeReport(all_escape=True)
    r2 = radius * radius
    for q in range(1, q_max + 1):
        seen = np.zeros((q, q), dtype=bool)
        seen[0, 0] = True  # the fixed point at 0 is exempt
        num_orbits = 1
        min_orbit_max = math.sqrt(0.5)  # max possible torus norm
        for x0 in range(q):
            for y0 in range(q):
                if seen[x0, y0]:
                    continue
                num_orbits += 1
                orbit_max2 = 0
                x, y = x0, y0
                pts = []
                while not seen[x, y]:
                    seen[x, y] = True
                    pts.append((x, y))
                    mx = min(x, q - x) if x else 0
                    my = min(y, q - y) if y else 0
                    orbit_max2 = max(orbit_max2, mx * mx + my * my)
                    x, y = (m.a * x + m.b * y) % q, (m.c * x + m.d * y) % q
                orbit_max = math.sqrt(orbit_max2) / q
                min_orbit_max = min(min_orbit_max, orbit_max)
                if orbit_max2 <= r2 * q * q and report.all_escape:
                    report.all_escape = False
                    report.witness = [RationalPoint(px, py, q) for px, py in pts]
        report.per_q.append((q, num_orbits, min_orbit_max))
    return report


def test_arnold_expanding_eigenvalue():
    an = analyze(ARNOLD)
    # positive root of t^2 - 3t + 1 = 0
    assert an.lam == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, abs=1e-14)
    assert an.lam == pytest.approx(GOLDEN**2, abs=1e-13)


def test_parabolic_rejected():
    with pytest.raises(ConfigError, match=r"\|trace\| = 2 <= 2, not hyperbolic"):
        analyze(CatMap(1, 1, 0, 1))


def test_non_unimodular_rejected():
    with pytest.raises(ConfigError, match=r"matrix \[2, 0, 0, 1\]: det = 2, expected 1"):
        CatMap(2, 0, 0, 1)


def test_second_map_eigenvalue():
    # positive root of t^2 - 4t + 1 = 0
    an = analyze(CatMap(2, 3, 1, 2))
    assert an.lam == pytest.approx(2.0 + math.sqrt(3.0), abs=1e-13)


def test_negative_trace_map():
    an = analyze(CatMap(-2, -1, -1, -1))
    assert an.lam == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, abs=1e-13)
    # -M has the eigenvectors of M
    assert an.q_norm == analyze(ARNOLD).q_norm


@pytest.mark.parametrize("m", [ARNOLD, CatMap(2, 3, 1, 2), CatMap(3, 2, 4, 3),
                               CatMap(5, 2, 2, 1)])
def test_analysis_invariants(m):
    an = analyze(m)
    assert an.lam > 1.0
    assert an.lam + 1.0 / an.lam == pytest.approx(abs(m.trace), abs=1e-10)
    q = eigvec_matrix(m)
    mat = np.array([[m.a, m.b], [m.c, m.d]], dtype=float)
    assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-12)
    sign = -1.0 if m.trace < 0 else 1.0
    diag = q @ mat @ np.linalg.inv(q)
    off = np.abs(diag - np.diag([sign * an.lam, sign / an.lam])).max()
    assert off < 1e-10
    recon = np.linalg.inv(q) @ np.diag([sign * an.lam, sign / an.lam]) @ q
    assert np.abs(recon - mat).max() < 1e-10
    assert an.q_norm == pytest.approx(np.linalg.norm(q, 2), rel=1e-13)
    assert an.q_norm >= 1.0 - 1e-12


def test_guard_radius_values():
    an = analyze(ARNOLD)
    assert an.q_norm == pytest.approx(1.0, abs=1e-10)  # symmetric map, Q orthogonal
    assert guard_radius(an) == pytest.approx(1.0 / (4.0 * 2.618033988749895), abs=1e-7)
    an2 = analyze(CatMap(2, 3, 1, 2))
    assert guard_radius(an2) == pytest.approx(
        1.0 / (4.0 * (2.0 + math.sqrt(3.0)) * an2.q_norm**2), rel=1e-12)


@pytest.mark.parametrize("mat", [[2, 1, 1, 1], [2, 3, 1, 2], [3, 2, 4, 3], [5, 2, 2, 1],
                                 [-2, -1, -1, -1], [-7, 12, 4, -7], [41, 13, 63, 20]])
def test_guard_radius_is_invariant_under_the_torus_symmetries(mat):
    # M^T, R M R with R = diag(1, -1) and S M S^-1 with S = [[0, -1], [1, 0]]
    # have M's eigenvalues and a det-1 eigenvector matrix of the same norm,
    # Q^-T, R Q R and Q S^-1, so the same guard radius
    a, b, c, d = mat
    radii = {guard_radius(analyze(CatMap(*entries)))
             for entries in (mat, [a, c, b, d], [a, -b, -c, d], [d, -c, -b, a])}
    assert len(radii) == 1


def test_guard_radius_scaling():
    an = analyze(ARNOLD)
    doubled = an.__class__(lam=an.lam, q_norm=2 * an.q_norm)
    assert guard_radius(doubled) == pytest.approx(guard_radius(an) / 4.0, rel=1e-12)


def test_iterate_examples():
    assert iterate_mod_q(ARNOLD, RationalPoint(0, 0, 7)) == RationalPoint(0, 0, 7)
    assert iterate_mod_q(ARNOLD, RationalPoint(1, 0, 5)) == RationalPoint(2, 1, 5)
    assert iterate_mod_q(ARNOLD, RationalPoint(1, 1, 3)) == RationalPoint(0, 2, 3)


def test_orbit_examples():
    assert len(orbit(ARNOLD, RationalPoint(0, 0, 9))) == 1
    assert len(orbit(ARNOLD, RationalPoint(1, 0, 5))) == 10
    pts = orbit(ARNOLD, RationalPoint(1, 1, 3))
    assert [(p.x_num, p.y_num) for p in pts] == [(1, 1), (0, 2), (2, 2), (0, 1)]


def test_orbits_partition_the_lattice():
    # the map permutes (Z/q)^2, so orbit lengths sum to q^2
    for q in (4, 5, 6, 7):
        seen = set()
        total = 0
        for x in range(q):
            for y in range(q):
                if (x, y) in seen:
                    continue
                pts = orbit(ARNOLD, RationalPoint(x, y, q))
                total += len(pts)
                seen.update((p.x_num, p.y_num) for p in pts)
        assert total == q * q


def test_orbit_length_shift_invariant():
    p = RationalPoint(2, 3, 11)
    assert len(orbit(ARNOLD, p)) == len(orbit(ARNOLD, iterate_mod_q(ARNOLD, p)))


def test_escape_at_guard_radius():
    rep = escape_check(ARNOLD, guard_radius(analyze(ARNOLD)), 40)
    assert rep.all_escape
    assert rep.witness is None


def test_escape_counterexample_at_half():
    rep = escape_check(ARNOLD, 0.5, 3)
    assert not rep.all_escape
    pts = {(p.x_num, p.y_num, p.q) for p in rep.witness}
    assert pts == {(1, 1, 3), (0, 2, 3), (2, 2, 3), (0, 1, 3)}
    assert max(torus_norm(p) for p in rep.witness) <= math.sqrt(2.0) / 3.0 + 1e-12


def test_escape_trivial_q1():
    assert escape_check(ARNOLD, 0.1, 1).all_escape


def test_escape_invalid_radius():
    with pytest.raises(ConfigError, match=r"radius 0.6 outside \(0, 1/2\]"):
        escape_check(ARNOLD, 0.6, 5)
    with pytest.raises(ConfigError, match=r"radius 0.0 outside \(0, 1/2\]"):
        escape_check(ARNOLD, 0.0, 5)


def test_torus_norm_fundamental_domain():
    assert torus_norm(RationalPoint(3, 0, 4)) == pytest.approx(0.25)
    assert torus_norm(RationalPoint(2, 2, 4)) == pytest.approx(math.sqrt(0.5))


def assert_same_report(fast: EscapeReport, slow: EscapeReport):
    assert fast.per_q == slow.per_q
    assert fast.all_escape == slow.all_escape
    assert fast.witness == slow.witness  # same points in the same order


@pytest.mark.parametrize("mat", [[2, 1, 1, 1], [1, 1, 1, 2], [2, -1, -1, 1],
                                 [1, -1, -1, 2], [-2, -1, -1, -1]])
@pytest.mark.parametrize("radius, q_max", [(None, 40), (0.5, 3), (0.3, 30),
                                           (0.2, 40), (0.45, 25)])
def test_escape_check_matches_loop(mat, radius, q_max):
    m = CatMap(*mat)
    if radius is None:
        radius = guard_radius(analyze(m))
    assert_same_report(escape_check(m, radius, q_max),
                       escape_check_loop(m, radius, q_max))


@settings(max_examples=300, deadline=None)
@given(letters=st.lists(shear, min_size=2, max_size=6), negate=st.booleans())
def test_q_norm_matches_eigenvector_oracle(letters, negate):
    m = shear_map(letters, negate)
    assume(abs(m.trace) > 2)
    assert analyze(m).q_norm == pytest.approx(np.linalg.norm(eigvec_matrix(m), 2), rel=1e-13)


@settings(max_examples=150, deadline=None)
@given(letters=st.lists(shear, min_size=2, max_size=4), negate=st.booleans(),
       q_max=st.integers(1, 25),
       radius=st.floats(0.0, 0.5, exclude_min=True, allow_nan=False))
def test_escape_check_matches_loop_on_random_maps(letters, negate, q_max, radius):
    m = shear_map(letters, negate)
    assume(abs(m.trace) > 2)
    fast = escape_check(m, radius, q_max)
    assert_same_report(fast, escape_check_loop(m, radius, q_max))
    if fast.witness is not None:
        pts = [(p.x_num, p.y_num) for p in fast.witness]
        assert pts[0] == min(pts)
        assert fast.witness == orbit(m, fast.witness[0])
