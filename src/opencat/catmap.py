"""Exact classical dynamics of hyperbolic toral automorphisms (cat maps).

Everything here is either exact integer arithmetic on rational points of the
torus, or closed-form expressions in the matrix entries for the hyperbolic
eigen-data of the map.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class CatMap:
    """Integer matrix [[a, b], [c, d]] in SL(2, Z) with |trace| > 2."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ConfigError(f"matrix {[self.a, self.b, self.c, self.d]}: "
                              f"det = {self.a * self.d - self.b * self.c}, expected 1")

    @property
    def trace(self) -> int:
        return self.a + self.d

    def __matmul__(self, other: "CatMap") -> "CatMap":
        return CatMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )


ARNOLD = CatMap(2, 1, 1, 1)


@dataclass(frozen=True)
class CatMapAnalysis:
    """Hyperbolic eigen-data: expanding eigenvalue modulus and the norm of the eigenvector matrix."""

    lam: float     # expanding eigenvalue modulus, > 1
    q_norm: float  # operator (2-)norm of the det-1 Q with Q M Q^-1 diagonal


def analyze(m: CatMap) -> CatMapAnalysis:
    """Eigen-data of a cat map [[a, b], [c, d]], in closed form from its entries.

    The eigenvalues are mu+ = +-lam and mu- = +-1/lam, signed as the trace
    tr = a + d.  Q is the eigenvector matrix with Q M Q^-1 diagonal and
    det Q = 1, and

        |Q|^2 = (hypot(b + c, a - d) + |b - c|) / sqrt(tr^2 - 4).

    Why: Q is 2x2 with det 1, so its singular values are s and 1/s and
    |Q|^2 = s^2 = (F + sqrt(F^2 - 4))/2, where F = |Q|_F^2 = |P|_F^2 with
    P = Q^-1.  P's columns are unit eigenvectors scaled to det 1, so
    F = 2/|sin t| with t the angle between the eigenlines, and
    |Q|^2 = (1 + |cos t|)/|sin t|.  The eigenvectors v = (b, mu - a) have
    v+ . v- = b (b - c), |v+| |v-| = |b| hypot(b + c, a - d) and
    |det[v+, v-]| = |b| sqrt(tr^2 - 4); b != 0 for every hyperbolic map in
    SL(2, Z), since b = 0 forces a = d = +-1.  Each term is unchanged up to
    sign under M -> M^T, R M R and S M S^-1 (R = diag(1, -1),
    S = [[0, -1], [1, 0]]), which keep |Q|, so the guard radius is
    bit-identical across them.
    """
    a, b, c, d = m.a, m.b, m.c, m.d
    tr = a + d
    if abs(tr) <= 2:
        raise ConfigError(f"matrix {[a, b, c, d]}: |trace| = {abs(tr)} <= 2, not hyperbolic")
    root = math.sqrt(tr * tr - 4)
    lam = (abs(tr) + root) / 2.0
    q_norm = math.sqrt((math.hypot(b + c, a - d) + abs(b - c)) / root)
    return CatMapAnalysis(lam=lam, q_norm=q_norm)


def guard_radius(analysis: CatMapAnalysis) -> float:
    """Radius 1/(4 lam |Q|^2) inside which 0 is the only periodic orbit."""
    return 1.0 / (4.0 * analysis.lam * analysis.q_norm**2)


@dataclass(frozen=True)
class RationalPoint:
    """Point (x/q, y/q) on the torus, coordinates reduced mod q."""

    x_num: int
    y_num: int
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("denominator must be positive")
        object.__setattr__(self, "x_num", self.x_num % self.q)
        object.__setattr__(self, "y_num", self.y_num % self.q)


@dataclass
class EscapeReport:
    all_escape: bool
    witness: list[RationalPoint] | None = None
    per_q: list[tuple[int, int, float]] = field(default_factory=list)  # (q, num_orbits, min over orbits of max norm)


def escape_check(m: CatMap, radius: float, q_max: int) -> EscapeReport:
    """Exact check that every nonzero rational orbit leaves the ball.

    For each denominator q <= q_max, decomposes the permutation of (Z/q)^2
    induced by the map into orbits, and tests whether each nonzero orbit
    contains a point at torus distance > radius from 0.  The zero fixed point
    is exempt.  The first fully-contained orbit, in the lexicographic order
    of the orbits' smallest points and starting at that point, is returned
    as witness.
    """
    if not (0.0 < radius <= 0.5):
        raise ConfigError(f"radius {radius} outside (0, 1/2]")
    if q_max < 1:
        raise ConfigError(f"q_max {q_max} must be >= 1")

    report = EscapeReport(all_escape=True)
    r2 = radius * radius
    for q in range(1, q_max + 1):
        succ, heads, head_max2 = _orbit_heads(m, q)
        heads, head_max2 = heads[1:], head_max2[1:]  # the zero fixed point is exempt
        min_orbit_max = math.sqrt(0.5)  # max possible torus norm
        if len(heads):
            min_orbit_max = min(min_orbit_max, math.sqrt(int(head_max2.min())) / q)
        if report.all_escape:
            inside = heads[head_max2 <= r2 * q * q]
            if len(inside):
                report.all_escape = False
                walk = [int(inside[0])]
                while (nxt := int(succ[walk[-1]])) != walk[0]:
                    walk.append(nxt)
                report.witness = [RationalPoint(*divmod(i, q), q) for i in walk]
        report.per_q.append((q, 1 + len(heads), min_orbit_max))
    return report


def _orbit_heads(m: CatMap, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The map on (Z/q)^2 as its successor array on flat indices x*q + y, and
    each orbit as its head, the smallest flat index on it, in increasing
    order, with the largest squared integer torus norm on the orbit.

    Pointer doubling: after k rounds each point is labelled with the
    smallest index over its next 2^k points.  A round that changes no label
    means every window already spans its whole orbit: the labels are then
    non-decreasing, hence constant, along each cycle of the 2^k jump, so
    each window holds its orbit's smallest index, and that index occurs once
    per orbit.
    """
    x, y = np.arange(q)[:, None], np.arange(q)[None, :]
    a, b, c, d = (v % q for v in (m.a, m.b, m.c, m.d))  # keeps products < q^2
    step = ((a * x + b * y) % q * q + (c * x + d * y) % q).ravel()
    succ = step  # the doubling loop rebinds step, never writes into it
    label = np.arange(q * q)
    width = 1
    while width < q * q:
        ahead = label[step]
        if (ahead >= label).all():
            break
        np.minimum(label, ahead, out=label)
        step = step[step]
        width *= 2
    heads = np.flatnonzero(label == np.arange(q * q))
    norm2 = np.minimum(x, q - x) ** 2  # squared distance of a coordinate to 0
    max2 = np.zeros(q * q, dtype=np.int64)
    np.maximum.at(max2, label, (norm2 + norm2.T).ravel())
    return succ, heads, max2[heads]
