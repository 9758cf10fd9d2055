"""Unitary quantization of SL(2,Z) matrices on the N-dimensional torus space.

A cat map is factored into three letters: S^-1 = [[0,1],[-1,0]], the shear
U(b) = [[1,b],[0,1]] and the parity -I.  Each has a closed-form unitary (the
DFT and a quadratic phase); the product quantizes the map up to a global
phase.  -I is central in SL(2,Z), so every letter commutes with parity
j -> -j, exactly in the integers of its phases: the word acts on the two
parity sectors of hn apart and is not checked at run time.  apply_word
multiplies one sector's rows by the word letter by letter, out of place,
with the folded chirps and either the DFT's sector block that its caller
passes or, without one, one FFT per row for each Fourier letter (in the
sector basis the DFT is a DCT-I or i times a DST-I), so chi Mhat is
formed from chi's nonzero rows without building Mhat, and only in the run
of columns asked for; quantize_word builds each sector's block, runs the
word on the sector's identity and unfolds the two sector unitaries into
the N x N matrix: the dense reference for both kinds of Fourier letter.
The global phase is a convention: the one rule that fixes it acts on the
eigenvalues of the open operator (phase_factor).  All sign conventions
are pinned by the exact Egorov law
Op(a o M) = Mhat^dag Op(a) Mhat on the plane waves e^{2 pi i x} and
e^{2 pi i xi}, per letter and per word (egorov_residual): with the DFT
kernel e^{-2 pi i m k / N}, S^-1 quantizes to a multiple of the DFT
(quantize_word's sign=-1).
"""

import math

import numpy as np

from .catmap import CatMap
from .errors import NumericError
from .hn import dft_sector, fold_parity, sector_basis, unfold_parity
from .quantizer import op_weyl, plane_wave

OMEGA_S = np.exp(-1j * math.pi / 4)  # S^-1 quantizes to conj(OMEGA_S) times the DFT

# Letters are tuples: ("S_INV",), ("U", b), ("PAR",)
def letter_matrix(letter) -> CatMap:
    kind = letter[0]
    if kind == "S_INV":
        return CatMap(0, 1, -1, 0)
    if kind == "U":
        return CatMap(1, letter[1], 0, 1)
    if kind == "PAR":
        return CatMap(-1, 0, 0, -1)
    raise ValueError(f"unknown letter {letter!r}")


def word_matrix(word) -> CatMap:
    """Ordered product of the word's letters; the empty word is the identity."""
    prod = CatMap(1, 0, 0, 1)
    for letter in word:
        prod = prod @ letter_matrix(letter)
    return prod


def factor_sl2z(m: CatMap) -> list:
    """Factor m into S_INV, U(b) and PAR letters whose ordered product is exactly m.

    Euclidean reduction of the first column: swap via S when the lower-left
    entry dominates, shear via U to reduce the upper-left mod it, and absorb
    a final -I into PAR.  Each step left-multiplies the matrix by S or
    U(-t), so the word takes its inverse, S_INV or U(t), in the order the
    steps run.  Exact integer arithmetic throughout; the result is verified
    by multiplying back before returning.
    """
    a, b, c, d = m.a, m.b, m.c, m.d
    word = []
    while c != 0:
        if a == 0 or abs(c) > abs(a):
            # S * [[a,b],[c,d]] = [[-c,-d],[a,b]]
            word.append(("S_INV",))
            a, b, c, d = -c, -d, a, b
        else:
            t = a // c
            # U(-t) * [[a,b],[c,d]] = [[a-tc, b-td],[c,d]]
            word.append(("U", t))
            a, b = a - t * c, b - t * d
    # now [[a,b],[0,d]] with a*d = 1
    if a == 1:
        word += [("U", b)] if b != 0 else []
    else:
        word += [("PAR",)] + ([("U", -b)] if b != 0 else [])
    assert word_matrix(word) == m, f"factorization failed for {m}"
    return word


def _chirp(letter, n: int, parity: int):
    """U(b)'s quadratic phase e^{i pi coef m^2 / N}, coef = -b, folded into one parity sector.

    U(b) is this chirp conjugated by the DFT.  The phase has period 2N in
    coef, so coef is first reduced into [-N, N) in exact integer
    arithmetic.  For N even coef (N - m)^2 = coef m^2 mod 2N, so the chirp
    folds into one diagonal per sector (fold_parity).
    """
    coef = (n - letter[1]) % (2 * n) - n
    m = np.arange(n)
    return fold_parity(np.exp(1j * math.pi * coef * m * m / n), parity)


def _fourier(x, f, n: int, parity: int, cols=slice(None)):
    """x @ F_s[:, cols] for the sector's DFT block F_s: a product with f, or with f None one FFT per row.

    Without a block the rows are unfolded to N columns with the sector's
    weights and partner signs (hn.sector_basis), each transformed by one
    length-N unitary FFT, whose kernel e^{-2 pi i m k / N} is the DFT's,
    and folded back on the columns cols: a column is its pair's weighted
    sum, a fixed point's value itself.  O(rows N log N) work, against
    O(rows N^2 / 4) for the product with the block.
    """
    if f is not None:
        return x @ f[:, cols]
    index, partner, weight = sector_basis(n, parity)
    full = np.zeros((len(x), n), dtype=complex)
    part = x * weight
    full[:, index] = part
    full[:, partner] = part if parity == 1 else -part
    del part
    full = np.fft.fft(full, axis=1, norm="ortho")
    # a fixed point is its own partner: its two terms are one value
    scale = np.where(index == partner, 0.5, weight)[cols]
    out = full[:, index[cols]]
    if parity == 1:
        out += full[:, partner[cols]]
    else:
        out -= full[:, partner[cols]]
    out *= scale
    return out


def apply_word(x: np.ndarray, word, f, n: int, parity: int,
               cols=slice(None)) -> np.ndarray:
    """(x @ Mhat_s)[:, cols] for the word's unitary on one parity sector, letter by letter from the right.

    x holds rows in the sector basis, even (parity=+1, N/2 + 1 columns) or
    odd (parity=-1, N/2 - 1 columns); N must be even, and f is the
    sector's block of the unitary DFT (hn.dft_sector), or None for no
    block: each product with F_s is then one FFT per row (_fourier).  With
    chirp U's folded chirp in the sector, the letters act on the rows as
    S_INV: conj(omega) x F, U(b): ((x F) * chirp) F^dag and PAR: x *
    parity; F is symmetric, so x F^dag is conj(conj(x) F).  Each product
    with the block is a (rows x N/2) by (N/2 x N/2) one, a quarter of the
    full-space one.  The slice cols selects the output columns: the last
    Fourier letter forms only those, and the PAR letters after it act on
    them alone.

    x is only read, so it may be a read-only view: the letters write only
    arrays the word makes.  A letter other than S_INV, U and PAR raises
    ValueError before any product; the empty word returns the view
    x[:, cols].
    """
    for letter in word:
        letter_matrix(letter)  # raises ValueError on a letter outside the alphabet
    last = max((i for i, letter in enumerate(word) if letter[0] != "PAR"), default=-1)
    if last < 0:
        x = x[:, cols]
    for i, letter in enumerate(word):
        out = cols if i == last else slice(None)
        if letter[0] == "S_INV":
            x = _fourier(x, f, n, parity, out)
            x *= np.conj(OMEGA_S)
        elif letter[0] == "U":
            x = _fourier(x, f, n, parity)
            x *= _chirp(letter, n, parity)
            np.conj(x, out=x)
            x = _fourier(x, f, n, parity, out)
            np.conj(x, out=x)
        else:
            x = x * parity
    return x


def quantize_word(word, n: int, sign: int = -1) -> np.ndarray:
    """The word's unitary as an N x N matrix: apply_word on each sector's identity, unfolded.

    sign=+1 uses conj(F), the kernel opposite to the package's.  Flipping
    the sign everywhere is unitarily equivalent (conjugation by parity), so
    only a mismatch with the observables shows: Egorov for S^-1 breaks at O(1).
    """
    blocks = []
    for parity in (1, -1):
        f = dft_sector(n, parity)
        blocks.append(apply_word(np.eye(len(f), dtype=complex), word,
                                 f.conj() if sign == 1 else f, n, parity))
    return unfold_parity(*blocks)


def quantize_map(m: CatMap, n: int, sign: int = -1) -> np.ndarray:
    """Quantize a cat map, up to the global phase its factorization gives.

    The unitary is quantize_word of the word factor_sl2z(m).
    """
    return quantize_word(factor_sl2z(m), n, sign)


def phase_factor(mu0: complex) -> complex:
    """Unimodular scalar rotating the leading eigenvalue mu0 onto the positive axis.

    mu0 is the open operator's eigenvalue that eigensolver.sort_by_modulus
    ranks first; the operator times this scalar has its eigenvalues times
    it, and mu0 among them real and positive.  A mu0 of modulus below 1e-12
    has no phase to fix and raises NumericError.
    """
    if abs(mu0) < 1e-12:
        raise NumericError(f"cannot fix the global phase: leading eigenvalue modulus "
                           f"{abs(mu0):.3e} is below 1e-12")
    return np.conj(mu0) / abs(mu0)


def egorov_residual(word, freqs, n: int, sign: int = -1) -> float:
    """Largest max-entry defect of Op(a o M) - Mhat^dag Op(a) Mhat over a = e^{2 pi i (k x + l xi)}, (k, l) in freqs.

    Mhat is the word's unitary with DFT kernel sign `sign`, built once for
    all the frequencies, M = word_matrix(word), and Op keeps the package
    convention, so sign=+1 measures the mismatch.  a o M is the plane wave
    at M^T (k, l), whose Op_N depends on it only mod 2N, so each component
    is reduced into [-N, N) in exact integers.  Egorov is linear in the
    symbol, so plane waves pin it for every symbol; the defect is zero in
    exact arithmetic.
    """
    m = word_matrix(word)
    u = quantize_word(word, n, sign)

    def defect(k, l):
        pulled = plane_wave((m.a * k + m.c * l + n) % (2 * n) - n,
                            (m.b * k + m.d * l + n) % (2 * n) - n)
        return float(np.abs(op_weyl(pulled, n) - u.conj().T @ op_weyl(plane_wave(k, l), n) @ u).max())

    return max(defect(k, l) for k, l in freqs)
