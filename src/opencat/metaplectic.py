"""Unitary quantization of SL(2,Z) matrices on the N-dimensional torus space.

A cat map is factored into three letters: S^-1 = [[0,1],[-1,0]], the shear
U(b) = [[1,b],[0,1]] and the parity -I.  Each has a closed-form unitary (the
DFT and a quadratic phase); the product quantizes the map up to a global
phase.  -I is central in SL(2,Z), so every letter commutes with parity
j -> -j, exactly in the integers of its phases: the word acts on the two
parity sectors of hn apart and is not checked at run time.  apply_word
multiplies all of one sector's rows by the word, into a new array or in
place, so chi Mhat is formed from chi's nonzero rows without building
Mhat, and only in the run of columns asked for.  The letters are written
down once, as full-space steps (_steps: F, F^dag, U's chirps and
scalars), and both ways of running the word read them: with the DFT's
sector block that its caller passes, the steps as they stand, on panels
of rows, each transform a product with the block; without one, the
steps lowered once to one scalar and transforms, any two adjacent ones
collapsed, run as row FFTs on blocks of rows unfolded to N columns once
and folded back once.
quantize_word builds each sector's block, runs the word on the sector's
identity and unfolds the two sector unitaries into the N x N matrix: the
dense reference for both ways of running the word.
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
from .hn import dft_sector, fold_parity, sector_basis, sector_embedding, unfold_parity
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


def _chirp(letter, n: int):
    """U(b)'s quadratic phase e^{i pi coef m^2 / N}, coef = -b, on the N points m = 0..N-1.

    U(b) is this chirp conjugated by the DFT.  The phase has period 2N in
    coef, so coef is first reduced into [-N, N) in exact integer
    arithmetic.  For N even coef (N - m)^2 = coef m^2 mod 2N, so the chirp
    commutes with parity: the steps run with the DFT block read its fold
    into one sector (fold_parity), the row FFTs the chirp itself.
    """
    coef = (n - letter[1]) % (2 * n) - n
    m = np.arange(n)
    return np.exp(1j * math.pi * coef * m * m / n)


# Most rows multiplied by the DFT block at once: one panel, 1.0 MB at
# N = 2048 (410 live rows in 7 panels), per product.
_ROW_PANEL = 64
# Rows _run_steps unfolds to N columns at once, in one buffer of 0.2 MB at
# N = 768.  On the Weyl nontrapping sweep (N = 256, 512, 768, 2 vCPUs) the
# process peaked 0.1-0.4 MB above the RSS of the word run letter by letter,
# against 0.8-1.0 MB with 64 rows unfolded at once, in the same time.
_FULL_ROWS = 16


def _panels(rows: int):
    """Slices of near-equal panels of at most _ROW_PANEL rows covering range(rows).

    Equal panels leave no lone trailing row: numpy multiplies a one-row
    panel as a vector, which rounds otherwise than the matrix product.
    """
    count = max(1, -(-rows // _ROW_PANEL))
    bounds = [rows * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _steps(word, n: int, parity: int):
    """The word on one parity sector letter by letter, as full-space steps acting on rows from the right.

    S_INV is F then conj(omega), U(b) is F, U's chirp (_chirp) and F^dag,
    and PAR is the sector's sign: a step is "F", "F^dag", a chirp or a
    scalar.  A letter outside the alphabet raises letter_matrix's
    ValueError, before any step is run.
    """
    steps = []
    for letter in word:
        letter_matrix(letter)  # raises ValueError on a letter outside the alphabet
        if letter[0] == "S_INV":
            steps += ["F", np.conj(OMEGA_S)]
        elif letter[0] == "U":
            steps += ["F", _chirp(letter, n), "F^dag"]
        else:
            steps.append(parity)
    return steps


def _lower(word, n: int, parity: int):
    """The word's steps (_steps) with their scalars pulled out and adjacent transforms collapsed: (steps, scalar).

    The steps left are "F", "F^dag" and U's chirps in the order they act,
    with any two adjacent transforms collapsed as they form: F^dag F and F
    F^dag are 1, and F F and F^dag F^dag are the parity P (F^2 = P), the
    sector's sign.  The scalar is the product of the conj(omega) and parity
    factors.  A chirp is never dropped, nor a pair across one, so no two
    transforms stay adjacent.
    """
    lowered, scalar = [], 1.0
    for step in _steps(word, n, parity):
        if isinstance(step, str) and lowered and isinstance(lowered[-1], str):
            if lowered.pop() == step:
                scalar *= parity
        elif isinstance(step, str) or np.ndim(step):
            lowered.append(step)
        else:
            scalar *= step
    return lowered, scalar


def _transform(full, step: str):
    """full @ F, or full @ F^dag for step "F^dag", in place: one unitary FFT per row (numpy >= 2.0 for out=).

    F is the unitary DFT, kernel e^{-2 pi i m k / N} / sqrt(N), so a row
    times F is its ortho FFT and a row times F^dag its ortho inverse FFT.
    """
    fft = np.fft.fft if step == "F" else np.fft.ifft
    fft(full, axis=1, norm="ortho", out=full)


def _run_steps(x, steps, scalar, n: int, parity: int, cols, out):
    """Write (x @ Mhat_s)[:, cols] into out for a word lowered to steps and scalar (_lower), its steps in the full space.

    _FULL_ROWS rows at a time are unfolded once to N columns through the
    sector's embedding (hn.sector_embedding), the steps act on them in
    place, and they are folded back once onto the columns cols of out's
    same rows (hn.sector_basis): a column is its pair's weighted sum, a
    fixed point's value itself, times the scalar.  One N-wide buffer
    serves every block, and out may be x: a block is unfolded before its
    rows are written.  An empty sector, N = 2's odd one, writes nothing.
    """
    index, partner, weight = sector_basis(n, parity)
    if not len(index):
        return
    place, signed = sector_embedding(n, parity)
    own = slice(index[0], index[-1] + 1)    # basis vector s's own column index[s], a run
    # a fixed point is its own partner: its two terms are one value
    scale = np.where(index == partner, 0.5, weight)[cols] * scalar
    full = np.empty((min(len(x), _FULL_ROWS), n), dtype=complex)
    for start in range(0, len(x), _FULL_ROWS):
        rows, folded = x[start:start + _FULL_ROWS], out[start:start + _FULL_ROWS]
        buf = full[:len(rows)]
        # mode="clip" writes straight into buf, where "raise" buffers
        np.take(rows.astype(complex, copy=False), place, axis=1, mode="clip", out=buf)
        buf *= signed
        for step in steps:
            if isinstance(step, str):
                _transform(buf, step)
            else:
                buf *= step
        np.take(buf, partner[cols], axis=1, mode="clip", out=folded)
        (np.add if parity == 1 else np.subtract)(buf[:, own][:, cols], folded, out=folded)
        folded *= scale


def apply_word(x: np.ndarray, word, f, n: int, parity: int,
               cols=slice(None), out=None) -> np.ndarray:
    """Write (x @ Mhat_s)[:, cols], the word's unitary on one parity sector, into out and return it.

    x holds rows in the sector basis, even (parity=+1, N/2 + 1 columns) or
    odd (parity=-1, N/2 - 1 columns); N must be even, and f is the
    sector's block of the unitary DFT (hn.dft_sector), or None.  Both ways
    run the steps of _steps, which acts on the rows from the right as
    S_INV: conj(omega) x F, U(b): x F chirp F^dag and PAR: x * parity.
    With f they run as they stand on panels of rows (_panels): each
    transform is a product with F_s, a quarter of the full-space one,
    x F^dag is conj(conj(x) F_s) as F_s is symmetric, the last transform
    forms only the columns cols, U's chirp is folded into the sector once
    per call, and a chirp or scalar is a multiply.  Without f the word is
    lowered once, its scalars pulled out and each two adjacent transforms
    collapsed (_lower), and run as row FFTs and chirps on _FULL_ROWS rows
    at a time unfolded to N columns (_run_steps): a word [U(b), S_INV,
    PAR, U(b')] runs three FFTs per row, not five.

    out is a new complex array when None, and may be x itself when cols
    spans all of x's columns: each block of rows is read before it is
    written.  Otherwise x is only read and may be a read-only view.  A
    letter other than S_INV, U and PAR raises ValueError before any
    product; the empty word without out returns the view x[:, cols].
    """
    if not word and out is None:
        return x[:, cols]
    if out is None:
        out = np.empty((len(x), len(range(x.shape[1])[cols])), dtype=complex)
    if f is None:
        steps, scalar = _lower(word, n, parity)
        if steps:
            _run_steps(x, steps, scalar, n, parity, cols, out)
        else:
            np.multiply(x[:, cols], scalar, out=out)
        return out
    # U's chirp folded into the sector once for all panels
    steps = [fold_parity(step, parity) if np.ndim(step) else step for step in _steps(word, n, parity)]
    products = [i for i, step in enumerate(steps) if isinstance(step, str)]
    first = products[0] if products else len(steps)
    for panel in _panels(len(x)):
        y = x[panel] if products else x[panel, cols]
        for i, step in enumerate(steps):
            into = y if i > first else None     # until the first product y is a view of x
            if isinstance(step, str):
                to = cols if i == products[-1] else slice(None)
                if step == "F^dag":
                    y = np.conj(y, out=into) @ f[:, to]
                    np.conj(y, out=y)
                else:
                    y = y @ f[:, to]
            else:
                y = np.multiply(y, step, out=into)
        out[panel] = y
    return out


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
