"""Dense complex linear algebra for small Hermitian systems.

Eigendecomposition uses cyclic Jacobi rotations: slower than LAPACK but fully
deterministic, with a fixed rotation order, a fixed tie-break for degenerate
eigenvalues, and a fixed phase gauge. That determinism is what makes repeated
runs byte-identical, so do not swap in a platform eigensolver here.

The Jacobi kernel runs on Python complex scalars held in lists: the working
matrix as rows, the eigenvector basis as columns. Every rotation is plain
scalar IEEE double arithmetic with no numpy dispatch. Rows of Python complex
go in as they are, and EigenSystem is a record of the solver's own floats
and complex rows; its properties build read-only numpy arrays on each read.
A rotation recomputes rows p and q and mirrors them into columns p and q,
so the working matrix stays exactly Hermitian. The rules are fixed: sweep
(p, q) pairs in row order, skip a rotation when a[p][q] == 0, stop when the
off-diagonal Frobenius norm is at most JACOBI_RELATIVE_TOL times the matrix
norm, then sort stably, order each degenerate group by pivot index and make
every pivot component real and positive. One call costs 1.5-2 ms at n=8 on
a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4). The cost grows with n^3 per
sweep; at n=64 a call takes about 1.3 s.

n=2, the dimension of every built-in model, goes to _eig2 once the rows
pass the checks every size does. It runs the Hermiticity check and
symmetrisation of the general code on the four entries; a defect past the
tolerance or an overflow goes to the general check, so its message is the
same. Then one Jacobi rotation diagonalises the 2x2 matrix exactly, and
Rutishauser's update gives its diagonal, h00 - t|h01| and h11 + t|h01|
(Numer. Math. 9, 1-10, 1966), followed by the same canonical form. A matrix
whose off-diagonal is below the convergence threshold, every (1-s)*H0 of a
built-in ramp among them, is taken as diagonal with the bits of the general
code. Elsewhere the eigenvalues differ from the general code's by a few ulp
of the matrix norm (the general code, which forms G^H A G in complex
arithmetic, is the less accurate of the two) and the eigenvectors by a few
eps; tests compare the two on more than 20,000 matrices. A dense 2x2 call
costs about 3.5-4.5 us on rows and 4.5-5.5 us on an array. The ramp and the
hold apply eigensystems themselves.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "EigenSystem",
    "HERMITICITY_TOL",
    "as_complex_matrix",
    "as_state_vector",
    "eig_hermitian",
]

HERMITICITY_TOL = 1e-12
# largest | ||v|| - 1 | a state vector may carry
NORM_TOL = 1e-10
# convergence: off-diagonal Frobenius mass relative to the full Frobenius norm
JACOBI_RELATIVE_TOL = 1e-14
# components at or below this modulus are ignored when choosing the pivot
# entry used for eigenvector ordering and phase fixing
PIVOT_MODULUS = 1e-9
_MAX_SWEEPS = 64
_SQRT2 = math.sqrt(2.0)


def _square_rows(m: np.ndarray) -> list[list[complex]]:
    """Rows of a complex128 array as Python complex scalars, after checking
    that it is a square matrix with finite entries."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError("matrix must have dimension >= 1")
    rows = m.tolist()
    for i, row in enumerate(rows):
        if not all(map(cmath.isfinite, row)):
            j = next(j for j, z in enumerate(row) if not cmath.isfinite(z))
            raise ValueError(f"non-finite matrix entry at ({i}, {j}): {row[j]}")
    return rows


def as_complex_matrix(entries) -> np.ndarray:
    """Coerce to a square complex128 matrix, rejecting non-finite entries,
    matrices that are not Hermitian within HERMITICITY_TOL and matrices whose
    Hermitian part or its Frobenius norm overflows."""
    m = np.array(entries, dtype=np.complex128)
    _hermitian_part(_square_rows(m), HERMITICITY_TOL)
    return m


def as_state_vector(amplitudes) -> np.ndarray:
    """Coerce to a normalized complex128 vector."""
    v = np.array(amplitudes, dtype=np.complex128)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    bad = np.argwhere(~np.isfinite(v.real) | ~np.isfinite(v.imag))
    if bad.size:
        raise ValueError(f"non-finite amplitude at index {bad[0][0]}: {v[bad[0][0]]}")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"state vector norm {norm!r} differs from 1 by more than {NORM_TOL:g}")
    return v


def _hermitian_part(a: list[list[complex]], tol: float) -> tuple[list[list[complex]], float]:
    """(a + a^H)/2 as rows whose lower triangle is the exact conjugate of the
    upper one, once no entry of a - a^H exceeds tol in modulus, and its
    Frobenius norm, once that and every entry are finite.

    Working on the Hermitian part matters: an anti-Hermitian residue inside
    the tolerance would otherwise put a floor under the off-diagonal norm.
    """
    n = len(a)
    h = [[0j] * n for _ in range(n)]
    worst, wi, wj = 0.0, 0, 0
    # |a - a^H| is symmetric, so its first largest entry in row-major order
    # lies in the upper triangle
    for i in range(n):
        row, hrow = a[i], h[i]
        for j in range(i, n):
            x, y = row[j], a[j][i].conjugate()
            d = abs(x - y)
            if d > worst:
                worst, wi, wj = d, i, j
            z = (x + y) / 2.0
            h[j][i] = z.conjugate()
            hrow[j] = z
    if worst > tol:
        raise ValueError(
            f"matrix is not Hermitian within {tol:g}: entry ({wi}, {wj}) = {a[wi][wj]} "
            f"vs conjugate of ({wj}, {wi}) = {a[wj][wi].conjugate()}, defect {worst:.3e}"
        )
    # an infinite entry makes the norm infinite, so one test covers both
    norm = math.hypot(*[abs(z) for row in h for z in row])
    if not math.isfinite(norm):
        # the first such entry in row-major order lies in the upper triangle
        for i in range(n):
            for j in range(i, n):
                if not cmath.isfinite(h[i][j]):
                    raise ValueError(
                        f"Hermitian part (a + a^H)/2 overflows at entry ({i}, {j}): "
                        f"entry ({i}, {j}) = {a[i][j]}, conjugate of ({j}, {i}) = "
                        f"{a[j][i].conjugate()}"
                    )
        raise ValueError("Hermitian part has a Frobenius norm past the largest float")
    return h, norm


class EigenSystem(NamedTuple):
    """Spectral decomposition of a Hermitian matrix, as the solver returns it.

    values are real and ascending; column k of rows belongs to values[k] and
    the column set is unitary. values is a list of floats and rows is a list
    of rows of Python complex, which the ramp reads directly. eigenvalues and
    eigenvectors build them into a fresh read-only numpy array on each read.
    """

    values: list[float]
    rows: list[list[complex]]

    @property
    def eigenvalues(self) -> np.ndarray:
        return _read_only(np.array(self.values, dtype=np.float64))

    @property
    def eigenvectors(self) -> np.ndarray:
        return _read_only(np.array(self.rows, dtype=np.complex128))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _offdiag_norm(a: list[list[complex]]) -> float:
    # the strict lower triangle mirrors the upper one
    return _SQRT2 * math.hypot(*[abs(z) for i, row in enumerate(a) for z in row[i + 1 :]])


def _rotate(a: list[list[complex]], v: list[list[complex]], p: int, q: int) -> None:
    """One Jacobi rotation zeroing a[p][q], applied in place to the Hermitian
    rows a and the eigenvector columns v."""
    rp, rq = a[p], a[q]
    apq = rp[q]
    mod = abs(apq)
    if mod == 0.0:
        return
    phase = apq / mod
    tau = (rq[q].real - rp[p].real) / (2.0 * mod)
    if tau == 0.0:
        t = 1.0
    else:
        t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    u = s * phase
    uc = u.conjugate()
    # columns p, q of the rotation G: gp = (c, -s*conj(phase)), gq = (s*phase, c).
    # Rows p, q of G^H a; every other row only changes in columns p and q,
    # by the conjugates of these rows' entries.
    new_p = [x * c - y * u for x, y in zip(rp, rq)]
    new_q = [x * uc + y * c for x, y in zip(rp, rq)]
    for row, x, y in zip(a, new_p, new_q):
        row[p] = x.conjugate()
        row[q] = y.conjugate()
    # the (p, q) block of (G^H a) G
    bpp, bpq, bqp, bqq = new_p[p], new_p[q], new_q[p], new_q[q]
    new_p[p] = (bpp * c - bpq * uc).real
    new_q[q] = (bqp * u + bqq * c).real
    new_p[q] = bpp * u + bpq * c
    new_q[p] = new_p[q].conjugate()
    a[p], a[q] = new_p, new_q
    vp, vq = v[p], v[q]
    v[p] = [x * c - y * uc for x, y in zip(vp, vq)]
    v[q] = [x * u + y * c for x, y in zip(vp, vq)]


def _pivot_index(column: list[complex]) -> int:
    for i, z in enumerate(column):
        if abs(z) > PIVOT_MODULUS:
            return i
    # a unit vector always has a component above any threshold < 1/sqrt(dim);
    # fall back to the largest entry for safety
    moduli = [abs(z) for z in column]
    return moduli.index(max(moduli))


def _canonicalize(
    lam: list[float], v: list[list[complex]]
) -> tuple[list[float], list[list[complex]]]:
    n = len(lam)
    order = sorted(range(n), key=lam.__getitem__)
    lam = [lam[k] for k in order]
    v = [v[k] for k in order]
    # reorder degenerate groups by the pivot index so column order does not
    # depend on rotation history; the gap is relative to the largest
    # eigenvalue modulus, so a matrix scaled by any power of 2 keeps its order
    gap = 1e-12 * max(map(abs, lam))
    i = 0
    while i < n:
        j = i + 1
        while j < n and lam[j] - lam[j - 1] <= gap:
            j += 1
        if j - i > 1:
            sub = sorted(range(i, j), key=lambda k: _pivot_index(v[k]))
            lam[i:j] = [lam[k] for k in sub]
            v[i:j] = [v[k] for k in sub]
        i = j
    for k, column in enumerate(v):
        anchor = column[_pivot_index(column)]
        mod = abs(anchor)
        if mod > 0.0:
            gauge = anchor.conjugate() / mod
            v[k] = [z * gauge for z in column]
    return lam, v


def _jacobi(a: list[list[complex]], scale: float) -> EigenSystem:
    """Cyclic Jacobi sweeps on the Hermitian rows a, whose Frobenius norm is
    scale; a is overwritten."""
    n = len(a)
    # eigenvector columns, starting from the identity
    v = [[0j] * n for _ in range(n)]
    for k in range(n):
        v[k][k] = 1.0 + 0j
    if scale > 0.0:
        for _ in range(_MAX_SWEEPS):
            if _offdiag_norm(a) <= JACOBI_RELATIVE_TOL * scale:
                break
            for p in range(n - 1):
                for q in range(p + 1, n):
                    _rotate(a, v, p, q)
        else:
            raise ArithmeticError(
                f"Jacobi iteration did not converge in {_MAX_SWEEPS} sweeps "
                f"(dimension {n}, residual {_offdiag_norm(a):.3e})"
            )
    lam, v = _canonicalize([a[k][k].real for k in range(n)], v)
    # v holds columns; the eigenvector rows are its transpose
    return EigenSystem(lam, [list(row) for row in zip(*v)])


def _eig2(a00: complex, a01: complex, a10: complex, a11: complex) -> EigenSystem:
    """eig_hermitian of [[a00, a01], [a10, a11]] on four finite Python complex
    scalars, in closed form: one Jacobi rotation diagonalises a 2x2 Hermitian
    matrix exactly, and Rutishauser's update gives its diagonal.

    The Hermiticity check and symmetrisation are _hermitian_part's for n = 2,
    and a defect past the tolerance or an overflow goes to the general code,
    which raises with its own text. Below the convergence threshold the
    matrix is taken as diagonal, as _jacobi takes it, with the same bits.
    """
    # the Hermitian part (a + a^H)/2 and its Frobenius norm
    y = a10.conjugate()
    if max(abs(a00 - a00.conjugate()), abs(a01 - y), abs(a11 - a11.conjugate())) <= HERMITICITY_TOL:
        h00, h01, h11 = (a00 + a00.conjugate()) / 2.0, (a01 + y) / 2.0, (a11 + a11.conjugate()) / 2.0
        mod = abs(h01)
        # h10 = conj(h01) has the same modulus
        scale = math.hypot(abs(h00), mod, mod, abs(h11))
    else:
        scale = math.inf
    if not math.isfinite(scale):
        # a defect past the tolerance or an overflow: the general check raises
        return _jacobi(*_hermitian_part([[a00, a01], [a10, a11]], HERMITICITY_TOL))
    lam0, lam1 = h00.real, h11.real
    if _SQRT2 * mod > JACOBI_RELATIVE_TOL * scale:
        # the rotation G = [[c, u], [-conj(u), c]] of _rotate, which zeroes
        # h01; G^H h G has the diagonal h00 - t|h01|, h11 + t|h01|
        phase = h01 / mod
        tau = (lam1 - lam0) / (2.0 * mod)
        if tau == 0.0:
            t = 1.0
        else:
            t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
        c = 1.0 / math.sqrt(1.0 + t * t)
        u = t * c * phase
        lam0, lam1 = lam0 - t * mod, lam1 + t * mod
        # eigenvector columns (p0, p1) and (q0, q1)
        p0, p1, q0, q1 = complex(c), -u.conjugate(), u, complex(c)
    else:
        p0, p1, q0, q1 = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    # the stable ascending sort
    if lam1 < lam0:
        lam0, lam1, p0, p1, q0, q1 = lam1, lam0, q0, q1, p0, p1
    # _pivot_index of each column: the first component above PIVOT_MODULUS,
    # else the first largest one
    mp0, mq0 = abs(p0), abs(q0)
    pivot_p = mp0 <= PIVOT_MODULUS and abs(p1) > mp0
    pivot_q = mq0 <= PIVOT_MODULUS and abs(q1) > mq0
    # the pivot order inside the degeneracy gap
    if pivot_p and not pivot_q and lam1 - lam0 <= 1e-12 * max(abs(lam0), abs(lam1)):
        lam0, lam1, p0, p1, q0, q1 = lam1, lam0, q0, q1, p0, p1
        pivot_p, pivot_q = pivot_q, pivot_p
    # the phase gauge: make each pivot component real and positive
    anchor = p1 if pivot_p else p0
    mod = abs(anchor)
    if mod > 0.0:
        gauge = anchor.conjugate() / mod
        p0, p1 = p0 * gauge, p1 * gauge
    anchor = q1 if pivot_q else q0
    mod = abs(anchor)
    if mod > 0.0:
        gauge = anchor.conjugate() / mod
        q0, q1 = q0 * gauge, q1 * gauge
    return EigenSystem([lam0, lam1], [[p0, q0], [p1, q1]])


def _complex_rows(m) -> list[list[complex]] | None:
    """m itself when it is a list of n >= 1 lists of n finite Python complex
    values, as _square_rows returns them; None for anything else."""
    if type(m) is not list or not m:
        return None
    n = len(m)
    for row in m:
        if type(row) is not list or len(row) != n:
            return None
        for z in row:
            if type(z) is not complex or not cmath.isfinite(z):
                return None
    return m


def eig_hermitian(m) -> EigenSystem:
    """Full eigensystem of a Hermitian matrix by cyclic Jacobi sweeps.

    m is anything numpy reads as a square complex matrix. Rows of Python
    complex skip the array round trip; any that fail a check take the array
    path, so the error is the one the same matrix raises as an array.
    """
    rows = _complex_rows(m)
    if rows is None:
        rows = _square_rows(np.asarray(m, dtype=np.complex128))
    if len(rows) == 2:
        return _eig2(*rows[0], *rows[1])
    return _jacobi(*_hermitian_part(rows, HERMITICITY_TOL))
