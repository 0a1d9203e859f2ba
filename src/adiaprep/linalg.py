"""Dense complex linear algebra for small Hermitian systems.

Eigendecomposition is written here on Python complex scalars held in lists,
not called from LAPACK: slower, but fully deterministic, with a fixed order
of operations, a fixed tie-break for degenerate eigenvalues, and a fixed
phase gauge. That determinism is what makes repeated runs byte-identical, so
do not swap in a platform eigensolver here. Rows of Python complex go in as
they are, and EigenSystem is a record of the solver's own floats and complex
rows; its properties build read-only numpy arrays on each read.

n >= 3 goes to one kernel, _householder_ql. It scales the Hermitian part by
the power of two that brings its Frobenius norm into [0.5, 1): exact, and
no intermediate of the matrix's size can then overflow or underflow.
Householder reflections reduce it to a tridiagonal matrix, skipping a column
that is already zero below its subdiagonal (Martin, Reinsch & Wilkinson,
Numer. Math. 11, 181-195, 1968; EISPACK htridi is the complex form). A
diagonal phase matrix makes the off-diagonal real, and implicit-shift QL
with Wilkinson's shift diagonalises it, applying each plane rotation to the
complex eigenvector columns (Dubrulle, Martin & Wilkinson, Numer. Math. 12,
377-383, 1968; EISPACK imtql2). An off-diagonal entry counts as zero once it
is within eps of the largest |d_i| + |e_i|, and an unreduced 2x2 block is
finished by the one rotation _eig2 forms, so a 2x2 block beside others gets
_eig2's bits. Every sum runs in index order through functools.reduce, not
the builtin sum, whose float algorithm changed in Python 3.12. The
eigenvalues are scaled back (exact again), sorted stably, each degenerate
group is ordered by pivot index, and each pivot component is made real and
positive up to rounding: the gauge multiplies by conj(z)/|z|, which can
leave an imaginary part of up to eps times the real one. A dense call on
rows costs about 0.12 ms at n=3, 0.2 ms at n=4, 0.3 ms at n=6, 0.55 ms at
n=8 and 3.3 ms at n=16 on a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4),
against 0.15, 0.3, 0.65, 1.5 and 11.4 ms for the cyclic Jacobi sweeps it
replaced (kept in tests/_oracles.py).

n=2, the dimension of every built-in model, goes to _eig2 once the rows
pass the checks every size does. It runs the Hermiticity check and
symmetrisation of the general code on the four entries; a defect past the
tolerance or an overflow goes to the general check, so its message is the
same. Then one Jacobi rotation diagonalises the 2x2 matrix exactly, and
Rutishauser's update gives its diagonal, h00 - t|h01| and h11 + t|h01|
(Numer. Math. 9, 1-10, 1966), followed by the same canonical form. A matrix
whose off-diagonal is below JACOBI_RELATIVE_TOL of its norm, every
(1-s)*H0 of a built-in ramp among them, is taken as diagonal, with the bits
the cyclic Jacobi sweeps gave it. Elsewhere the eigenvalues differ from the
sweeps' by a few ulp of the matrix norm (the sweeps, which form G^H A G in
complex arithmetic, are the less accurate of the two) and the eigenvectors
by a few eps; tests compare the two on more than 20,000 matrices. A dense
2x2 call costs about 3.5-4.5 us on rows and 4.5-5.5 us on an array. The
ramp and the hold apply eigensystems themselves.
"""

from __future__ import annotations

import cmath
import math
from functools import reduce
from operator import add
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
# _eig2 takes a 2x2 matrix as diagonal when its off-diagonal Frobenius mass
# is at most this times the full Frobenius norm
JACOBI_RELATIVE_TOL = 1e-14
# components at or below this modulus are ignored when choosing the pivot
# entry used for eigenvector ordering and phase fixing
PIVOT_MODULUS = 1e-9
# QL iterations allowed per eigenvalue; two or three is typical
_MAX_QL_ITERATIONS = 30
# a column whose squared moduli below the subdiagonal sum to at most this,
# on the scaled matrix, is taken as reduced: 2^-500 of the norm at most
_NEGLIGIBLE_SQUARES = 2.0**-1000
_EPS = 2.0**-52
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


def _jacobi_rotation(tau: float) -> tuple[float, float]:
    """(t, c) of Rutishauser's rotation that zeroes h01, at tau = (h11 - h00) / (2|h01|)."""
    if tau == 0.0:
        t = 1.0
    else:
        t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
    return t, 1.0 / math.sqrt(1.0 + t * t)


def _householder_ql(a: list[list[complex]], scale: float) -> EigenSystem:
    """Eigensystem of the Hermitian rows a, whose Frobenius norm is scale, by
    Householder reduction to tridiagonal form and implicit-shift QL; a is
    overwritten.

    The rows are scaled by the power of two that brings scale into [0.5, 1),
    so no intermediate of the matrix's size overflows or underflows, and the
    eigenvalues are scaled back; both steps are exact.
    """
    n = len(a)
    exponent = math.frexp(scale)[1]
    down = math.ldexp(1.0, -exponent)
    for row in a:
        row[:] = [z * down for z in row]
    # Householder: H_k = I - tau*v*v^H on indices k+1.. zeroes column k below
    # its subdiagonal entry, which becomes -phase*alpha, and A <- H_k A H_k
    reflectors = []
    sub = []
    for k in range(n - 2):
        v = [a[i][k] for i in range(k + 1, n)]
        sigma = reduce(add, [z.real * z.real + z.imag * z.imag for z in v[1:]])
        if sigma <= _NEGLIGIBLE_SQUARES:
            # already zero below the subdiagonal, up to 2^-500 of the norm
            sub.append(v[0])
            continue
        x0 = v[0]
        m0 = abs(x0)
        alpha = math.sqrt(m0 * m0 + sigma)
        phase = x0 / m0 if m0 > 0.0 else 1.0 + 0j
        v[0] = x0 + phase * alpha
        tau = 1.0 / (alpha * (alpha + m0))
        sub.append(-phase * alpha)
        block = a[k + 1 :]
        # p = tau*B*v, w = p - (tau/2)(v^H p) v, B <- B - v w^H - w v^H
        p = [tau * reduce(add, [b * y for b, y in zip(row[k + 1 :], v)]) for row in block]
        half = 0.5 * tau * reduce(add, [y.conjugate() * q for y, q in zip(v, p)]).real
        w = [q - half * y for q, y in zip(p, v)]
        vc = [y.conjugate() for y in v]
        wc = [y.conjugate() for y in w]
        # the pair is summed before it is subtracted, so entry (j, i) is the
        # exact conjugate of entry (i, j) and B stays exactly Hermitian
        for row, vi, wi in zip(block, v, w):
            row[k + 1 :] = [b - (vi * x + wi * y) for b, x, y in zip(row[k + 1 :], wc, vc)]
        reflectors.append((k, v, tau))
    if n > 1:
        sub.append(a[n - 1][n - 2])
    # eigenvector columns: Q = H_0 H_1 ... built from the identity backwards,
    # so H_k only meets indices k+1..
    q = [[0j] * n for _ in range(n)]
    for j in range(n):
        q[j][j] = 1.0 + 0j
    for k, v, tau in reversed(reflectors):
        vc = [y.conjugate() for y in v]
        for column in q[k + 1 :]:
            tail = column[k + 1 :]
            f = tau * reduce(add, [x * y for x, y in zip(vc, tail)])
            column[k + 1 :] = [x - f * y for x, y in zip(tail, v)]
    # T = D R D^H with D diagonal phases and R real: the eigenvectors of A are
    # the columns of Q D times those of R
    d = [a[i][i].real for i in range(n)]
    e = []
    gauge = 1.0 + 0j
    for j, z in enumerate(sub):
        mod = abs(z)
        e.append(mod)
        # a zero entry splits T, and the next block's phases start afresh
        gauge = gauge * (z / mod) if mod > 0.0 else 1.0 + 0j
        if gauge != 1.0:
            q[j + 1] = [x * gauge for x in q[j + 1]]
    e.append(0.0)
    _implicit_ql(d, e, q)
    up = math.ldexp(1.0, exponent)
    lam, q = _canonicalize([x * up for x in d], q)
    # q holds columns; the eigenvector rows are its transpose
    return EigenSystem(lam, [list(row) for row in zip(*q)])


def _implicit_ql(d: list[float], e: list[float], z: list[list[complex]]) -> None:
    """Implicit-shift QL on the real symmetric tridiagonal matrix with
    diagonal d and off-diagonal e (e[i] couples i and i + 1, e[-1] = 0),
    applying each plane rotation to the columns z; d becomes the
    eigenvalues, in place.

    An off-diagonal entry counts as zero once it is within eps of the
    largest |d_i| + |e_i|, so the error is eps relative to the matrix.
    """
    n = len(d)
    size = max(abs(x) + abs(y) for x, y in zip(d, e))
    tol = _EPS * size
    for l in range(n):
        iterations = 0
        while True:
            m = l
            while m < n - 1 and abs(e[m]) > tol:
                m += 1
            if m == l:
                break
            if m == l + 1:
                # a 2x2 block: _eig2's one rotation diagonalises it
                t, c = _jacobi_rotation((d[m] - d[l]) / (2.0 * e[l]))
                s = t * c
                d[l] -= t * e[l]
                d[m] += t * e[l]
                e[l] = 0.0
                zl, zm = z[l], z[m]
                z[l] = [c * x - s * y for x, y in zip(zl, zm)]
                z[m] = [s * x + c * y for x, y in zip(zl, zm)]
                break
            if iterations == _MAX_QL_ITERATIONS:
                raise ArithmeticError(
                    f"QL iteration did not converge in {_MAX_QL_ITERATIONS} iterations "
                    f"(dimension {n}, eigenvalue {l}, off-diagonal {abs(e[l]) / size:.3e} "
                    "of the largest |d_i| + |e_i|)"
                )
            iterations += 1
            # the shift is the eigenvalue of the leading 2x2 block nearer d[l]
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # underflow: deflate and start again
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                # complex(c) is the operand c * x converts to on every entry
                zi, zj, cz, sz = z[i], z[i + 1], complex(c), complex(s)
                z[i + 1] = [sz * x + cz * y for x, y in zip(zi, zj)]
                z[i] = [cz * x - sz * y for x, y in zip(zi, zj)]
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0


def _eig2(a00: complex, a01: complex, a10: complex, a11: complex) -> EigenSystem:
    """eig_hermitian of [[a00, a01], [a10, a11]] on four finite Python complex
    scalars, in closed form: one Jacobi rotation diagonalises a 2x2 Hermitian
    matrix exactly, and Rutishauser's update gives its diagonal.

    The Hermiticity check and symmetrisation are _hermitian_part's for n = 2,
    and a defect past the tolerance or an overflow goes to the general code,
    which raises with its own text. Below JACOBI_RELATIVE_TOL the matrix is
    taken as diagonal, as the cyclic Jacobi sweeps took it, with their bits.
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
        return _householder_ql(*_hermitian_part([[a00, a01], [a10, a11]], HERMITICITY_TOL))
    lam0, lam1 = h00.real, h11.real
    if _SQRT2 * mod > JACOBI_RELATIVE_TOL * scale:
        # the rotation G = [[c, u], [-conj(u), c]] of tests/_oracles.py's
        # _rotate zeroes h01; G^H h G has the diagonal h00 - t|h01|, h11 + t|h01|
        t, c = _jacobi_rotation((lam1 - lam0) / (2.0 * mod))
        u = t * c * (h01 / mod)
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
    """Full eigensystem of a Hermitian matrix: in closed form at n = 2, by
    Householder tridiagonalisation and implicit-shift QL above.

    m is anything numpy reads as a square complex matrix. Rows of Python
    complex skip the array round trip; any that fail a check take the array
    path, so the error is the one the same matrix raises as an array.
    """
    rows = _complex_rows(m)
    if rows is None:
        rows = _square_rows(np.asarray(m, dtype=np.complex128))
    if len(rows) == 2:
        return _eig2(*rows[0], *rows[1])
    return _householder_ql(*_hermitian_part(rows, HERMITICITY_TOL))
