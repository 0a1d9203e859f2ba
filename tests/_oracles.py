"""Reference constructions the tests check the package against.

None of these is on the package's pipeline. expm_minus_i and
hermitian_eigenvalues use numpy's LAPACK eigh, not the package's eigensolver,
so the tests that use them compare two independent eigensolvers. _jacobi is
the cyclic Jacobi solver the package used before its Householder-QL kernel;
the closed-form 2x2 routine is compared with it. write_series_csv is the
series CSV writer the package used before its vectorised %.17g kernel: one
Python `row % values` per grid point.
"""

import math

import numpy as np

from adiaprep import linalg
from adiaprep.linalg import EigenSystem
from adiaprep.model import HermitianOperator, ModelSpec, pauli


def expm_minus_i(m, t: float) -> np.ndarray:
    """Unitary exp(-i*m*t) for Hermitian m, via numpy's eigh."""
    lam, v = np.linalg.eigh(np.asarray(m, dtype=np.complex128))
    return (v * np.exp(lam * (-1j * t))) @ v.conj().T


def hermitian_eigenvalues(m) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, via numpy's eigh."""
    return np.linalg.eigh(np.asarray(m, dtype=np.complex128))[0]


def hermitian2_eigenvalues(h00: float, h01: complex, h11: float) -> list[float]:
    """Eigenvalues of [[h00, h01], [conj(h01), h11]], ascending, each the
    double nearest to m -+ sqrt(d^2 + |h01|^2) with m, d = (h00 +- h11)/2,
    evaluated by mpmath at 60 digits."""
    import mpmath

    with mpmath.workdps(60):
        a, b = mpmath.mpf(h00), mpmath.mpf(h11)
        r = mpmath.sqrt(((a - b) / 2) ** 2 + mpmath.mpf(h01.real) ** 2 + mpmath.mpf(h01.imag) ** 2)
        return [float((a + b) / 2 - r), float((a + b) / 2 + r)]


def superposition_state(spec: ModelSpec, beta_mod: float, theta: float = 0.0) -> np.ndarray:
    """Build sqrt(1-b^2)*|g> + b*e^{-i*theta}*|e>; decompose() recovers (b, theta)."""
    alpha = np.sqrt(1.0 - beta_mod**2)
    return (
        alpha * spec.reference_ground_state
        + beta_mod * np.exp(-1.0j * theta) * spec.reference_excited_state
    )


def heisenberg_z_closed_form(t: float, coupling: float) -> HermitianOperator:
    """Z carried to hold time t by the Hadamard-type target with coupling J.

    Closed form: (1/sqrt(2))*H - (1/sqrt(2))*Y*sin(2Jt) + (1/2)*(Z-X)*cos(2Jt),
    equal to exp(+i*H_T*t) Z exp(-i*H_T*t) for H_T = -J*H.
    """
    sqrt2 = np.sqrt(2.0)
    angle = 2.0 * coupling * t
    m = (
        pauli("H").matrix / sqrt2
        - pauli("Y").matrix * (np.sin(angle) / sqrt2)
        + (pauli("Z").matrix - pauli("X").matrix) * (0.5 * np.cos(angle))
    )
    return HermitianOperator(m, f"Z(t={t:.12g})")


# decimal digits of the Weber-function evaluation
_LZ_DPS = 30


def _pauli_parts(m: np.ndarray) -> tuple[float, np.ndarray]:
    """(c, r) with m = c*I + r_x*X + r_y*Y + r_z*Z for a 2x2 Hermitian m."""
    c = 0.5 * (m[0, 0] + m[1, 1]).real
    return c, np.array([m[1, 0].real, m[1, 0].imag, 0.5 * (m[0, 0] - m[1, 1]).real])


def _pauli_vector(r: np.ndarray) -> np.ndarray:
    return np.array([[r[2], r[0] - 1j * r[1]], [r[0] + 1j * r[1], -r[2]]])


def landau_zener_propagator(h0, ht, total_time: float) -> np.ndarray:
    """Exact U(T, 0) of i dv/dt = H(t) v for the linear ramp
    H(t) = (1 - t/T)*h0 + (t/T)*ht between 2x2 Hermitian matrices.

    H(t) = c(t)*I + (a + u*t).sigma. The scalar part is a global phase. A
    rotation V taking u to the z axis and the part of a across u to the x
    axis, and the shift tau = t + (a.u)/|u|^2, turn the vector part into
    beta*tau*Z + g*X with beta = |u| and g = |a across u|. Its solutions are
    Weber functions: the upper amplitude is D_nu(+-kappa*tau) with
    kappa = sqrt(2*beta)*e^{i*pi/4} and nu = -i*g^2/(2*beta), and the lower
    one follows from the upper row of the equation, with
    D'_nu(z) = (z/2)*D_nu(z) - D_{nu+1}(z) (Zener, Proc. R. Soc. A 137, 696
    (1932); Vitanov & Garraway, Phys. Rev. A 53, 4288 (1996)). The
    propagator is Phi(tau_T) Phi(tau_0)^-1 for the fundamental matrix Phi of
    the two solutions, evaluated with mpmath.pcfd at _LZ_DPS digits.
    """
    import mpmath

    h0, ht = np.asarray(h0, dtype=complex), np.asarray(ht, dtype=complex)
    c0, a = _pauli_parts(h0)
    c1, r1 = _pauli_parts(ht)
    u = (r1 - a) / total_time
    beta = float(np.linalg.norm(u))
    if beta <= 1e-12 * float(np.linalg.norm(a)):
        raise ValueError("beta = 0: the vector part of H(t) does not move; no Landau-Zener sweep")
    uhat = u / beta
    across = a - (a @ uhat) * uhat
    g = float(np.linalg.norm(across))
    if g <= 1e-12 * max(float(np.linalg.norm(a)), beta * total_time):
        raise ValueError("g = 0: H(t) commutes with itself at all times; no avoided crossing")
    # V*(uhat.sigma)*V^H = Z and V*(across/g . sigma)*V^H = X
    _, w = np.linalg.eigh(_pauli_vector(uhat))
    v = np.array([w[:, 1].conj(), w[:, 0].conj()])
    off = (v @ _pauli_vector(across / g) @ v.conj().T)[0, 1]
    v[1] *= off
    tau0 = float(a @ uhat) / beta
    with mpmath.workdps(_LZ_DPS):
        kappa = mpmath.sqrt(2 * mpmath.mpf(beta)) * mpmath.expjpi(mpmath.mpf(1) / 4)
        nu = mpmath.mpc(0, -(g**2) / (2 * beta))

        def fundamental(tau):
            tau = mpmath.mpf(tau)
            columns = []
            for sign in (1, -1):
                z = sign * kappa * tau
                d = mpmath.pcfd(nu, z)
                slope = sign * kappa * (z / 2 * d - mpmath.pcfd(nu + 1, z))
                columns.append((d, (1j * slope - beta * tau * d) / g))
            return mpmath.matrix([[columns[0][0], columns[1][0]], [columns[0][1], columns[1][1]]])

        rotated = fundamental(tau0 + total_time) * mpmath.inverse(fundamental(tau0))
        rotated = np.array(rotated.tolist(), dtype=complex)
    phase = np.exp(-0.5j * total_time * (c0 + c1))
    return phase * (v.conj().T @ rotated @ v)


# cyclic Jacobi sweeps on Python complex scalars; JACOBI_RELATIVE_TOL is read
# from the package at each call, so a test may replace it there
_MAX_SWEEPS = 64
_SQRT2 = math.sqrt(2.0)


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
            if _offdiag_norm(a) <= linalg.JACOBI_RELATIVE_TOL * scale:
                break
            for p in range(n - 1):
                for q in range(p + 1, n):
                    _rotate(a, v, p, q)
        else:
            raise ArithmeticError(
                f"Jacobi iteration did not converge in {_MAX_SWEEPS} sweeps "
                f"(dimension {n}, residual {_offdiag_norm(a):.3e})"
            )
    lam, v = linalg._canonicalize([a[k][k].real for k in range(n)], v)
    # v holds columns; the eigenvector rows are its transpose
    return EigenSystem(lam, [list(row) for row in zip(*v)])


def write_series_csv(path, series, total_time: float) -> None:
    """The series CSV of one hold record, every float by '%.17g' % x."""
    header = [
        f"# observable {series.observable_label}",
        "# t is the hold time since the end of preparation; "
        f"absolute time = t + {'%.17g' % total_time}",
        f"# shots per point: {series.shots_per_point}",
        "t,exact,sampled,stderr",
    ]
    cells = (series.times, series.exact_values, series.sampled_values, series.stderr_values)
    row = ",".join("" if c is None else "%.17g" for c in cells) + "\n"
    columns = [c.tolist() for c in cells if c is not None]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(header) + "\n")
        f.writelines(row % values for values in zip(*columns))
