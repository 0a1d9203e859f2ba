import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adiaprep import evolve, linalg
from adiaprep.evolve import run_adiabatic
from adiaprep.linalg import EigenSystem, as_complex_matrix, as_state_vector, eig_hermitian
from adiaprep.model import AdiabaticSchedule, model_one, model_two

from _oracles import expm_minus_i

SQRT2 = np.sqrt(2.0)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
HAD = (X + Z) / SQRT2


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2.0


def test_eig_diagonal_matrix_is_sorted_identity_basis():
    es = eig_hermitian(np.diag([3.0, -1.0, 2.0]).astype(complex))
    assert np.allclose(es.eigenvalues, [-1.0, 2.0, 3.0])
    expected = np.eye(3)[:, [1, 2, 0]]
    assert np.allclose(es.eigenvectors, expected)


def test_eig_pauli_z():
    es = eig_hermitian(Z)
    assert np.allclose(es.eigenvalues, [-1.0, 1.0])
    # ascending order puts |1> first; phase gauge makes pivots real positive
    assert np.allclose(es.eigenvectors[:, 0], [0.0, 1.0])
    assert np.allclose(es.eigenvectors[:, 1], [1.0, 0.0])


def test_eig_hadamard_ground_state_components():
    # the +1 eigenvector of H is proportional to (1, sqrt(2)-1)
    es = eig_hermitian(HAD)
    assert np.allclose(es.eigenvalues, [-1.0, 1.0], atol=1e-14)
    expected = np.array([1.0, SQRT2 - 1.0]) / np.sqrt(4.0 - 2.0 * SQRT2)
    overlap = abs(np.vdot(expected, es.eigenvectors[:, 1]))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_eig_matches_lapack_eigenvalues():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5, 8):
        m = random_hermitian(rng, n)
        es = eig_hermitian(m)
        assert np.allclose(es.eigenvalues, np.linalg.eigvalsh(m), atol=1e-12)


def test_eig_reconstruction_and_unitarity():
    rng = np.random.default_rng(11)
    m = random_hermitian(rng, 6)
    es = eig_hermitian(m)
    v = es.eigenvectors
    assert np.max(np.abs(v.conj().T @ v - np.eye(6))) < 1e-12
    recon = (v * es.eigenvalues) @ v.conj().T
    assert np.max(np.abs(recon - m)) < 1e-10


def test_eig_eigenvalues_ascending():
    rng = np.random.default_rng(13)
    es = eig_hermitian(random_hermitian(rng, 7))
    assert np.all(np.diff(es.eigenvalues) >= -1e-12)


def test_eig_is_deterministic():
    rng = np.random.default_rng(17)
    for m in (random_hermitian(rng, 2), random_hermitian(rng, 5), np.diag([1.0, 2.0, 1.0])):
        a = eig_hermitian(m)
        b = eig_hermitian(m)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_eig_returns_read_only_arrays():
    m3 = random_hermitian(np.random.default_rng(5), 3)
    solved = [eig_hermitian(HAD), eig_hermitian(HAD.tolist()), eig_hermitian(m3)]
    built = EigenSystem(np.array([-1.0, 1.0]), np.eye(2, dtype=complex))
    for es in solved + [built]:
        n = len(es.eigenvalues)
        for array, dtype, shape in (
            (es.eigenvalues, np.float64, (n,)),
            (es.eigenvectors, np.complex128, (n, n)),
        ):
            assert array.dtype == dtype and array.shape == shape
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        # each read builds the array from the record's own fields
        assert np.array_equal(es.eigenvalues, es.values)
        assert np.array_equal(es.eigenvectors, es.rows)


def test_eig_one_by_one():
    es = eig_hermitian(np.array([[-2.5]]))
    assert es.eigenvalues.tolist() == [-2.5]
    assert es.eigenvectors.tolist() == [[1.0 + 0.0j]]


def test_eig_accepts_nested_lists():
    es = eig_hermitian([[0, 1], [1, 0]])
    ref = eig_hermitian(X)
    assert np.array_equal(es.eigenvalues, ref.eigenvalues)
    assert np.array_equal(es.eigenvectors, ref.eigenvectors)
    assert np.allclose(es.eigenvalues, [-1.0, 1.0], atol=1e-15)


def test_eig_rejects_non_finite_entry_naming_it():
    with pytest.raises(ValueError, match=r"non-finite matrix entry at \(1, 0\): \(nan\+0j\)"):
        eig_hermitian([[1.0, 0.0], [np.nan, 1.0]])


@pytest.mark.parametrize("n", [2, 4])
def test_eig_non_convergence_names_the_dimension(monkeypatch, n):
    monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
    m = random_hermitian(np.random.default_rng(1), n)
    assert m[0, 1] != 0.0
    with pytest.raises(
        ArithmeticError, match=rf"did not converge in 1 sweeps \(dimension {n}, residual"
    ):
        eig_hermitian(m)


@pytest.mark.parametrize(
    "m, message",
    [
        (np.diag([1e308, -1e308]), r"overflows at entry \(0, 0\)"),
        (np.full((3, 3), 1e308), r"overflows at entry \(0, 0\)"),
        (np.diag([1.0, 1.5e308]), r"overflows at entry \(1, 1\)"),
        # every entry finite, the Frobenius norm not
        (np.full((3, 3), 8e307), "Frobenius norm past the largest float"),
    ],
)
def test_hermitian_part_must_be_finite(m, message):
    # (a_ij + conj(a_ji))/2 overflows for finite entries past half the
    # largest float; before this check the diagonal came back as +-inf
    for check in (eig_hermitian, as_complex_matrix):
        with pytest.raises(ValueError, match=message):
            check(m)


def test_eig_degenerate_pair_ordered_by_pivot_index():
    # eigenvalue 1 is doubly degenerate; columns must come out ordered by
    # the index of their first large component, phases fixed real positive
    m = np.diag([1.0, 2.0, 1.0]).astype(complex)
    es = eig_hermitian(m)
    assert np.allclose(es.eigenvalues, [1.0, 1.0, 2.0])
    assert abs(es.eigenvectors[0, 0]) > abs(es.eigenvectors[2, 0])
    assert abs(es.eigenvectors[2, 1]) > abs(es.eigenvectors[0, 1])
    for k in range(3):
        col = es.eigenvectors[:, k]
        anchor = col[np.flatnonzero(np.abs(col) > 1e-9)[0]]
        assert anchor.real > 0.0
        assert abs(anchor.imag) < 1e-12


def test_eig_identity_stays_identity():
    es = eig_hermitian(np.eye(4, dtype=complex))
    assert np.array_equal(es.eigenvectors, np.eye(4, dtype=complex))


def test_eig_zero_matrix():
    es = eig_hermitian(np.zeros((3, 3), dtype=complex))
    assert np.array_equal(es.eigenvalues, np.zeros(3))


def test_eig_rejects_non_hermitian_naming_entry():
    m = np.eye(2, dtype=complex)
    m[0, 1] = 1e-3
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        eig_hermitian(m)


def test_eig_non_hermitian_message_names_the_worst_entry():
    m = np.eye(3, dtype=complex)
    m[0, 1] = 1e-3
    m[2, 1] = 0.25 + 0.5j
    m[1, 2] = 0.25 - 0.4j
    with pytest.raises(ValueError) as err:
        eig_hermitian(m)
    assert str(err.value) == (
        "matrix is not Hermitian within 1e-12: entry (1, 2) = (0.25-0.4j) "
        "vs conjugate of (2, 1) = (0.25-0.5j), defect 1.000e-01"
    )


def test_eig_accepts_defect_within_tolerance():
    m = Z.copy()
    m[0, 1] = 1e-13
    es = eig_hermitian(m)
    assert np.allclose(es.eigenvalues, [-1.0, 1.0], atol=1e-12)


def test_eig_phase_gauge_independent_of_input_phase():
    # multiplying an eigenvector's phase into the matrix must not change
    # the returned basis
    rng = np.random.default_rng(23)
    m = random_hermitian(rng, 4)
    es1 = eig_hermitian(m)
    u = np.exp(1j * 0.7) * np.eye(4)
    es2 = eig_hermitian(u @ m @ u.conj().T)  # same matrix after a global gauge
    assert np.allclose(es1.eigenvectors, es2.eigenvectors, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5))
def test_eig_properties_random(seed, n):
    m = random_hermitian(np.random.default_rng(seed), n)
    es = eig_hermitian(m)
    v = es.eigenvectors
    assert np.all(np.diff(es.eigenvalues) >= -1e-12)
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-10
    recon = (v * es.eigenvalues) @ v.conj().T
    assert np.max(np.abs(recon - m)) < 1e-10
    assert np.allclose(es.eigenvalues, np.linalg.eigvalsh(m), atol=1e-10)


def test_expm_zero_time_is_identity():
    rng = np.random.default_rng(29)
    m = random_hermitian(rng, 4)
    assert np.max(np.abs(expm_minus_i(m, 0.0) - np.eye(4))) < 1e-14


def test_expm_pauli_z_quarter_period():
    u = expm_minus_i(Z, np.pi / 2.0)
    assert np.allclose(u, np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]), atol=1e-14)


def test_expm_eigenstate_picks_up_phase():
    # exp(-i(-JX)t)|+> = e^{+iJt}|+>
    plus = np.array([1.0, 1.0], dtype=complex) / SQRT2
    j, t = 0.75, 1.3
    u = expm_minus_i(-j * X, t)
    phase = np.vdot(plus, u @ plus)
    assert phase == pytest.approx(np.exp(1j * j * t), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.floats(-3.0, 3.0),
    t=st.floats(-3.0, 3.0),
)
def test_expm_group_property_and_unitarity(seed, s, t):
    m = random_hermitian(np.random.default_rng(seed), 3)
    us = expm_minus_i(m, s)
    ut = expm_minus_i(m, t)
    ust = expm_minus_i(m, s + t)
    assert np.max(np.abs(us @ ut - ust)) < 1e-10
    assert np.max(np.abs(us @ us.conj().T - np.eye(3))) < 1e-12


def test_expm_preserves_norm():
    rng = np.random.default_rng(31)
    m = random_hermitian(rng, 5)
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    v /= np.linalg.norm(v)
    w = expm_minus_i(m, 2.1) @ v
    assert abs(np.linalg.norm(w) - 1.0) < 1e-12


def test_as_complex_matrix_rejects_bad_shapes_and_nans():
    with pytest.raises(ValueError, match="square"):
        as_complex_matrix(np.zeros((2, 3)))
    bad = np.eye(2, dtype=complex)
    bad[1, 0] = np.nan
    with pytest.raises(ValueError, match=r"\(1, 0\)"):
        as_complex_matrix(bad)


def test_as_state_vector_norm_check():
    with pytest.raises(ValueError, match="norm"):
        as_state_vector([1.0, 1.0])
    v = as_state_vector([1.0 / SQRT2, 1.0 / SQRT2])
    assert v.dtype == np.complex128


def test_eigensystem_dim():
    es = eig_hermitian(Z)
    assert isinstance(es, EigenSystem)
    assert es.eigenvalues.shape == (2,) and es.eigenvectors.shape == (2, 2)


def _eig_outcome(m):
    try:
        es = eig_hermitian(m)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return es.eigenvalues.tobytes(), es.eigenvectors.tobytes()


def test_eig_on_rows_has_the_bits_of_eig_on_the_array():
    rng = np.random.default_rng(2026)
    cases = _two_by_two_cases(rng, 100)
    cases += [random_hermitian(rng, 2) * 10.0 ** rng.uniform(-8.0, 8.0) for _ in range(1000)]
    cases += [random_hermitian(rng, n) for n in (3, 5) for _ in range(20)]
    for m in cases:
        rows = m.tolist()
        assert linalg._complex_rows(rows) is rows
        assert _eig_outcome(rows) == _eig_outcome(m), rows


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [[1 + 0j, 0j], [0j]],
        [[1 + 0j, 0j, 0j], [0j, 1 + 0j, 0j]],
        [[1 + 0j, 0j], [complex("nan"), 1 + 0j]],
        [[1 + 0j, 0j, 0j], [0j, 1 + 0j, 0j], [0j, complex(0.0, -np.inf), 1 + 0j]],
        [[1 + 0j, 1e-3 + 0j], [0j, 1 + 0j]],
        [[1 + 0j, 1e-3 + 0j, 0j], [0j, 1 + 0j, 0j], [0j, 0j, 1 + 0j]],
        [[1e308 + 0j, 0j], [0j, -1e308 + 0j]],
        [[8e307 + 0j] * 3 for _ in range(3)],
    ],
    ids=["empty", "ragged", "non-square", "nan", "inf", "defect-2x2", "defect-3x3",
         "overflow", "norm-overflow"],
)
def test_eig_on_rows_raises_as_on_the_array(rows):
    try:
        want = _eig_outcome(np.array(rows, dtype=np.complex128))
    except ValueError as exc:
        # ragged rows have no array form; numpy's own error is the one to keep
        want = type(exc), str(exc)
    got = _eig_outcome(rows)
    assert isinstance(got[0], type) and got == want


def _kernel_outcome(kernel, h, scale):
    try:
        es = kernel([row[:] for row in h], scale)
    except ArithmeticError as exc:
        return type(exc), str(exc)
    return es.eigenvalues.tobytes(), es.eigenvectors.tobytes()


def _two_by_two_cases(rng, per_class):
    """Seeded 2x2 matrices, per_class of each kind where the unrolled and
    the general kernel could part: scales from 1e-8 to 1e8 and 1e+-300,
    diagonal, multiples of I, equal diagonals with real off-diagonals, and
    pairs inside the degeneracy gap with zero or 1e-20 off-diagonals."""
    k = per_class

    def hermitian(size, scale):
        a = rng.normal(size=(size, 2, 2)) + 1j * rng.normal(size=(size, 2, 2))
        return scale[:, None, None] * (a + a.conj().transpose(0, 2, 1)) / 2.0

    def diag(d0, d1, off):
        m = np.zeros((len(d0), 2, 2), dtype=complex)
        m[:, 0, 0], m[:, 1, 1], m[:, 0, 1], m[:, 1, 0] = d0, d1, off, np.conj(off)
        return m

    scale = 10.0 ** rng.uniform(-8.0, 8.0, size=k)
    d = rng.normal(size=k) * scale
    # relative splittings well inside the 1e-12 gap, of either sign
    split = d * rng.choice([-1.0, 1.0], size=k) * 10.0 ** rng.uniform(-16.0, -12.5, size=k)
    tiny = rng.choice([0.0, 1e-20, -1e-20j, 1e-20 * (1.0 + 1.0j)], size=k)
    batches = [
        hermitian(k, scale),
        hermitian(k, 10.0 ** rng.choice([-300.0, 300.0], size=k)),
        diag(rng.normal(size=k) * scale, rng.normal(size=k) * scale, 0.0),
        diag(d, d, 0.0),
        diag(d, d, rng.normal(size=k) * scale),
        diag(d, d + split, tiny),
        diag(rng.normal(size=k), rng.normal(size=k), tiny),
        hermitian(k, scale).real.astype(complex),
    ]
    return [m for batch in batches for m in batch]


def _ramp_cases(spec, points):
    """H(s), (1-s)*H0 and s*H_T on an s grid: the matrices a ramp solves."""
    h0, ht = spec.initial.matrix, spec.target.matrix
    for s in np.linspace(0.0, 1.0, points):
        yield (1.0 - s) * h0 + s * ht
        yield (1.0 - s) * h0
        yield s * ht


@pytest.mark.parametrize("max_sweeps, per_class", [(None, 2500), (0, 100), (1, 500), (2, 500)])
def test_jacobi2_is_bit_identical_to_the_general_kernel(monkeypatch, max_sweeps, per_class):
    # fewer sweeps than convergence needs makes both kernels raise, and the
    # messages must match as well
    if max_sweeps is not None:
        monkeypatch.setattr(linalg, "_MAX_SWEEPS", max_sweeps)
    cases = _two_by_two_cases(np.random.default_rng(2024), per_class)
    for spec in (model_one(1.0), model_two(np.pi / 4.0)):
        cases.extend(_ramp_cases(spec, per_class // 2 + 1))
    differ = []
    for m in cases:
        h, scale = linalg._hermitian_part(linalg._square_rows(m), linalg.HERMITICITY_TOL)
        fast = _kernel_outcome(linalg._jacobi2, h, scale)
        if fast != _kernel_outcome(linalg._jacobi, h, scale):
            differ.append(m.tolist())
    assert not differ, f"{len(differ)} of {len(cases)} matrices differ, first {differ[0]}"


@pytest.mark.parametrize(
    "integrator, schedule",
    [
        # fig2's split-step ramp, and the exact-midpoint reference that a
        # sweep over T runs for T = 4.5 at step_width/64
        ("trotter2", AdiabaticSchedule(36.0, 1.0 / 24.0)),
        ("exact-midpoint", AdiabaticSchedule(4.5, 1.0 / 24.0 / 64)),
    ],
)
def test_ramp_is_bit_identical_through_the_general_kernel(monkeypatch, integrator, schedule):
    spec = model_two(np.pi / 4.0)
    fast = run_adiabatic(spec, schedule, integrator)
    general = []

    def route_to_general(a, scale):
        general.append(len(a))
        return linalg._jacobi(a, scale)

    monkeypatch.setattr(linalg, "_jacobi2", route_to_general)
    slow = run_adiabatic(spec, schedule, integrator)
    assert general and set(general) == {2}
    assert slow.tobytes() == fast.tobytes()


def _hermitian_outcome(kernel, m):
    try:
        h, norm = kernel(linalg._square_rows(m), linalg.HERMITICITY_TOL)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return np.array(h, dtype=complex).tobytes(), norm.hex()


def test_hermitian_part2_matches_the_general_one_in_bits_and_error_text():
    rng = np.random.default_rng(7)
    cases = _two_by_two_cases(rng, 200)
    # anti-Hermitian residues below, at and past the tolerance
    for eps in (1e-13, 5e-13, 1e-12, 2e-12, 1e-6):
        for m in _two_by_two_cases(rng, 20):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            cases.append(m + eps * g / np.abs(g).max())
    big = 1.5e308
    cases += [
        np.diag([1e308, -1e308]).astype(complex),
        np.diag([1.0, big]).astype(complex),
        np.array([[1.0, big + big * 1j], [big - big * 1j, 1.0]]),
        # finite entries whose Hermitian part has an infinite Frobenius norm
        np.array([[0.8e308, 0.8e308 + 0.8e308j], [0.8e308 - 0.8e308j, 0.8e308]]),
        # a defect whose modulus overflows although both of its parts are finite
        np.array([[0.0, 0.9e308 + 0.9e308j], [-0.4e308 + 0.4e308j, 0.0]]),
        np.array([[0.0, 1.0], [1.0 + 1e-11j, 0.0]]),
        np.array([[1e-11j, 1.0], [1.0, -0.0]]),
        np.array([[-0.0, -0.0], [-0.0j, -0.0]]),
    ]
    raised = 0
    for m in cases:
        fast = _hermitian_outcome(linalg._hermitian_part2, m)
        assert fast == _hermitian_outcome(linalg._hermitian_part, m), m.tolist()
        raised += isinstance(fast[0], type)
    assert raised >= 100


def _states(rng, count):
    """Seeded unit 2-vectors, plus basis states with signed zeros."""
    g = rng.normal(size=(count, 2)) + 1j * rng.normal(size=(count, 2))
    states = [list(map(complex, row / np.linalg.norm(row))) for row in g]
    return states + [[1 + 0j, 0j], [0j, -1 + 0j], [complex(-0.0, -0.0), 1j]]


def test_propagate2_is_bit_identical_to_the_general_kernel():
    rng = np.random.default_rng(2025)
    matrices = _two_by_two_cases(rng, 150)
    for spec in (model_one(1.0), model_two(np.pi / 4.0)):
        matrices.extend(_ramp_cases(spec, 60))
    states = _states(rng, 4)
    differ = []
    for m in matrices:
        es = eig_hermitian(m)
        for v in states:
            for t in (0.0, -0.0, 1.0 / 48.0, 0.5, -2.5, float(rng.uniform(-10.0, 10.0))):
                fast = np.array(evolve._propagate2(es, t, v))
                if fast.tobytes() != np.array(evolve._propagate(es, t, v)).tobytes():
                    differ.append((m.tolist(), v, t))
    assert not differ, f"{len(differ)} cases differ, first {differ[0]}"


@pytest.mark.parametrize("n", [2, 3, 5])
def test_propagate_matches_the_matrix_exponential(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        m = random_hermitian(rng, n)
        g = rng.normal(size=n) + 1j * rng.normal(size=n)
        v = g / np.linalg.norm(g)
        t = float(rng.uniform(-3.0, 3.0))
        got = np.array(evolve._propagate(eig_hermitian(m), t, list(v)))
        assert np.max(np.abs(got - expm_minus_i(m, t) @ v)) < 1e-14


def test_propagate_keeps_an_embedded_2x2_block_to_the_bits_of_propagate2():
    # a block-diagonal eigensystem whose lowest two pairs are a 2x2 block's:
    # the general kernel's extra terms are exact zeros, so the block's two
    # amplitudes come out with the 2x2 kernel's bits
    rng = np.random.default_rng(3)
    rest = eig_hermitian(random_hermitian(rng, 3) / 10.0 + 3.0 * np.eye(3))
    for spec in (model_one(1.0), model_two(np.pi / 4.0)):
        for m in _ramp_cases(spec, 30):
            small = eig_hermitian(m)
            vectors = np.zeros((5, 5), dtype=complex)
            vectors[:2, :2], vectors[2:, 2:] = small.eigenvectors, rest.eigenvectors
            big = EigenSystem(np.concatenate([small.eigenvalues, rest.eigenvalues]), vectors)
            for v in _states(rng, 3):
                t = float(rng.uniform(-3.0, 3.0))
                got = np.array(evolve._propagate(big, t, v + [0j, 0j, 0j]))
                assert got[:2].tobytes() == np.array(evolve._propagate2(small, t, v)).tobytes()
                assert not got[2:].any()
