"""The ramp against first-order adiabatic perturbation theory.

A linear ramp of length T leaves an excited amplitude made of two boundary
terms (Messiah, Quantum Mechanics vol. II, ch. XVII; Jansen, Ruskai &
Seiler, J. Math. Phys. 48, 102111 (2007)):

    b ~ [A(1)*e^{-iT*Phi} - A(0)] / T,   A(s) = <e(s)|H_T - H_0|g(s)> / Delta(s)^2,

with Delta(s) the gap of H(s) = (1-s)*H_0 + s*H_T, Phi its integral over s,
and real eigenvectors whose signs stay continuous in s. The next order is
O(T^-2) in b, so |b|^2 differs from the formula by O(T^-3). Every other ramp
test compares one integrator with another; this one checks the physics.
"""

from functools import lru_cache

import numpy as np
import pytest

from adiaprep.evolve import decompose, run_adiabatic
from adiaprep.model import AdiabaticSchedule, model_one, model_two

# the presets' couplings: fig1a/fig1b ramp model1 at J=1, fig2 model2 at J=pi/4
SPECS = {"model1": model_one(1.0), "model2": model_two(np.pi / 4.0)}
# exact-midpoint steps this fine keep the ramp's own error far below the bound
STEP = 1.0 / 384.0
BOUND = 0.5


def boundary_terms(spec, points=4001):
    """A(0), A(1) and Phi for a model with real Hamiltonians, on an s grid."""
    h0, ht = spec.initial.matrix.real, spec.target.matrix.real
    assert not spec.initial.matrix.imag.any() and not spec.target.matrix.imag.any()
    s = np.linspace(0.0, 1.0, points)
    energies, vectors = np.linalg.eigh((1.0 - s)[:, None, None] * h0 + s[:, None, None] * ht)
    gap = energies[:, 1] - energies[:, 0]
    # eigh fixes no sign: carry each eigenvector continuously from s = 0
    for k in (0, 1):
        v = vectors[:, :, k]
        flips = np.sign(np.einsum("si,si->s", v[1:], v[:-1]))
        v[1:] *= np.cumprod(flips)[:, None]
    a = np.einsum("si,ij,sj->s", vectors[:, :, 1], ht - h0, vectors[:, :, 0]) / gap**2
    h = s[1] - s[0]
    phi = h / 3.0 * (gap[0] + gap[-1] + 4.0 * gap[1:-1:2].sum() + 2.0 * gap[2:-1:2].sum())
    return a[0], a[-1], phi


def first_order_excitation(spec, total_time):
    a0, a1, phi = boundary_terms(spec)
    return abs(a1 * np.exp(-1j * total_time * phi) - a0) ** 2 / total_time**2


@lru_cache(maxsize=None)
def ramp_excitation(model, total_time):
    spec = SPECS[model]
    final = run_adiabatic(spec, AdiabaticSchedule(total_time, STEP), "exact-midpoint")
    return decompose(final, spec).beta_sq


def node(model, k):
    """The k-th ramp time at which the two boundary terms cancel, on the step grid.

    With A(0) = A(1) the terms cancel wherever T*Phi is a multiple of 2*pi.
    """
    _, _, phi = boundary_terms(SPECS[model])
    return round(2.0 * np.pi * k / phi / STEP) * STEP


def test_boundary_terms_are_equal_at_both_ends():
    # 1/(4J) for model1 and 1/(4*sqrt(2)*J) for model2, with the same sign
    for model, magnitude in (("model1", 0.25), ("model2", 1.0 / (np.sqrt(2.0) * np.pi))):
        a0, a1, _ = boundary_terms(SPECS[model])
        assert a0 == pytest.approx(a1, rel=1e-12)
        assert abs(a0) == pytest.approx(magnitude, rel=1e-12)


@pytest.mark.parametrize("total_time", [18.0, 36.0, 72.0])
@pytest.mark.parametrize("model", sorted(SPECS))
def test_ramp_excitation_follows_the_boundary_terms(model, total_time):
    ramp = ramp_excitation(model, total_time)
    formula = first_order_excitation(SPECS[model], total_time)
    assert abs(ramp - formula) * total_time**3 <= BOUND, (ramp, formula)


@pytest.mark.parametrize("model, k", [("model2", 7), ("model1", 10)])
def test_excitation_vanishes_where_the_boundary_terms_cancel(model, k):
    # nodes recur every 2*pi/Phi in T: about 4.21 for model2 (T ~ 29.48 at
    # k = 7) and 3.87 for model1 (T ~ 38.71 at k = 10)
    total_time = node(model, k)
    assert first_order_excitation(SPECS[model], total_time) < 1e-8
    assert ramp_excitation(model, total_time) < 1e-6
    assert ramp_excitation(model, 36.0) > 1e-4
