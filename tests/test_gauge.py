"""Flux unitaries, winding numbers, and switch profiles."""

import numpy as np
import pytest

from fluxlab.gauge import (GaugeUnitary, flux_unitary, numerical_winding,
                           product_unitary, tanh_switch, translate_unitary)


def test_flux_unitary_is_phase_of_position():
    u = flux_unitary(1)
    pts = np.array([[1.0, 0.0], [0.0, 2.0], [-3.0, 0.0], [1.0, 1.0]])
    vals = u(pts)
    z = pts[:, 0] + 1j * pts[:, 1]
    assert np.allclose(vals, z / np.abs(z), atol=1e-14)
    assert np.allclose(np.abs(vals), 1.0, atol=1e-14)


@pytest.mark.parametrize("alpha", [1, 2, -1, 3])
def test_numerical_winding_matches_flux_power(alpha):
    u = flux_unitary(alpha)
    assert abs(numerical_winding(u) - alpha) <= 1e-9
    assert u.winding == alpha
    assert u.flux_power == alpha


@pytest.mark.parametrize("alpha", [-2, -1, 1, 2])
def test_flux_unitary_is_nan_at_singularity_without_warning(alpha):
    # the suite turns warnings into errors, so a RuntimeWarning fails here
    vals = flux_unitary(alpha)(np.array([[0.0, 0.0], [0.0, 1.0]]))
    assert np.isnan(vals[0])
    assert vals[1] == pytest.approx(1j ** alpha, abs=1e-15)


def test_fractional_flux_rejected():
    with pytest.raises(ValueError, match="integer number of flux quanta"):
        flux_unitary(0.5)
    with pytest.raises(ValueError, match="diverge"):
        flux_unitary(1.2)


def test_flux_zero_is_constant():
    u = flux_unitary(0)
    pts = np.array([[0.3, 0.4], [-2.0, 1.0]])
    assert np.allclose(u(pts), 1.0, atol=1e-15)


def test_translate_unitary_moves_singularity():
    u = flux_unitary(1)
    t = (1.5, -0.5)
    ut = translate_unitary(u, t)
    assert ut.singularity == pytest.approx(t)
    pts = np.array([[2.5, -0.5], [1.5, 0.5]])
    shifted = pts - np.asarray(t)
    assert np.allclose(ut(pts), u(shifted), atol=1e-14)
    assert abs(numerical_winding(ut) - 1.0) <= 1e-9


def test_product_unitary_adds_windings():
    u = flux_unitary(1)
    v = flux_unitary(2)
    w = product_unitary(u, v)
    assert w.winding == 3
    pts = np.array([[0.7, 0.1], [-0.2, 0.9]])
    assert np.allclose(w(pts), u(pts) * v(pts), atol=1e-14)
    assert abs(numerical_winding(w) - 3.0) <= 1e-9


def test_product_unitary_requires_common_singularity():
    u = flux_unitary(1)
    v = translate_unitary(flux_unitary(1), (2.0, 0.0))
    with pytest.raises(ValueError, match="singularit"):
        product_unitary(u, v)


def test_winding_of_inverse_flux():
    um = flux_unitary(-2)
    assert abs(numerical_winding(um) + 2.0) <= 1e-9


def test_tanh_switch_profile():
    s = tanh_switch(1.0)
    assert s.evaluate(0.0) == pytest.approx(0.5)
    assert s.evaluate(50.0) == pytest.approx(1.0, abs=1e-12)
    assert s.evaluate(-50.0) == pytest.approx(0.0, abs=1e-12)
    x = np.linspace(-5, 5, 41)
    vals = s.evaluate(x)
    assert np.all(np.diff(vals) > 0)


def test_tanh_switch_center_and_scale():
    s = tanh_switch(2.0, center=1.5)
    assert s.evaluate(1.5) == pytest.approx(0.5)
    assert s.center == 1.5
    assert s.scale == 2.0
    # monotone rise of an off-centre, narrow switch
    s = tanh_switch(0.8, center=-0.3)
    assert np.all(np.diff(s.evaluate(np.linspace(-3, 3, 13))) > 0)


def test_switch_antiderivative_consistent():
    s = tanh_switch(1.3, center=0.4)
    F = s.antiderivative
    x = np.linspace(-4, 4, 9)
    h = 1e-5
    numeric = (F(x + h) - F(x - h)) / (2 * h)
    assert np.allclose(numeric, s.evaluate(x), atol=1e-8)


def test_switch_no_overflow_far_out():
    s = tanh_switch(1.0)
    assert np.isfinite(s.evaluate(1e4))
    assert np.isfinite(s.antiderivative(1e4))
    # F(x) - x stays bounded on the right tail
    assert abs(s.antiderivative(1e4) - 1e4) < 10.0


@pytest.mark.parametrize("center", [float("nan"), float("inf"), -float("inf")])
def test_tanh_switch_rejects_a_nonfinite_center(center):
    with pytest.raises(ValueError, match=f"center must be finite, got {center}"):
        tanh_switch(1.0, center)


@pytest.mark.parametrize("c1", [float("nan"), float("inf"), -1.0])
def test_gauge_unitary_rejects_a_bad_lipschitz_constant(c1):
    # a NaN constant reached connes_area's far-field node count, which failed
    # with "cannot convert float NaN to integer"
    with pytest.raises(ValueError,
                       match=f"lipschitz_c1 must be finite and nonnegative, got {c1!r}"):
        GaugeUnitary(flux_unitary(1).evaluate, 1, lipschitz_c1=c1)
    assert GaugeUnitary(flux_unitary(0).evaluate, 0, lipschitz_c1=0.0).lipschitz_c1 == 0.0
