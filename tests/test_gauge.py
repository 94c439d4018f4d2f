"""Flux unitaries, winding numbers, and switch profiles."""

import pickle
import re

import numpy as np
import pytest

from fluxlab.gauge import (GaugeUnitary, Switch, flux_unitary, numerical_winding,
                           product_unitary, tanh_switch, translate_unitary)
from fluxlab.grids import polar_disk_grid
from fluxlab.lattice import MagneticLatticeModel


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
    # a product is the power form about one centre; centres 1e-9 apart
    # would be labelled as one tube that the product is not
    u = flux_unitary(1)
    for offset in (2.0, 1e-9):
        v = translate_unitary(flux_unitary(1), (offset, 0.0))
        with pytest.raises(ValueError, match="singularit"):
            product_unitary(u, v)


def _closure(alpha, points, t=None):
    """The formula of the closures flux_unitary and translate_unitary built
    before the tube became a record: the oracle of its bits."""
    pts = np.asarray(points, dtype=float)
    if t is not None:
        pts = pts - np.asarray(t, dtype=float)
    z = pts[..., 0] + 1j * pts[..., 1]
    with np.errstate(invalid="ignore"):
        return (z / np.abs(z)) ** alpha


@pytest.mark.parametrize("alpha", [1, 2, -1, 0])
def test_record_matches_the_closure_bit_for_bit(alpha):
    # disk nodes and the origin about the origin; lattice sites about
    # offset centres, with the centre itself among the points
    disk = np.vstack([polar_disk_grid(8.0).nodes, [0.0, 0.0]])
    u = flux_unitary(alpha)
    vals = u(disk)
    assert vals.tobytes() == _closure(alpha, disk).tobytes()
    assert np.isnan(vals[-1]) == (alpha != 0)
    sites = MagneticLatticeModel(40, 40, 1.0 / 3.0).sites().astype(float)
    for t in [(19.5, 19.5), (2.5, 11.5), (13.5, 11.5), (11.5 + 1e-13, 11.5), (0.5, -0.25)]:
        pts = np.vstack([sites, t])
        vals = translate_unitary(u, t)(pts)
        assert vals.tobytes() == _closure(alpha, pts, t).tobytes()
        assert np.isnan(vals[-1]) == (alpha != 0)


def test_translates_and_products_carry_winding_and_centre():
    u = translate_unitary(flux_unitary(2), (1.5, -0.5))
    assert (u.winding, u.singularity) == (2, (1.5, -0.5))
    moved = translate_unitary(u, np.array([0.5, 1.0]))
    assert (moved.winding, moved.singularity) == (2, (2.0, 0.5))
    assert product_unitary(u, translate_unitary(flux_unitary(-3), (1.5, -0.5))) == (
        GaugeUnitary(-1, (1.5, -0.5)))
    assert product_unitary(flux_unitary(1), flux_unitary(-1)) == flux_unitary(0)


def test_gauge_unitary_is_a_comparable_picklable_record():
    u = translate_unitary(flux_unitary(2), (0.5, -0.25))
    assert u == GaugeUnitary(2.0, np.array([0.5, -0.25]))
    assert u != flux_unitary(2) and u != GaugeUnitary(1, (0.5, -0.25))
    assert isinstance(u.winding, int) and hash(u) == hash(GaugeUnitary(2, (0.5, -0.25)))
    copy = pickle.loads(pickle.dumps(u))
    assert copy == u
    pts = np.array([[1.0, 2.0], [-0.5, 0.3]])
    assert copy(pts).tobytes() == u(pts).tobytes()


@pytest.mark.parametrize("center", [(float("nan"), 0.0), (0.0, float("inf")),
                                    (-float("inf"), 1.0)], ids=["nan", "inf", "-inf"])
def test_gauge_unitary_rejects_a_non_finite_center(center):
    # a NaN centre built a tube whose numerical_winding read nan, with a
    # RuntimeWarning
    message = re.escape(f"flux center {center} is not finite")
    with pytest.raises(ValueError, match=message):
        translate_unitary(flux_unitary(1), center)
    with pytest.raises(ValueError, match=message):
        GaugeUnitary(1, center)


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
    s = Switch(2.0, center=1.5)
    assert s.evaluate(1.5) == pytest.approx(0.5)
    assert s.center == 1.5
    assert s.scale == 2.0
    # monotone rise of an off-centre, narrow switch
    s = Switch(0.8, center=-0.3)
    assert np.all(np.diff(s.evaluate(np.linspace(-3, 3, 13))) > 0)


def test_switch_antiderivative_consistent():
    s = Switch(1.3, center=0.4)
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
        Switch(1.0, center)


def test_switch_record_compares_hashes_and_pickles():
    s = tanh_switch(1.5)
    assert s == Switch(1.5, 0.0) == Switch(3 / 2)
    assert hash(s) == hash(Switch(1.5))
    assert s != Switch(1.5, center=0.5) and s != Switch(1.0)
    assert type(s.scale) is float and type(Switch(2, center=1).center) is float
    back = pickle.loads(pickle.dumps(s))
    assert back == s
    assert np.array_equal(back.evaluate(np.linspace(-3, 3, 7)), s(np.linspace(-3, 3, 7)))
    assert {s, back, Switch(1.5, 0.0)} == {s}


@pytest.mark.parametrize("scale", [0.0, -1.0, float("inf"), float("nan")])
def test_switch_rejects_a_scale_that_is_not_positive_and_finite(scale):
    with pytest.raises(ValueError, match=f"scale must be positive and finite, got {scale}"):
        Switch(scale)
