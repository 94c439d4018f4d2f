"""Switch integrals, adiabatic curvature, and transport routes."""

import pickle

import numpy as np
import pytest

from fluxlab import hall, landau
from fluxlab.gauge import Switch, flux_unitary, tanh_switch
from fluxlab.hall import (SwitchPair, _box_switch_integrals, curvature_diagonal,
                          hall_transport_box, hall_transport_closed_form,
                          kubo_box, switch_integral_1d, switch_integral_2d)
from fluxlab.landau import CovariantKernel, landau_kernel, real_surrogate_kernel
from fluxlab.grids import gauss_legendre, square_grid
from fluxlab.quadrature import (QuadratureSpec, Triangle, connes_area,
                                index_integral_4d, weighted_triple_kernel)

# a small transport grid with an odd node count keeps the dense oracle cheap
ORACLE_SPEC = QuadratureSpec(outer_radius=7.0, radial_nodes=31)


@pytest.fixture()
def oracle_square(monkeypatch):
    """Run the hall routes on ORACLE_SPEC's square instead of the level's."""
    monkeypatch.setattr(hall, "level_square_grid", lambda m, route: square_grid(
        ORACLE_SPEC.outer_radius, ORACLE_SPEC.radial_nodes))


@pytest.fixture(scope="module")
def kernel_m0():
    return landau_kernel(0)


@pytest.fixture()
def unit_pair():
    return SwitchPair(tanh_switch(1.0), tanh_switch(1.0))


def test_switch_integral_1d_equals_shift():
    for scale in (0.5, 1.0, 2.0):
        s = tanh_switch(scale)
        for a in (0.0, 2.0, -1.5, 0.3):
            assert switch_integral_1d(s, a) == pytest.approx(a, abs=1e-8)


def test_switch_integral_1d_center_independent():
    s = Switch(1.0, center=2.5)
    assert switch_integral_1d(s, 1.2) == pytest.approx(1.2, abs=1e-8)


class _CauchySwitch(Switch):
    """A profile with the Cauchy tail 1/(pi x): too slow for the window."""

    def evaluate(self, x):
        return 0.5 + np.arctan((np.asarray(x) - self.center) / self.scale) / np.pi


def test_switch_integral_1d_tail_guard():
    # Cauchy-tailed profile decays too slowly for the finite window
    with pytest.raises(ValueError, match="tail truncation"):
        switch_integral_1d(_CauchySwitch(1.0), 2.0)


def test_switch_integral_2d_wedge(unit_pair):
    assert switch_integral_2d(unit_pair, (1, 0), (0, 1)) == pytest.approx(
        1.0, abs=1e-6)
    assert switch_integral_2d(unit_pair, (2, 1), (1, 3)) == pytest.approx(
        5.0, abs=1e-6)
    assert switch_integral_2d(unit_pair, (1, 0), (1, 0)) == pytest.approx(
        0.0, abs=1e-6)


def test_switch_integral_2d_mixed_scales():
    pair = SwitchPair(tanh_switch(0.5), tanh_switch(2.0))
    a, b = (0.7, -1.1), (2.0, 0.4)
    wedge = a[0] * b[1] - a[1] * b[0]
    assert switch_integral_2d(pair, a, b) == pytest.approx(wedge, abs=1e-6)


def test_switch_integral_2d_follows_the_recorded_axes():
    # each switch varies along its own axis, as in the curvature and the box
    # transport, so the swapped pair gives minus the value
    pair = SwitchPair(tanh_switch(0.7), tanh_switch(1.6))
    for a, b in (((1.0, 0.0), (0.0, 1.0)), ((0.7, -1.1), (2.0, 0.4))):
        assert switch_integral_2d(pair.swapped(), a, b) == \
            -switch_integral_2d(pair, a, b)


def test_switch_pair_axes_validation():
    with pytest.raises(ValueError, match="permutation"):
        SwitchPair(tanh_switch(1.0), tanh_switch(1.0), axes=(0, 0))


def test_curvature_diagonal_value(kernel_m0, unit_pair):
    val = curvature_diagonal(kernel_m0, unit_pair, (0.0, 0.0))
    assert val.real == pytest.approx(-0.02082014, abs=1e-7)
    assert abs(val.imag) <= 1e-12


def test_curvature_swap_antisymmetry_exact(kernel_m0):
    pair = SwitchPair(tanh_switch(0.7), tanh_switch(1.6))
    x = (0.3, 0.2)
    assert curvature_diagonal(kernel_m0, pair.swapped(), x) == \
        -curvature_diagonal(kernel_m0, pair, x)


def test_curvature_covariance_with_reanchored_switches(kernel_m0):
    # the curvature of a covariant kernel is itself covariant when the
    # switch centers travel with the evaluation point
    base = SwitchPair(tanh_switch(1.0), tanh_switch(1.0))
    w0 = curvature_diagonal(kernel_m0, base, (0.0, 0.0))
    t = (0.7, -0.4)
    moved = SwitchPair(Switch(1.0, center=t[0]), Switch(1.0, center=t[1]))
    wt = curvature_diagonal(kernel_m0, moved, t)
    assert abs(wt - w0) <= 1e-8


def test_curvature_gauge_conjugation_invariance(kernel_m0, unit_pair):
    # conjugating the kernel by the gauge phase built from the switches
    # leaves the curvature diagonal pointwise unchanged
    l1, l2 = unit_pair.lambda1, unit_pair.lambda2
    phi1, phi2 = 0.8, -1.3

    def theta(X):
        X = np.asarray(X, dtype=float)
        return phi1 * l1.evaluate(X[..., 0]) + phi2 * l2.evaluate(X[..., 1])

    conj = CovariantKernel(
        level=0,
        evaluate=lambda X, Y: np.exp(1j * theta(X)) * kernel_m0.evaluate(X, Y)
        * np.exp(-1j * theta(Y)))
    for x in ((0.4, -0.1), (0.0, 0.0), (-1.0, 0.6)):
        w0 = curvature_diagonal(kernel_m0, unit_pair, x)
        wc = curvature_diagonal(conj, unit_pair, x)
        assert abs(w0 - wc) <= 1e-8


def test_curvature_real_surrogate_vanishes(unit_pair):
    val = curvature_diagonal(real_surrogate_kernel(), unit_pair, (0.0, 0.0))
    assert abs(val) <= 1e-8


def test_box_transport_values_and_monotonicity(kernel_m0, unit_pair):
    out = hall_transport_box(kernel_m0, unit_pair)
    ls = [L for L, _ in out]
    assert ls == [2.0, 3.0, 4.5, 6.0]
    errs = {L: abs(q - 1.0) for L, q in out}
    assert errs[6.0] <= 0.05
    assert errs[6.0] <= errs[4.5] <= errs[3.0]
    assert out[-1][1] == pytest.approx(0.99993320, abs=1e-6)


def test_box_transport_without_primitive_takes_quadrature(kernel_m0, unit_pair,
                                                        monkeypatch):
    # the box integrals from the 400-node rule on [-L, L], which need no
    # primitive, must give the transport the closed primitive gives
    want = hall_transport_box(kernel_m0, unit_pair, (2.0, 6.0))

    def by_quadrature(s, coords, L):
        t, w = gauss_legendre(-L, L, 400)
        return s.evaluate(coords[:, None] + t[None, :]) @ w

    monkeypatch.setattr(hall, "_box_switch_integrals", by_quadrature)
    got = hall_transport_box(kernel_m0, unit_pair, (2.0, 6.0))
    for (_, q), (_, q_closed) in zip(got, want):
        assert abs(q - q_closed) <= 1e-12


def test_box_transport_small_region_vanishes(kernel_m0, unit_pair):
    out = hall_transport_box(kernel_m0, unit_pair, L_values=[1e-3])
    assert abs(out[0][1]) <= 1e-3


def test_box_transport_requires_increasing_l(kernel_m0, unit_pair):
    with pytest.raises(ValueError, match="strictly increasing"):
        hall_transport_box(kernel_m0, unit_pair, L_values=[3.0, 2.0])


@pytest.mark.parametrize("L", [0.0, -2.0])
def test_box_routes_require_positive_half_side(kernel_m0, unit_pair, L):
    with pytest.raises(ValueError, match="must be positive"):
        hall_transport_box(kernel_m0, unit_pair, L_values=[L, 3.0])
    with pytest.raises(ValueError, match="must be positive"):
        kubo_box(kernel_m0, L)


def test_closed_form_equals_one(kernel_m0):
    assert hall_transport_closed_form(kernel_m0) == pytest.approx(1.0, abs=2e-2)


def test_closed_form_identity_violation_raises(kernel_m0, monkeypatch):
    # Q and -Index agree to about 1e-14 on their two grids; a deficiency
    # 1e-5 off is ten times the 1e-6 the identity is checked to
    monkeypatch.setattr(hall, "index_integral_4d", lambda p, winding: -1.0 + 1e-5 + 0j)
    with pytest.raises(ValueError, match="transport/deficiency identity"):
        hall_transport_closed_form(kernel_m0)


def test_closed_form_level_one():
    assert hall_transport_closed_form(landau_kernel(1)) == pytest.approx(
        1.0, abs=2e-2)


@pytest.mark.parametrize("m", [3, 4])
def test_closed_form_identity_holds_above_level_two(m):
    # the level squares add 8 nodes per axis for each level above 2; with
    # the plain 8 per level, |Q + Index| read 1.5e-6 at m = 3 and the
    # identity check refused it
    assert hall_transport_closed_form(landau_kernel(m)) == pytest.approx(
        1.0, abs=2e-2)


def test_kubo_value_and_l_independence(kernel_m0):
    k6 = kubo_box(kernel_m0, 6.0)
    assert k6 == pytest.approx(1.0 / (2.0 * np.pi), rel=0.05)
    # the box dependence cancels exactly in the reduced form
    assert kubo_box(kernel_m0, 2.0) == k6


def test_kubo_real_surrogate_vanishes():
    assert abs(kubo_box(real_surrogate_kernel(), 6.0)) <= 1e-6


def test_kubo_consistent_with_box_transport(kernel_m0, unit_pair):
    q6 = [q for L, q in hall_transport_box(kernel_m0, unit_pair) if L == 6.0][0]
    assert abs(2.0 * np.pi * kubo_box(kernel_m0, 6.0) - q6) <= 1e-2 * abs(q6)


def test_switch_shape_independence_pinned_tolerance(kernel_m0):
    # shape independence within 1% is a property of the box limit: at fixed
    # L the scale-2 tail sets the gap, which shrinks by exp(-2/scale) per
    # unit L (measured ratios 0.370, 0.369) and is within 1% from L = 7 on;
    # at L = 6 it is still 1.26e-2 (README "Known failures")
    boxes = (6.0, 7.0, 8.0)
    qa = [q for _, q in hall_transport_box(
        kernel_m0, SwitchPair(tanh_switch(0.5), tanh_switch(0.5)), boxes)]
    qb = [q for _, q in hall_transport_box(
        kernel_m0, SwitchPair(tanh_switch(2.0), tanh_switch(2.0)), boxes)]
    gaps = [abs(a - b) for a, b in zip(qa, qb)]
    for before, after in zip(gaps, gaps[1:]):
        assert after / before == pytest.approx(np.exp(-2.0 / 2.0), rel=5e-2)
    for gap, q in zip(gaps[1:], qb[1:]):
        assert gap <= 1e-2 * abs(q)


def test_switch_shape_independence_documented_level(kernel_m0):
    # companions documenting the actual behavior: the L = 6 gap sits below
    # 1.5e-2 and the 1% contract is met one box size up, at L = 7
    for L, bound in ((6.0, 1.5e-2), (7.0, 1e-2)):
        qa = hall_transport_box(
            kernel_m0, SwitchPair(tanh_switch(0.5), tanh_switch(0.5)), [L])[0][1]
        qb = hall_transport_box(
            kernel_m0, SwitchPair(tanh_switch(2.0), tanh_switch(2.0)), [L])[0][1]
        assert abs(qa - qb) <= bound * abs(qb)


def _oracle_matrix(p, x0=(0.0, 0.0)):
    grid = square_grid(ORACLE_SPEC.outer_radius, ORACLE_SPEC.radial_nodes)
    nodes = grid.nodes + x0
    return nodes, weighted_triple_kernel(p, nodes, grid.weights, x0)


@pytest.mark.parametrize("x", [(0.0, 0.0), (0.4, -0.1)], ids=["origin", "shifted"])
def test_curvature_diagonal_matches_dense_oracle(closed_form_kernel, x, unit_pair,
                                                 oracle_square):
    p = closed_form_kernel
    nodes, T = _oracle_matrix(p, x)
    l1 = unit_pair.lambda1.evaluate(nodes[:, 0])
    l2 = unit_pair.lambda2.evaluate(nodes[:, 1])
    want = -1j * (l1 @ T @ l2 - l2 @ T @ l1)
    assert abs(curvature_diagonal(p, unit_pair, x) - want) <= 1e-13


def test_box_and_kubo_match_dense_oracle(closed_form_kernel, unit_pair, oracle_square):
    # the box forms run as one batch; kubo runs the wedge form
    p = closed_form_kernel
    nodes, T = _oracle_matrix(p)
    boxes = hall_transport_box(p, unit_pair, (2.0, 4.5))
    for L, q in boxes:
        a1 = _box_switch_integrals(unit_pair.lambda1, nodes[:, 0], L)
        a2 = _box_switch_integrals(unit_pair.lambda2, nodes[:, 1], L)
        want = 2j * np.pi * (a1 @ T @ a2 - a2 @ T @ a1)
        assert abs(q - want.real) <= 1e-13
    x1, x2 = nodes.T
    want = 1j * (x1 @ T @ x2 - x2 @ T @ x1)
    assert abs(kubo_box(p, 6.0) - want.real) <= 1e-13



NAN = float("nan")
TANH_PAIR = SwitchPair(tanh_switch(1.0), tanh_switch(1.0))


def _flux_matrix_of_nan_states(monkeypatch):
    monkeypatch.setattr(landau, "basis_wavefunction",
                        lambda n, m, z: np.full(np.shape(z), NAN + 0j))
    return landau.flux_matrix(0, 4)


@pytest.mark.parametrize("call, message", [
    (lambda mp: hall_transport_box(landau_kernel(0), TANH_PAIR, [NAN]),
     "strictly increasing"),
    (lambda mp: hall_transport_box(landau_kernel(0), TANH_PAIR, [2.0, NAN]),
     "strictly increasing"),
    (lambda mp: hall_transport_box(landau_kernel(0), TANH_PAIR, []),
     "L_values must not be empty"),
    (lambda mp: kubo_box(landau_kernel(0), NAN), "half side must be positive"),
    (lambda mp: tanh_switch(NAN), "scale must be positive"),
    (lambda mp: switch_integral_1d(Switch(1.0, center=NAN), 1.0),
     "center must be finite"),
    (lambda mp: hall_transport_box(
        landau_kernel(0), SwitchPair(Switch(1.0, NAN), tanh_switch(1.0)), [2.0, 4.0]),
     "center must be finite"),
    (lambda mp: hall_transport_closed_form(
        CovariantKernel(level=0, radial=(NAN,), magnetic=True)), "imaginary residual"),
    (lambda mp: index_integral_4d(landau_kernel(0), 1, QuadratureSpec(outer_radius=NAN)),
     "square half side must be positive and finite"),
    (lambda mp: index_integral_4d(CovariantKernel(level=0, radial=(NAN,), magnetic=True), 1),
     "imaginary residual"),
    (lambda mp: kubo_box(CovariantKernel(level=0, radial=(NAN,), magnetic=True), 6.0),
     "imaginary residual"),
    (lambda mp: hall_transport_box(
        CovariantKernel(level=0, radial=(NAN,), magnetic=True), TANH_PAIR, [2.0]),
     "imaginary residual"),
    (lambda mp: connes_area(flux_unitary(1),
                            Triangle((NAN, 0.0), (1.0, 0.0), (0.0, 1.0))),
     "puncture radius"),
    (_flux_matrix_of_nan_states, "off-pattern residual nan"),
], ids=["box-L-nan", "box-L-last-nan", "box-L-empty", "kubo-L-nan", "switch-scale-nan",
        "switch-tail-nan", "box-switch-center-nan", "closed-form-nan", "index-4d-radius-nan",
        "index-4d-kernel-nan", "kubo-kernel-nan", "box-kernel-nan", "connes-vertex-nan",
        "flux-matrix-nan"])
def test_nan_inputs_are_refused(monkeypatch, call, message):
    # each guard is written "not value <= bound", so a NaN, which compares
    # False with everything, is refused instead of returned as a value
    with pytest.raises(ValueError, match=message):
        call(monkeypatch)


INF = float("inf")


@pytest.mark.parametrize("call, message", [
    (lambda: curvature_diagonal(landau_kernel(0), TANH_PAIR, (NAN, 0.0)),
     "curvature point must be finite"),
    (lambda: curvature_diagonal(landau_kernel(0), TANH_PAIR, (0.0, -INF)),
     "curvature point must be finite"),
    (lambda: hall_transport_box(landau_kernel(0), TANH_PAIR, [2.0, INF]),
     "L values must be positive, finite and strictly increasing"),
    (lambda: tanh_switch(INF), "scale must be positive and finite"),
    (lambda: kubo_box(landau_kernel(0), INF), "half side must be positive and finite"),
], ids=["curvature-nan", "curvature-inf", "box-L-inf", "switch-scale-inf", "kubo-L-inf"])
def test_hall_routes_refuse_nonfinite_inputs(call, message):
    # each of these read as a number or as an unrelated residual error
    with pytest.raises(ValueError, match=message):
        call()


def test_switch_pair_of_records_compares_hashes_and_pickles():
    pair = SwitchPair(tanh_switch(0.5), Switch(2.0, center=1.0))
    twin = SwitchPair(Switch(0.5), Switch(2, center=1))
    assert pair == twin and hash(pair) == hash(twin)
    assert pair != pair.swapped()
    assert pickle.loads(pickle.dumps(pair)) == pair
