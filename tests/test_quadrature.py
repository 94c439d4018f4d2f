"""Area formula, 4D index quadrature, 6D Monte Carlo, diagonal traces."""

import numpy as np
import pytest

from fluxlab import gauge
from fluxlab.grids import square_grid
from fluxlab.landau import CovariantKernel, landau_kernel, real_surrogate_kernel
from fluxlab.quadrature import (QuadratureSpec, Triangle, connes_area,
                                index_integral_4d, index_integral_6d_mc,
                                trace_from_diagonal, triple_forms,
                                weighted_triple_kernel)

TRI = Triangle((0.5, 0.3), (-1.2, 0.8), (0.4, -1.5))


def test_triangle_oriented_area():
    tri = Triangle((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    assert tri.oriented_area_twice() == pytest.approx(1.0)
    flipped = Triangle((0.0, 0.0), (0.0, 1.0), (1.0, 0.0))
    assert flipped.oriented_area_twice() == pytest.approx(-1.0)


def test_triangle_area_translation_covariant():
    shift = (2.3, -0.7)
    moved = Triangle(tuple(np.add(TRI.a, shift)), tuple(np.add(TRI.b, shift)),
                     tuple(np.add(TRI.c, shift)))
    assert moved.oriented_area_twice() == pytest.approx(
        TRI.oriented_area_twice(), abs=1e-12)


def test_connes_area_matches_triangle_area():
    u = gauge.flux_unitary(1)
    val = connes_area(u, TRI)
    want = 2j * np.pi * TRI.oriented_area_twice()
    assert abs(val - want) / abs(want) <= 1e-3
    # the honest number is far better than the contract
    assert abs(val - want) / abs(want) <= 1e-5


def test_connes_area_winding_scaling():
    v1 = connes_area(gauge.flux_unitary(1), TRI)
    v2 = connes_area(gauge.flux_unitary(2), TRI)
    vm = connes_area(gauge.flux_unitary(-1), TRI)
    assert abs(v2 - 2 * v1) / abs(2 * v1) <= 1e-3
    assert abs(vm + v1) / abs(v1) <= 1e-3


def test_connes_area_vertex_swap_antisymmetry():
    u = gauge.flux_unitary(1)
    val = connes_area(u, TRI)
    swapped = connes_area(u, Triangle(TRI.b, TRI.a, TRI.c))
    assert abs(val + swapped) / abs(val) <= 1e-6


def test_connes_area_translation_invariance():
    # translating triangle and singularity together leaves the value
    u = gauge.flux_unitary(1)
    shift = np.array([1.1, -2.0])
    ut = gauge.translate_unitary(u, tuple(shift))
    moved = Triangle(tuple(TRI.a + shift), tuple(TRI.b + shift),
                     tuple(TRI.c + shift))
    v0 = connes_area(u, TRI)
    v1 = connes_area(ut, moved)
    assert abs(v1 - v0) / abs(v0) <= 1e-3


def test_connes_area_is_imaginary():
    val = connes_area(gauge.flux_unitary(1), TRI)
    assert abs(val.real) <= 1e-3 * abs(val)


def test_connes_area_degenerate_triangle():
    u = gauge.flux_unitary(1)
    assert connes_area(u, Triangle((0.3, 0.2), (0.3, 0.2), (0.3, 0.2))) == 0j


def test_connes_area_puncture_radius_guard():
    u = gauge.flux_unitary(1)
    spec = QuadratureSpec(puncture_radius=0.5)
    with pytest.raises(ValueError, match="puncture"):
        connes_area(u, TRI, spec)


def test_connes_area_outer_radius_guard():
    u = gauge.flux_unitary(1)
    spec = QuadratureSpec(outer_radius=5.0)
    with pytest.raises(ValueError, match="outer radius"):
        connes_area(u, TRI, spec)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_index_integral_4d_landau(m):
    val = index_integral_4d(landau_kernel(m), winding=1)
    assert val.real == pytest.approx(-1.0, abs=2e-2)
    assert abs(val.imag) <= 1e-8


def test_index_integral_4d_winding_linearity():
    kern = landau_kernel(0)
    v1 = index_integral_4d(kern, winding=1)
    v2 = index_integral_4d(kern, winding=2)
    vm = index_integral_4d(kern, winding=-1)
    assert v2 == 2 * v1
    assert vm == -v1
    assert index_integral_4d(kern, winding=0) == 0j


def test_index_integral_4d_rejects_fractional_winding():
    with pytest.raises(ValueError, match="integer"):
        index_integral_4d(landau_kernel(0), winding=0.5)


def test_index_integral_4d_real_surrogate_vanishes():
    val = index_integral_4d(real_surrogate_kernel(), winding=1)
    assert abs(val) <= 1e-6


def test_index_integral_4d_imag_residual_guard():
    # a real non-symmetric kernel puts weight on the real antisymmetric part
    # of the triple product, which the wedge contraction turns into an
    # imaginary component of the final value
    def lopsided(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        gx = np.exp(-0.5 * np.sum(x * x, axis=-1))
        gy = np.exp(-0.5 * np.sum(y * y, axis=-1))
        return gx * gy * (1.0 + x[..., 0] * y[..., 1]) / np.pi
    kern = CovariantKernel(level=0, evaluate=lopsided)
    with pytest.raises(ValueError, match="imaginary residual"):
        index_integral_4d(kern, winding=1)


def test_monte_carlo_matches_quadrature_route():
    kern = landau_kernel(0)
    u = gauge.flux_unitary(1)
    est = index_integral_6d_mc(kern, u, QuadratureSpec(mc_samples=500_000, seed=11))
    oracle = -index_integral_4d(kern, winding=1).real
    assert est.deviation(oracle) <= 3.0
    assert est.samples == 500_000
    assert est.std_error < 0.05
    assert est.max_weight < 500.0


def test_monte_carlo_deterministic():
    kern = landau_kernel(0)
    u = gauge.flux_unitary(1)
    spec = QuadratureSpec(mc_samples=200_000, seed=42)
    a = index_integral_6d_mc(kern, u, spec)
    b = index_integral_6d_mc(kern, u, spec)
    assert a.value == b.value
    assert a.std_error == b.std_error
    c = index_integral_6d_mc(kern, u, QuadratureSpec(mc_samples=200_000, seed=43))
    assert c.value != a.value


def test_monte_carlo_winding_two():
    kern = landau_kernel(0)
    est = index_integral_6d_mc(kern, gauge.flux_unitary(2),
                               QuadratureSpec(mc_samples=500_000, seed=5))
    assert est.deviation(2.0) <= 3.0


def test_monte_carlo_constant_gauge_short_circuits():
    kern = landau_kernel(0)
    est = index_integral_6d_mc(kern, gauge.flux_unitary(0),
                               QuadratureSpec(mc_samples=100_000, seed=0))
    assert est.value == 0j
    assert est.std_error == 0.0
    assert est.samples == 0


def test_monte_carlo_real_surrogate_exact_zero():
    est = index_integral_6d_mc(real_surrogate_kernel(), gauge.flux_unitary(1),
                               QuadratureSpec(mc_samples=100_000, seed=3))
    assert est.value.real == 0.0
    assert est.std_error == 0.0
    assert est.deviation(0.0) == 0.0


def _counting_kernel(calls):
    k0 = landau_kernel(0)

    def evaluate(x, y):
        calls.append(1)
        return k0.evaluate(x, y)
    return CovariantKernel(level=0, evaluate=evaluate)


def test_monte_carlo_one_triple_per_antithetic_pair():
    # both antithetic triangles share their edge vectors, hence one triple
    # of three kernel calls per chunk of pairs
    u = gauge.flux_unitary(1)
    for samples, want in ((250_000, 3), (500_000, 6)):
        calls = []
        index_integral_6d_mc(_counting_kernel(calls), u,
                             QuadratureSpec(mc_samples=samples, seed=2))
        assert len(calls) == want


def test_monte_carlo_requires_power_form_unitary():
    general = gauge.GaugeUnitary(evaluate=gauge.flux_unitary(1).evaluate, winding=1)
    calls = []
    with pytest.raises(ValueError, match="flux_power"):
        index_integral_6d_mc(_counting_kernel(calls), general,
                             QuadratureSpec(mc_samples=1000, seed=0))
    assert calls == []


def test_monte_carlo_target_tol_guard():
    kern = landau_kernel(0)
    spec = QuadratureSpec(mc_samples=50_000, seed=1, target_tol=1e-6)
    with pytest.raises(ValueError, match="standard error"):
        index_integral_6d_mc(kern, gauge.flux_unitary(1), spec)


def test_trace_from_diagonal_counts_states():
    kern = landau_kernel(0)
    R = 8.0
    val = trace_from_diagonal(kern, radius=R)
    assert val.real == pytest.approx(R * R, rel=1e-2)


def test_trace_from_diagonal_difference_kernel_vanishes():
    k0 = landau_kernel(0)
    diff = CovariantKernel(
        level=0, evaluate=lambda x, y: k0.evaluate(x, y) - k0.evaluate(x, y))
    assert abs(trace_from_diagonal(diff, radius=6.0)) <= 1e-12


def test_trace_from_diagonal_rank_one():
    def rank_one(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        nx = np.exp(-0.5 * np.sum(x * x, axis=-1))
        ny = np.exp(-0.5 * np.sum(y * y, axis=-1))
        return nx * ny / np.pi
    kern = CovariantKernel(level=0, evaluate=rank_one)
    assert trace_from_diagonal(kern, radius=10.0).real == pytest.approx(
        1.0, rel=1e-8)


def _dense_forms(p, grid, V, W, x0=(0.0, 0.0)):
    T = weighted_triple_kernel(p, grid.nodes, grid.weights, x0)
    return np.array([v @ (T @ w) for v, w in zip(V, W)])


def _random_vectors(rng, count, size):
    return (rng.standard_normal((count, size))
            + 1j * rng.standard_normal((count, size)))


@pytest.mark.parametrize("x0", [(0.0, 0.0), (0.4, -0.1)], ids=["origin", "shifted"])
def test_triple_forms_match_dense_oracle(closed_form_kernel, x0):
    # odd node count; the engine runs on positions relative to the base
    # point, as in curvature_diagonal, and the oracle on the grid centred on
    # x0 in absolute coordinates
    p = closed_form_kernel
    grid = square_grid(6.0, 21)
    rng = np.random.default_rng(4)
    V, W = _random_vectors(rng, 3, 441), _random_vectors(rng, 3, 441)
    got = triple_forms(p, grid, V, W)
    want = _dense_forms(p, grid.shifted(x0), V, W, x0)
    assert np.max(np.abs(got - want)) <= 1e-13


def test_triple_forms_batch_matches_one_at_a_time():
    p = landau_kernel(1)
    grid = square_grid(6.0, 20)
    rng = np.random.default_rng(5)
    V, W = _random_vectors(rng, 4, 400), _random_vectors(rng, 4, 400)
    batch = triple_forms(p, grid, V, W)
    for k in range(4):
        assert abs(batch[k] - triple_forms(p, grid, V[k], W[k])[0]) <= 1e-13


def test_index_integral_4d_matches_dense_oracle(closed_form_kernel):
    p = closed_form_kernel
    spec = QuadratureSpec(outer_radius=6.5, radial_nodes=31)
    grid = square_grid(6.5, 31)
    x1, x2 = grid.nodes.T
    T = weighted_triple_kernel(p, grid.nodes, grid.weights)
    want = -2j * np.pi * (x1 @ T @ x2 - x2 @ T @ x1)
    assert abs(index_integral_4d(p, winding=1, spec=spec) - want) <= 1e-13


def test_bare_callable_kernel_takes_dense_path():
    # the same values given as a bare callable carry no closed form: the
    # forms are the dense oracle's, bit for bit
    bare = CovariantKernel(level=0, evaluate=landau_kernel(0).evaluate)
    assert bare.radial is None
    with pytest.raises(ValueError, match="no closed form"):
        bare.axis_factors(np.zeros(2), np.zeros(2))
    grid = square_grid(5.0, 15)
    rng = np.random.default_rng(6)
    V, W = _random_vectors(rng, 2, 225), _random_vectors(rng, 2, 225)
    assert np.array_equal(triple_forms(bare, grid, V, W), _dense_forms(bare, grid, V, W))
