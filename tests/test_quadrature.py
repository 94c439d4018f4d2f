"""Area formula, 4D index quadrature, 6D Monte Carlo, diagonal traces."""

import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from fluxlab import gauge, quadrature
from fluxlab.grids import square_grid
from fluxlab.landau import CovariantKernel, landau_kernel, real_surrogate_kernel
from fluxlab.quadrature import (_MC_CHUNK_PAIRS, _MC_COM_SCALE,
                                _MC_VAR1, _MC_VAR2, QuadratureSpec, Triangle,
                                _mc_chunk, _ordered_map,
                                connes_area, index_integral_4d,
                                index_integral_6d_mc,
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
    # the 1e-3 puncture radius needs singular points at least 0.01 apart
    u = gauge.flux_unitary(1)
    with pytest.raises(ValueError, match="puncture"):
        connes_area(u, Triangle((0.0, 0.0), (0.005, 0.0), (1.0, 1.0)))


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


@pytest.mark.parametrize("samples", [0, -4])
def test_monte_carlo_rejects_fewer_than_one_sample(samples):
    with pytest.raises(ValueError, match=f"mc_samples must be at least 1, got {samples}"):
        index_integral_6d_mc(landau_kernel(0), gauge.flux_unitary(1),
                             QuadratureSpec(mc_samples=samples, seed=0))


def test_monte_carlo_real_surrogate_exact_zero():
    est = index_integral_6d_mc(real_surrogate_kernel(), gauge.flux_unitary(1),
                               QuadratureSpec(mc_samples=100_000, seed=3))
    assert est.value.real == 0.0
    assert est.std_error == 0.0
    assert est.deviation(0.0) == 0.0


def _counting_kernel(calls):
    # records the number of points of each call
    k0 = landau_kernel(0)

    def evaluate(x, y):
        calls.append(np.broadcast(np.asarray(x)[..., 0], np.asarray(y)[..., 0]).size)
        return k0.evaluate(x, y)
    return CovariantKernel(level=0, evaluate=evaluate)


def test_monte_carlo_one_triple_per_antithetic_pair(monkeypatch):
    # both antithetic triangles share their edge vectors, hence one triple
    # of three kernel calls per chunk of pairs, and three evaluations per
    # pair; one evaluation per sign would double both.  The chunks do not
    # depend on the worker count
    u = gauge.flux_unitary(1)
    for workers in (1, 2, 3):
        monkeypatch.setattr(quadrature, "_usable_cpus", lambda: workers)
        for samples, chunks in ((250_000, 8), (500_000, 16)):
            calls = []
            index_integral_6d_mc(_counting_kernel(calls), u,
                                 QuadratureSpec(mc_samples=samples, seed=2))
            assert len(calls) == 3 * chunks
            assert sum(calls) == 3 * samples // 2


def _reference_mc_chunk(p, alpha, n_pairs, rng):
    """The chunk as first written: (n, 2) points, one evaluation per sign."""
    def wedge(x, y):
        return x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0]

    s0 = _MC_COM_SCALE
    U = rng.random(n_pairs)
    phi = 2.0 * np.pi * rng.random(n_pairs)
    g = rng.standard_normal((n_pairs, 4))
    rho = s0 * np.sqrt(1.0 / (1.0 - U) ** 2 - 1.0)
    xr = np.column_stack([rho * np.cos(phi), rho * np.sin(phi)])
    r1 = math.sqrt(_MC_VAR1) * g[:, 0:2]
    r2 = 0.5 * r1 + math.sqrt(_MC_VAR2) * g[:, 2:4]
    pdf_x = s0 / (2.0 * np.pi * (s0 ** 2 + rho ** 2) ** 1.5)
    q1 = np.sum(r1 * r1, axis=1)
    dq = r2 - 0.5 * r1
    q2 = np.sum(dq * dq, axis=1)
    pdf_r = (np.exp(-q1 / (2.0 * _MC_VAR1)) / (2.0 * np.pi * _MC_VAR1)
             * np.exp(-q2 / (2.0 * _MC_VAR2)) / (2.0 * np.pi * _MC_VAR2))
    inv_pdf = 1.0 / (pdf_x * pdf_r)
    origin = np.zeros(2)
    T = p.evaluate(origin, r1) * p.evaluate(r1, r2) * p.evaluate(r2, origin)
    both = []
    max_w = 0.0
    for sgn in (1.0, -1.0):
        xrel = sgn * xr
        rho2 = np.sum(xrel * xrel, axis=1)
        d1 = np.arctan2(wedge(xrel, r1), rho2 + np.sum(xrel * r1, axis=1))
        d2 = np.arctan2(wedge(xrel, r2 - r1) + wedge(r1, r2),
                        rho2 + np.sum(xrel * (r1 + r2), axis=1)
                        + np.sum(r1 * r2, axis=1))
        d3 = np.arctan2(-wedge(xrel, r2), rho2 + np.sum(xrel * r2, axis=1))
        Wfac = 2.0j * (np.sin(alpha * d1) + np.sin(alpha * d2)
                       + np.sin(alpha * d3))
        w = T * Wfac * inv_pdf
        max_w = max(max_w, float(np.max(np.abs(w))))
        both.append(w)
    pair_mean = 0.5 * (both[0] + both[1])
    return (complex(np.sum(pair_mean)),
            float(np.sum(pair_mean.real ** 2)),
            max_w)


def _bits(values):
    return np.array([complex(v) for v in values]).view(np.uint64).tolist()


@pytest.mark.parametrize("kern", [landau_kernel(0), landau_kernel(1),
                                  real_surrogate_kernel()],
                         ids=["level-0", "level-1", "real-surrogate"])
@pytest.mark.parametrize("alpha", [-1, 1, 2, 3])
def test_mc_chunk_bitwise_equals_reference(kern, alpha):
    # the shared planar products give every sign the bits of its own
    # evaluation: sum, sum of squares and largest weight all agree exactly
    for n_pairs, seed in ((257, alpha + 10), (4096, alpha + 20)):
        got = _mc_chunk(kern, alpha, n_pairs, np.random.default_rng(seed))
        want = _reference_mc_chunk(kern, alpha, n_pairs, np.random.default_rng(seed))
        assert _bits(got) == _bits(want)


def test_full_mc_chunk_bitwise_equals_reference():
    kern = landau_kernel(0)
    got = _mc_chunk(kern, 1, _MC_CHUNK_PAIRS, np.random.default_rng(2024))
    want = _reference_mc_chunk(kern, 1, _MC_CHUNK_PAIRS, np.random.default_rng(2024))
    assert _bits(got) == _bits(want)


@pytest.fixture(scope="module")
def serial_outputs():
    """The Monte Carlo estimates and area values with every task run inline."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(quadrature, "_usable_cpus", lambda: 1)
        return _pool_outputs()


def _pool_outputs():
    # mc_samples = 1_000_001 ends in a short chunk of 8481 pairs
    u = gauge.flux_unitary(1)
    out = []
    for samples, seed in ((1_000_001, 9), (300_000, 4)):
        est = index_integral_6d_mc(landau_kernel(0), u,
                                   QuadratureSpec(mc_samples=samples, seed=seed))
        out.append(_bits([est.value, est.std_error, est.max_weight]))
    for tri in (TRI, Triangle((2.1, -0.4), (-0.3, 2.6), (-2.2, -1.9))):
        out.append(_bits([connes_area(u, tri)]))
    return out


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_pool_bitwise_equals_serial(monkeypatch, serial_outputs, workers):
    # each task returns its own sums, added in task order; the threads
    # switch every microsecond, so a lost or misplaced result shows
    monkeypatch.setattr(quadrature, "_usable_cpus", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _pool_outputs() == serial_outputs
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("n_pairs", [1, 2, 3])
def test_chunk_smaller_than_the_workers(monkeypatch, n_pairs):
    # a run of one chunk of fewer pairs than workers is that chunk's mean
    monkeypatch.setattr(quadrature, "_usable_cpus", lambda: 4)
    kern = landau_kernel(0)
    got = _mc_chunk(kern, 1, n_pairs, np.random.default_rng(n_pairs))
    want = _reference_mc_chunk(kern, 1, n_pairs, np.random.default_rng(n_pairs))
    assert _bits(got) == _bits(want)
    est = index_integral_6d_mc(kern, gauge.flux_unitary(1),
                               QuadratureSpec(mc_samples=2 * n_pairs, seed=n_pairs))
    child = np.random.SeedSequence(n_pairs).spawn(1)[0]
    s, _, max_w = _reference_mc_chunk(kern, 1, n_pairs, np.random.default_rng(child))
    assert _bits([est.value, est.max_weight]) == _bits([s / n_pairs, max_w])


def test_ordered_map_keeps_submission_order(monkeypatch):
    monkeypatch.setattr(quadrature, "_usable_cpus", lambda: 3)
    caller = threading.get_ident()
    out = _ordered_map([lambda i=i: (i, threading.get_ident()) for i in range(20)])
    assert [i for i, _ in out] == list(range(20))
    assert out[0][1] == caller
    with pytest.raises(ValueError, match="task 3"):
        _ordered_map([lambda i=i: i if i != 3 else int("task 3") for i in range(6)])


def test_nested_call_runs_inline(monkeypatch, serial_outputs):
    # the area and the estimate run as tasks of an outer call: inside a
    # task the worker count is one, the call ends, and the bits stay those
    # of the serial sums
    monkeypatch.setattr(quadrature, "_usable_cpus", lambda: 2)
    out = []

    def nested():
        return quadrature._workers(), _pool_outputs()
    outer = threading.Thread(target=lambda: out.extend(_ordered_map([nested, nested])),
                             daemon=True)
    outer.start()
    outer.join(timeout=120)
    assert not outer.is_alive()
    assert out == [(1, serial_outputs), (1, serial_outputs)]


def test_pool_logs_its_bands(monkeypatch, caplog):
    monkeypatch.setattr(quadrature, "_usable_cpus", lambda: 2)
    u = gauge.flux_unitary(1)
    with caplog.at_level("DEBUG", logger="fluxlab.quadrature"):
        index_integral_6d_mc(landau_kernel(0), u, QuadratureSpec(mc_samples=500_000, seed=1))
        connes_area(u, TRI)
    assert "mc: 16 chunks of 16384 pairs on 2 workers" in caplog.text
    assert "disk of 320 x 512 nodes in 10 bands on 2 workers" in caplog.text


def test_import_leaves_the_pool_unloaded():
    # the pool's module is imported when a call first uses it, not by import
    code = "import sys, fluxlab; print('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


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


def _dense_forms(p, nodes, weights, V, W, x0=(0.0, 0.0)):
    T = weighted_triple_kernel(p, nodes, weights, x0)
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
    want = _dense_forms(p, grid.nodes + x0, grid.weights, V, W, x0)
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
        bare.axis_factors(np.zeros(2))
    grid = square_grid(5.0, 15)
    rng = np.random.default_rng(6)
    V, W = _random_vectors(rng, 2, 225), _random_vectors(rng, 2, 225)
    assert np.array_equal(triple_forms(bare, grid, V, W),
                          _dense_forms(bare, grid.nodes, grid.weights, V, W))
