"""Acceptance suite: every numbered claim at its pinned tolerance.

The terminal summary (wired in conftest) prints one PASS/FAIL line per
criterion.  The truncated-pair route runs on the library's level-sized
default disk, and switch-shape independence is checked as the box limit it
is, through the documented tail rate.  The measured values behind both, and
the one module check still failing on purpose, are in README "Known
failures".
"""

import time

import numpy as np
import pytest

from fluxlab import gauge, hall, landau, lattice, projpair, quadrature

FLUX = 1.0 / 3.0
FERMI = -1.29


def sample_triangle(rng):
    while True:
        pts = rng.uniform(-3.0, 3.0, size=(3, 2))
        tri = quadrature.Triangle(tuple(pts[0]), tuple(pts[1]), tuple(pts[2]))
        seps = [np.hypot(*(pts[i] - pts[j])) for i, j in ((0, 1), (1, 2), (2, 0))]
        if min(seps) > 0.05 and abs(tri.oriented_area_twice()) >= 0.05:
            return tri


@pytest.mark.criterion(1, "finite-dimensional identities, 200 random draws")
def test_random_projection_pair_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240819)
    for _ in range(200):
        dim = int(rng.integers(2, 65))
        rp, rq, rr = (int(r) for r in rng.integers(0, dim + 1, size=3))
        P = projpair.random_projection(rng, dim, rp)
        Q = projpair.random_projection(rng, dim, rq)
        R = projpair.random_projection(rng, dim, rr)
        base = projpair.index_by_spectral_count(P, Q)
        assert base.value == rp - rq
        assert projpair.index_by_spectral_count(Q, P).value == -base.value
        eye = np.eye(dim)
        comp = projpair.index_by_spectral_count(
            projpair.HermitianProjection(eye - P.matrix),
            projpair.HermitianProjection(eye - Q.matrix))
        assert comp.value == -base.value
        W = projpair.random_unitary(rng, dim).matrix
        conj = projpair.index_by_spectral_count(
            projpair.HermitianProjection(W @ P.matrix @ W.conj().T),
            projpair.HermitianProjection(W @ Q.matrix @ W.conj().T))
        assert conj.value == base.value
        for n in range(4):
            rep = projpair.index_by_odd_trace(P, Q, n=n)
            assert abs(rep.value - base.value) <= 1e-8
            assert rep.residual <= 1e-8
        lhs, rhs = projpair.additivity_check(P, Q, R)
        assert lhs == rhs
    assert time.perf_counter() - t0 < 30.0


@pytest.mark.criterion(2, "area law for random triangles at windings 1, 2, -1")
def test_area_law_on_random_triangles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    windings = {w: gauge.flux_unitary(w) for w in (1, 2, -1)}
    for _ in range(20):
        tri = sample_triangle(rng)
        area2 = tri.oriented_area_twice()
        for w, u in windings.items():
            oracle = 2j * np.pi * w * area2
            val = quadrature.connes_area(u, tri)
            assert abs(val - oracle) <= 1e-3 * abs(oracle)
    assert time.perf_counter() - t0 < 120.0


@pytest.mark.criterion(3, "three routes to the level index")
@pytest.mark.parametrize("m", [0, 1, 2])
def test_index_by_shift_matrix(m):
    mat = landau.flux_matrix(m, n_max=20)
    pattern = np.diag(np.diag(mat, k=-1), k=-1)
    assert np.max(np.abs(mat - pattern)) <= 1e-8
    assert landau.shift_index(mat) == -1


@pytest.mark.criterion(3, "three routes to the level index")
@pytest.mark.parametrize("m", [0, 1, 2])
def test_index_by_plane_integral(m):
    val = quadrature.index_integral_4d(landau.landau_kernel(m), winding=1)
    assert val.real == pytest.approx(-1.0, abs=2e-2)


@pytest.mark.criterion(3, "three routes to the level index")
@pytest.mark.parametrize("m", [0, 1, 2])
def test_index_by_truncated_pair(m, request):
    # the default disk grows with the level (radius 8, 11, 14): a fixed
    # radius-8 disk leaves 1.6e-2 / 3.0e-2 of boundary weight on m = 1, 2;
    # the level-sized disk leaves 7.9e-3 / 8.5e-3 (README "Known failures")
    t0 = time.perf_counter()
    if m == 0:
        P, Q = request.getfixturevalue("truncated_pair_m0")
    else:
        P, Q = landau.truncated_projection_pair(m, gauge.flux_unitary(1))
    rep = projpair.index_by_odd_trace(Q, P)
    assert rep.value == pytest.approx(-1.0, abs=1e-2)
    assert time.perf_counter() - t0 < 300.0


@pytest.mark.criterion(4, "Hall transport quantization")
def test_switch_integrals_are_exact():
    for scale in (0.5, 1.0, 2.0):
        s = gauge.tanh_switch(scale)
        for a in (0.0, 2.0, -1.5):
            assert abs(hall.switch_integral_1d(s, a) - a) <= 1e-6
    pair = hall.SwitchPair(gauge.tanh_switch(1.0), gauge.tanh_switch(1.0))
    for a, b in (((1.0, 0.0), (0.0, 1.0)), ((2.0, 1.0), (1.0, 3.0))):
        wedge = a[0] * b[1] - a[1] * b[0]
        assert abs(hall.switch_integral_2d(pair, a, b) - wedge) <= 1e-6


@pytest.mark.criterion(4, "Hall transport quantization")
@pytest.mark.parametrize("m", [0, 1])
def test_closed_form_transport_is_one(m):
    q = hall.hall_transport_closed_form(landau.landau_kernel(m))
    assert q == pytest.approx(1.0, abs=2e-2)


@pytest.mark.criterion(4, "Hall transport quantization")
def test_box_transport_converges_monotonically():
    pair = hall.SwitchPair(gauge.tanh_switch(1.0), gauge.tanh_switch(1.0))
    boxes = hall.hall_transport_box(landau.landau_kernel(0), pair,
                                    (3.0, 4.5, 6.0))
    errs = [abs(q - 1.0) for _, q in boxes]
    assert errs[-1] <= 5e-2
    assert errs[0] >= errs[1] >= errs[2]


@pytest.mark.criterion(4, "Hall transport quantization")
def test_kubo_conductance_near_quantum():
    k = hall.kubo_box(landau.landau_kernel(0), 6.0)
    assert k == pytest.approx(1.0 / (2.0 * np.pi), rel=5e-2)


@pytest.mark.criterion(4, "Hall transport quantization")
def test_switch_shape_independence():
    # shape independence holds in the box limit: the gap between switch
    # scales 0.5 and 2.0 is the scale-2 tail, which shrinks at the documented
    # rate exp(-2L/scale) and falls within 1% from L = 7 on (1.26e-2,
    # 4.67e-3, 1.72e-3 at L = 6, 7, 8; README "Known failures")
    t0 = time.perf_counter()
    kern = landau.landau_kernel(0)
    boxes = (6.0, 7.0, 8.0)
    qa = [q for _, q in hall.hall_transport_box(
        kern, hall.SwitchPair(gauge.tanh_switch(0.5), gauge.tanh_switch(0.5)),
        boxes)]
    qb = [q for _, q in hall.hall_transport_box(
        kern, hall.SwitchPair(gauge.tanh_switch(2.0), gauge.tanh_switch(2.0)),
        boxes)]
    gaps = [abs(a - b) for a, b in zip(qa, qb)]
    for before, after in zip(gaps, gaps[1:]):
        assert after / before == pytest.approx(np.exp(-2.0 / 2.0), rel=5e-2)
    for gap, q in zip(gaps[1:], qb[1:]):
        assert gap <= 1e-2 * abs(q)
    assert time.perf_counter() - t0 < 600.0


@pytest.mark.criterion(5, "transport equals minus the charge deficiency")
def test_transport_deficiency_identity():
    kern = landau.landau_kernel(0)
    q = hall.hall_transport_closed_form(kern)
    deficiency = quadrature.index_integral_4d(kern, winding=1)
    assert abs(q + deficiency.real) <= 1e-6


@pytest.mark.criterion(6, "index vanishes without flux")
def test_real_kernel_integral_vanishes():
    val = quadrature.index_integral_4d(landau.real_surrogate_kernel(), winding=1)
    assert abs(val) <= 1e-6


@pytest.mark.criterion(6, "index vanishes without flux")
def test_flux_zero_lattice_index_vanishes():
    model = lattice.MagneticLatticeModel(24, 24, 0.0)
    gp = lattice.gap_projection(lattice.build_hamiltonian(model), FERMI)
    U = lattice.lattice_flux_unitary(model, (11.5, 11.5))
    assert abs(lattice.lattice_index(gp, U).value) <= 1e-6


@pytest.mark.criterion(7, "lattice index stability")
def test_index_stable_across_sizes_and_powers():
    t0 = time.perf_counter()
    vals = []
    for size in (20, 24, 28):
        model = lattice.MagneticLatticeModel(size, size, FLUX)
        gp = lattice.gap_projection(lattice.build_hamiltonian(model), FERMI)
        U = lattice.lattice_flux_unitary(model,
                                         (size / 2 - 0.5, size / 2 - 0.5))
        for n in (1, 2):
            vals.append(lattice.lattice_index(gp, U, n=n).value)
    assert max(vals) - min(vals) <= 5e-2
    assert all(round(v) == -1 for v in vals)
    assert time.perf_counter() - t0 < 600.0


@pytest.mark.criterion(7, "lattice index stability")
def test_index_stable_under_translation(lattice_benchmark):
    model, _, gp, U = lattice_benchmark
    moved = lattice.lattice_flux_unitary(model, (13.5, 11.5))
    a = lattice.lattice_index(gp, U).value
    b = lattice.lattice_index(gp, moved).value
    assert abs(a - b) <= 5e-2


@pytest.mark.criterion(7, "lattice index stability")
def test_index_stable_under_disorder(lattice_benchmark):
    model, _, gp, U = lattice_benchmark
    ens = lattice.DisorderEnsemble(base_model=model,
                                   amplitude=0.2 * gp.gap_width,
                                   seeds=list(range(10)))
    reports = lattice.disorder_constancy(ens, FERMI, U)
    assert len(reports) == 10
    assert {r.rounded() for r in reports} == {-1}


@pytest.mark.criterion(7, "lattice index stability")
def test_flux_outside_wedge_gives_zero():
    size = 24
    mask = np.zeros((size, size), dtype=bool)
    mask[12:, 12:] = True
    model = lattice.MagneticLatticeModel(size, size, FLUX, domain_mask=mask)
    rep = lattice.wedge_experiment(model, (11.4, 11.4), FERMI)
    assert abs(rep.value) <= 5e-2


@pytest.mark.criterion(8, "exponential kernel decay")
def test_gapped_kernel_decays(lattice_benchmark):
    model, _, gp, _ = lattice_benchmark
    slope, r_squared = lattice.decay_fit(gp, model)
    assert slope < 0.0
    assert r_squared >= 0.9


@pytest.mark.criterion(9, "Monte Carlo cross-check")
def test_monte_carlo_matches_plane_integral():
    t0 = time.perf_counter()
    kern = landau.landau_kernel(0)
    ref = quadrature.index_integral_4d(kern, winding=1)
    est = quadrature.index_integral_6d_mc(
        kern, gauge.flux_unitary(1),
        quadrature.QuadratureSpec(mc_samples=10_000_000, seed=20240817))
    # the unreduced trace integral carries the opposite orientation
    assert est.deviation(-ref.real) <= 3.0
    assert est.samples == 10_000_000
    assert time.perf_counter() - t0 < 300.0
