"""Magnetic tight-binding models, gap projections, windowed lattice index."""

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fluxlab.lattice import (DisorderEnsemble, MagneticLatticeModel,
                             _real_form_permutation, _rotation_gauge,
                             build_hamiltonian,
                             decay_fit, disorder_constancy, gap_projection,
                             lattice_flux_unitary, lattice_index,
                             plaquette_phase, wedge_experiment)
from fluxlab.projpair import HermitianProjection, UnitaryMatrix, conjugated

FLUX = 1.0 / 3.0
FERMI = -1.29


def bench(size=24, flux=FLUX):
    return MagneticLatticeModel(size, size, flux)


def test_two_by_two_free_spectrum():
    H = build_hamiltonian(MagneticLatticeModel(2, 2, 0.0))
    evals = np.linalg.eigvalsh(H)
    assert np.allclose(evals, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_hamiltonian_hermitian_and_plaquette_phase():
    for gauge_name in ("landau", "symmetric"):
        model = bench(12)
        H = build_hamiltonian(model, gauge=gauge_name)
        assert np.max(np.abs(H - H.conj().T)) == 0.0
        for (x, y) in ((2, 3), (5, 5), (9, 1)):
            ph = plaquette_phase(model, H, x, y)
            assert ph == pytest.approx(np.exp(2j * np.pi * FLUX), abs=1e-12)


def test_hofstadter_three_clusters():
    H = build_hamiltonian(bench())
    evals = np.linalg.eigvalsh(H)
    hist, _ = np.histogram(evals, bins=60)
    dense = hist >= 0.25 * hist.max()
    # count contiguous dense runs
    runs = int(np.sum(dense[1:] & ~dense[:-1])) + int(dense[0])
    assert runs == 3


def test_model_validation():
    with pytest.raises(ValueError):
        MagneticLatticeModel(0, 5, 0.1)
    with pytest.raises(ValueError, match="flux"):
        MagneticLatticeModel(4, 4, 1.5)
    with pytest.raises(TypeError, match="boundary"):
        MagneticLatticeModel(4, 4, 0.1, boundary="periodic")
    with pytest.raises(ValueError):
        MagneticLatticeModel(4, 4, 0.1, potential=np.zeros((3, 4)))


def test_domain_mask_restricts_sites():
    mask = np.zeros((6, 6), dtype=bool)
    mask[:3, :] = True
    model = MagneticLatticeModel(6, 6, 0.1, domain_mask=mask)
    assert len(model.sites()) == 18
    H = build_hamiltonian(model)
    assert H.shape == (18, 18)


def test_disconnected_mask_warns():
    mask = np.zeros((6, 6), dtype=bool)
    mask[0, 0] = True
    mask[5, 5] = True
    model = MagneticLatticeModel(6, 6, 0.1, domain_mask=mask)
    with pytest.warns(UserWarning, match="disconnected"):
        build_hamiltonian(model)


def test_connected_l_shaped_mask_does_not_warn():
    mask = np.zeros((6, 6), dtype=bool)
    mask[:2, :] = True
    mask[:, :2] = True
    build_hamiltonian(MagneticLatticeModel(6, 6, 0.1, domain_mask=mask))


def test_isolated_first_site_warns_at_caller():
    mask = np.zeros((6, 6), dtype=bool)
    mask[0, 0] = True
    mask[2:, 2:] = True
    model = MagneticLatticeModel(6, 6, 0.1, domain_mask=mask)
    with pytest.warns(UserWarning, match=r"16 of 17 sites unreachable from \(0, 0\)") as rec:
        build_hamiltonian(model)
    assert rec[0].filename == __file__


@pytest.mark.parametrize("x, y", [(-1, 3), (3, -1), (11, 3), (3, 11), (40, 40)])
def test_plaquette_outside_box_rejected(x, y):
    model = bench(12)
    H = build_hamiltonian(model)
    with pytest.raises(ValueError, match="not fully inside"):
        plaquette_phase(model, H, x, y)


def test_plaquette_outside_mask_rejected():
    mask = np.ones((6, 6), dtype=bool)
    mask[3, 3] = False
    model = MagneticLatticeModel(6, 6, 0.1, domain_mask=mask)
    H = build_hamiltonian(model)
    assert plaquette_phase(model, H, 0, 0) == pytest.approx(np.exp(0.2j * np.pi), abs=1e-12)
    with pytest.raises(ValueError, match="not fully inside"):
        plaquette_phase(model, H, 2, 2)


def _loop_hamiltonian(model, gauge="landau"):
    # the per-site loop the bond table replaced: one scalar phase per bond
    flux = float(model.flux_per_plaquette)
    mask, pot = model.domain_mask, model.potential
    sites = [(x, y) for x in range(model.width) for y in range(model.height)
             if mask is None or mask[x, y]]
    idx = {s: i for i, s in enumerate(sites)}
    H = np.zeros((len(sites), len(sites)), dtype=complex)
    for (x, y) in sites:
        i = idx[(x, y)]
        if pot is not None:
            H[i, i] = pot[x, y]
        for dy, t in enumerate(((x + 1, y), (x, y + 1))):
            j = idx.get(t)
            if j is not None:
                if gauge == "landau":
                    phase = np.exp(2j * np.pi * flux * x) if dy else 1.0 + 0.0j
                elif dy:
                    phase = np.exp(1j * np.pi * flux * x)
                else:
                    phase = np.exp(-1j * np.pi * flux * y)
                H[i, j] = -phase
                H[j, i] = -np.conj(phase)
    return H


def _oracle_masks(width, height):
    quadrant = np.zeros((width, height), dtype=bool)
    quadrant[width // 2:, height // 2:] = True
    half = np.zeros((width, height), dtype=bool)
    half[min(3, width - 1):, :] = True
    ell = np.zeros((width, height), dtype=bool)
    ell[:max(1, width // 3), :] = True
    ell[:, :max(1, height // 3)] = True
    return {"none": None, "quadrant": quadrant, "half-plane": half, "L": ell}


@pytest.mark.filterwarnings("ignore:domain mask is disconnected")
@pytest.mark.parametrize("mask_name", ["none", "quadrant", "half-plane", "L"])
@pytest.mark.parametrize("width, height", [(24, 24), (7, 5), (1, 6), (40, 40), (3, 1)])
def test_bond_table_hamiltonian_is_bitwise_the_loop(width, height, mask_name):
    mask = _oracle_masks(width, height)[mask_name]
    for with_potential in (False, True):
        potential = (np.random.default_rng(width * height).uniform(-1, 1, (width, height))
                     if with_potential else None)
        for gauge_name in ("landau", "symmetric"):
            for flux in (0.0, 1.0 / 3.0, 0.27):
                model = MagneticLatticeModel(width, height, flux, potential=potential,
                                             domain_mask=mask)
                H = build_hamiltonian(model, gauge=gauge_name)
                want = _loop_hamiltonian(model, gauge_name)
                assert H.shape == want.shape
                assert np.array_equal(H.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("width, height", [(24, 24), (7, 5), (1, 6), (3, 1)])
def test_bonds_count_and_landau_phase(width, height):
    model = MagneticLatticeModel(width, height, 0.27)
    i, j, phase = model.bonds()
    assert len(i) == len(j) == len(phase) == (width - 1) * height + width * (height - 1)
    sites = model.sites()
    step = sites[j] - sites[i]
    assert set(map(tuple, step)) <= {(1, 0), (0, 1)}
    along_y = step[:, 1] == 1
    assert np.all(phase[~along_y] == 1.0)
    assert np.array_equal(phase[along_y], np.exp(2j * np.pi * 0.27 * sites[i][along_y, 0]))


def test_site_table_orders_rows_x_major():
    mask = np.zeros((4, 3), dtype=bool)
    mask[1:, 1:] = True
    model = MagneticLatticeModel(4, 3, 0.1, domain_mask=mask)
    index = model.site_index()
    assert index.shape == (4, 3)
    assert np.all(index[~mask] == -1)
    assert index[mask].tolist() == list(range(6))
    assert model.sites().tolist() == [[1, 1], [1, 2], [2, 1], [2, 2], [3, 1], [3, 2]]


def test_unknown_gauge_rejected():
    with pytest.raises(ValueError, match="unknown gauge"):
        build_hamiltonian(bench(4), gauge="coulomb")


def test_gap_projection_rank_counts_states_below_fermi():
    H = build_hamiltonian(bench(12))
    evals = np.linalg.eigvalsh(H)
    gp = gap_projection(H, FERMI)
    assert gp.projection.rank() == int(np.sum(evals < FERMI))
    assert gp.gap_width > 0.0
    assert gp.fermi_energy == FERMI


def test_gap_projection_refuses_gapless():
    H = build_hamiltonian(MagneticLatticeModel(24, 24, 0.0))
    with pytest.raises(ValueError, match="no spectral gap"):
        gap_projection(H, 0.0)


def test_gap_projection_min_gap_threshold():
    H = build_hamiltonian(bench(12))
    with pytest.raises(ValueError, match="no spectral gap"):
        gap_projection(H, FERMI, min_gap=10.0)


def _complex_oracle(H, fermi, eigh=None):
    # the complex eigh route: eigenvectors of H itself, P = V V*, symmetrized
    evals, vecs = np.linalg.eigh(H) if eigh is None else eigh
    V = vecs[:, evals < fermi]
    P = V @ V.conj().T
    return 0.5 * (P + P.conj().T), float(np.min(np.abs(evals - fermi)))


def _mask(rows, cols, size=24):
    mask = np.zeros((size, size), dtype=bool)
    mask[rows, cols] = True
    return mask


def _y_symmetric_potential(width, height, seed, amplitude=0.1):
    a = np.random.default_rng(seed).uniform(-amplitude, amplitude, (width, height))
    return a + a[:, ::-1]


def _route_line(gp, n):
    # the DEBUG line gap_projection logs for the route it took
    if gp.modes == 4:
        return f"4 rotation blocks of {n // 4} eigh, N = {n}"
    return f"{'real-form' if gp.real_form else 'complex'} eigh, N = {n}"


# the square, even-sided boxes with a complex H have a magnetic rotation and
# take the four mode blocks; the others keep the real form
@pytest.mark.parametrize("model, modes", [
    (bench(24), 4), (bench(32), 4), (bench(40), 4),
    (MagneticLatticeModel(24, 24, FLUX, domain_mask=_mask(slice(3, None), slice(None))), 1),
    (MagneticLatticeModel(24, 24, FLUX, domain_mask=_mask(slice(12, None), slice(12, None))),
     4),
    (MagneticLatticeModel(24, 24, 0.0), 1),
    (MagneticLatticeModel(24, 24, FLUX, potential=_y_symmetric_potential(24, 24, 5)), 1),
], ids=["L24", "L32", "L40", "half-plane", "quarter-wedge", "flux-zero",
        "y-symmetric-potential"])
def test_real_form_matches_complex_oracle(model, modes, caplog):
    H = build_hamiltonian(model)
    with caplog.at_level("DEBUG", logger="fluxlab.lattice"):
        gp = gap_projection(H, FERMI)
    assert (gp.modes, gp.real_form) == (modes, modes == 1)
    assert _route_line(gp, H.shape[0]) in caplog.text
    P, gap = _complex_oracle(H, FERMI)
    assert np.max(np.abs(gp.projection.matrix - P)) <= 1e-12
    assert abs(gp.gap_width - gap) <= 1e-12
    assert gp.projection.rank() == HermitianProjection(P, idempotency_tol=1e-8).rank()
    if model.flux_per_plaquette == 0.0:
        assert np.array_equal(_real_form_permutation(H), np.arange(H.shape[0]))
        assert np.max(np.abs(gp.projection.matrix.imag)) == 0.0


@settings(max_examples=25, deadline=None)
@given(width=st.integers(2, 9), height=st.integers(2, 9),
       q=st.integers(1, 5), p=st.integers(0, 4),
       seed=st.one_of(st.none(), st.integers(0, 2**16)))
def test_real_form_matches_complex_oracle_on_random_boxes(width, height, q, p, seed):
    potential = None if seed is None else _y_symmetric_potential(width, height, seed, 1.0)
    model = MagneticLatticeModel(width, height, (p % q) / q, potential=potential)
    H = build_hamiltonian(model)
    evals = np.linalg.eigvalsh(H)
    k = int(np.argmax(np.diff(evals)))
    fermi = 0.5 * (evals[k] + evals[k + 1])
    gp = gap_projection(H, fermi)
    assert gp.real_form or gp.modes == 4
    P, gap = _complex_oracle(H, fermi)
    assert np.max(np.abs(gp.projection.matrix - P)) <= 1e-12
    assert abs(gp.gap_width - gap) <= 1e-12
    assert gp.projection.rank() == k + 1


@pytest.mark.parametrize("case", ["disorder", "symmetric-gauge"])
def test_complex_fallback_is_bitwise_the_oracle(case, caplog):
    if case == "disorder":
        H = build_hamiltonian(bench())
        H += np.diag(np.random.default_rng(3).uniform(-0.01, 0.01, H.shape[0]))
    else:
        # a rectangle, which has no magnetic rotation either
        H = build_hamiltonian(MagneticLatticeModel(24, 20, FLUX), gauge="symmetric")
    assert _real_form_permutation(H) is None
    with caplog.at_level("DEBUG", logger="fluxlab.lattice"):
        gp = gap_projection(H, FERMI)
    assert not gp.real_form
    assert _route_line(gp, H.shape[0]) in caplog.text
    P, gap = _complex_oracle(H, FERMI)
    assert gp.modes == 1
    assert np.array_equal(gp.projection.matrix, P)
    assert gp.gap_width == gap


def _oracle_at_widest_gap(H):
    # the complex oracle, with the Fermi energy in the middle of the widest gap
    evals, vecs = np.linalg.eigh(H)
    k = int(np.argmax(np.diff(evals)))
    fermi = 0.5 * (evals[k] + evals[k + 1])
    return fermi, k + 1, *_complex_oracle(H, fermi, (evals, vecs))


@pytest.mark.parametrize("flux", [0.0, 0.25, 0.4])
@pytest.mark.parametrize("size", [12, 24, 32, 40])
def test_rotation_blocks_match_complex_oracle(size, flux):
    # the symmetric gauge, which the reflection check rejects; a real H (flux
    # 0) keeps the real form, whose P is exactly real
    H = build_hamiltonian(MagneticLatticeModel(size, size, flux), gauge="symmetric")
    fermi, rank, P, gap = _oracle_at_widest_gap(H)
    gp = gap_projection(H, fermi)
    assert gp.modes == (4 if flux else 1)
    assert np.max(np.abs(gp.projection.matrix - P)) <= 1e-12
    assert abs(gp.gap_width - gap) <= 1e-12
    assert gp.projection.rank() == rank
    if not flux:
        assert np.max(np.abs(gp.projection.matrix.imag)) == 0.0


@settings(max_examples=25, deadline=None)
@given(half=st.integers(1, 6), q=st.integers(1, 5), p=st.integers(0, 4),
       gauge_name=st.sampled_from(["landau", "symmetric"]))
def test_rotation_blocks_match_complex_oracle_on_random_boxes(half, q, p, gauge_name):
    model = MagneticLatticeModel(2 * half, 2 * half, (p % q) / q)
    H = build_hamiltonian(model, gauge=gauge_name)
    fermi, rank, P, gap = _oracle_at_widest_gap(H)
    gp = gap_projection(H, fermi)
    assert gp.modes == (4 if H.imag.any() else 1)
    assert np.max(np.abs(gp.projection.matrix - P)) <= 1e-12
    assert abs(gp.gap_width - gap) <= 1e-12
    assert gp.projection.rank() == rank


def _dense_route(H, fermi):
    # the one-eigh routes as written before the rotation blocks: the real form
    # when the reflection holds, else the complex eigh
    r = _real_form_permutation(H)
    if r is None:
        return _complex_oracle(H, fermi)
    evals, vecs = np.linalg.eigh(H.real - H.imag[:, r])
    V = vecs[:, evals < fermi]
    V = (V + 1j * V[r]) * (0.5 - 0.5j)
    P = V @ V.conj().T
    return 0.5 * (P + P.conj().T), float(np.min(np.abs(evals - fermi)))


def _rotated_bond_perturbed():
    H = build_hamiltonian(bench())
    H[30, 31] *= np.exp(1e-9j)
    H[31, 30] = np.conj(H[30, 31])
    return H


@pytest.mark.parametrize("build", [
    lambda: build_hamiltonian(bench(23)),
    lambda: build_hamiltonian(MagneticLatticeModel(24, 20, FLUX)),
    lambda: build_hamiltonian(MagneticLatticeModel(
        24, 24, FLUX, domain_mask=_mask(slice(3, None), slice(None)))),
    lambda: build_hamiltonian(bench()) + np.diag(
        np.random.default_rng(3).uniform(-0.01, 0.01, 576)),
    lambda: build_hamiltonian(MagneticLatticeModel(
        24, 24, FLUX, potential=_y_symmetric_potential(24, 24, 5))),
    _rotated_bond_perturbed,
    lambda: build_hamiltonian(MagneticLatticeModel(24, 20, FLUX), gauge="symmetric"),
], ids=["odd-side", "rectangle", "half-plane", "disorder", "y-symmetric-potential",
        "perturbed-bond", "symmetric-rectangle"])
def test_fallback_routes_are_bitwise_the_dense_ones(build):
    H = build()
    gp = gap_projection(H, FERMI)
    assert gp.modes == 1
    P, gap = _dense_route(H, FERMI)
    assert np.array_equal(gp.projection.matrix, P)
    assert gp.gap_width == gap


@pytest.mark.parametrize("gap", [1e-2, 3e-3, 1e-5, 1e-8])
def test_block_route_keeps_its_drift_bound_at_small_gaps(gap, caplog):
    # the Landau box is rotation-symmetric only to 1.9e-13 per entry, so the
    # blocks' P, that of a symmetrized H, is kept while that moves it by at
    # most 1e-10 from H's own projection, and the dense route takes over below
    H = build_hamiltonian(bench(24))
    evals, vecs = np.linalg.eigh(H)
    k = int(np.argmax(np.diff(evals)))
    fermi = evals[k] + gap
    with caplog.at_level("DEBUG", logger="fluxlab.lattice"):
        gp = gap_projection(H, fermi)
    assert gp.modes == (4 if gap >= 3e-3 else 1)
    if gp.modes == 4:
        P, oracle_gap = _complex_oracle(H, fermi, (evals, vecs))
        assert np.max(np.abs(gp.projection.matrix - P)) <= 1e-10
        assert abs(gp.gap_width - oracle_gap) <= 1e-12
    else:
        assert "rotation blocks drift" in caplog.text
        P, oracle_gap = _dense_route(H, fermi)
        assert np.array_equal(gp.projection.matrix, P)
        assert gp.gap_width == oracle_gap


@pytest.mark.parametrize("H, modes", [
    (build_hamiltonian(bench(12)), 4),
    (build_hamiltonian(bench(24), gauge="symmetric"), 4),
    (build_hamiltonian(MagneticLatticeModel(
        24, 24, FLUX, domain_mask=_mask(slice(12, None), slice(12, None)))), 4),
    (build_hamiltonian(MagneticLatticeModel(
        24, 24, FLUX, domain_mask=_mask(slice(3, None), slice(None)))), 1),
    (build_hamiltonian(MagneticLatticeModel(24, 24, 0.0)), 1),
    (build_hamiltonian(bench()) + np.diag(np.random.default_rng(3).uniform(-0.01, 0.01, 576)),
     1),
], ids=["blocks", "blocks-symmetric", "blocks-wedge", "real-form", "real", "complex"])
def test_carried_residuals_bound_measured_ones(H, modes):
    gp = gap_projection(H, FERMI)
    assert gp.modes == modes
    P = gp.projection
    measured = HermitianProjection(P.matrix, idempotency_tol=1e-8)
    if modes == 4:
        # the blocks bound the Hermitian residual of the .matrix they form
        assert measured.hermitian_residual <= P.hermitian_residual <= 1e-10
    else:
        assert P.hermitian_residual == measured.hermitian_residual
    assert measured.idempotency_residual <= P.idempotency_residual <= 1e-10


def test_rotation_rejects_a_real_or_broken_box():
    assert _rotation_gauge(build_hamiltonian(MagneticLatticeModel(24, 24, 0.0))) is None
    assert _rotation_gauge(build_hamiltonian(bench(23))) is None
    assert _rotation_gauge(_rotated_bond_perturbed()) is None
    # a missing bond breaks the chain geometry before any ratio is taken
    H = build_hamiltonian(bench(12))
    H[5, 6] = H[6, 5] = 0.0
    assert _rotation_gauge(H) is None


@pytest.mark.parametrize("size", [2, 12, 24])
def test_rotation_gauge_of_the_landau_box(size):
    # solved from H alone, the gauge is the closed form of the Landau box
    p, g, c, _, _ = _rotation_gauge(
        build_hamiltonian(MagneticLatticeModel(size, size, 0.27)))
    x, y = np.divmod(np.arange(size * size), size)
    assert np.array_equal(p, (size - 1 - y) * size + x)
    assert np.max(np.abs(g - np.exp(2j * np.pi * 0.27 * x * (y - size + 1)))) <= 1e-12
    assert abs(c - np.prod(g[[0, p[0], p[p[0]], p[p[p[0]]]]])) <= 1e-12


def _peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_route_memory_peak():
    # the dense route with its measured P @ P peaked at 150 MiB here;
    # assembling the dense, site-ordered P at 81.9 MiB in gap_projection, and
    # forming M densely at 78.1 MiB over the two index calls
    model = bench(40)
    H = build_hamiltonian(model)
    gp, peak = _peak(lambda: gap_projection(H, FERMI))
    assert gp.modes == 4 and gp.projection.blocks.shape == (4, 400, 400)
    assert peak <= 72 * 2**20
    U = lattice_flux_unitary(model, (19.5, 19.5))
    _, peak = _peak(lambda: [lattice_index(gp, U, n=n) for n in (1, 2)])
    assert peak <= 48 * 2**20
    P = gp.projection
    assert P.dim == 1600 and P.rank() > 0
    decay_fit(gp, model)
    assert P.__dict__["_matrix"] is None  # the dense P was never built


def test_site_map_is_part_of_the_projection():
    gp = gap_projection(build_hamiltonian(bench(12)), FERMI)
    P = gp.projection
    assert P.sites is not None and sorted(P.sites) == list(range(144))
    assert np.max(np.abs(np.abs(P.phases) - 1.0)) <= 1e-15
    elsewhere = HermitianProjection.with_residuals(
        P.blocks, P.idempotency_tol, P.hermitian_residual, P.idempotency_residual,
        P.sites[::-1], P.phases)
    rephased = HermitianProjection.with_residuals(
        P.blocks, P.idempotency_tol, P.hermitian_residual, P.idempotency_residual,
        P.sites, np.ones(144))
    bare = HermitianProjection.from_blocks(P.blocks, P.idempotency_tol)
    for other in (elsewhere, rephased, bare):
        assert (P == other) is False and (P != other) is True
    back = pickle.loads(pickle.dumps(P))
    assert (back == P) is True
    assert np.array_equal(back.matrix, P.matrix)
    assert (gp == gap_projection(build_hamiltonian(bench(12)), FERMI)) is True
    assert (gp == gap_projection(build_hamiltonian(bench(12)), -1.2)) is False


def test_flux_unitary_rejects_site_center():
    model = bench(8)
    with pytest.raises(ValueError, match="half a lattice constant"):
        lattice_flux_unitary(model, (3.0, 5.0))


def test_flux_unitary_directional_phases():
    model = bench(8)
    U = lattice_flux_unitary(model, (1.5, 4.0))
    sites = np.asarray(model.sites(), dtype=float)
    east = np.where((sites[:, 0] == 3) & (sites[:, 1] == 4))[0][0]
    assert U.diagonal[east] == pytest.approx(1.0)
    V = lattice_flux_unitary(model, (4.0, 1.5))
    north = np.where((sites[:, 0] == 4) & (sites[:, 1] == 3))[0][0]
    assert V.diagonal[north] == pytest.approx(1j)
    assert np.allclose(np.abs(U.diagonal), 1.0, atol=1e-14)


def test_lattice_index_benchmark_value(lattice_benchmark):
    _, _, gp, U = lattice_benchmark
    rep = lattice_index(gp, U)
    assert rep.value == pytest.approx(-0.97603253, abs=1e-6)
    assert rep.residual == pytest.approx(0.02396747, abs=1e-6)
    assert rep.trace_power == 3
    assert rep.imag_part <= 1e-12
    assert rep.rounded() == -1


def test_lattice_index_fifth_power(lattice_benchmark):
    _, _, gp, U = lattice_benchmark
    rep = lattice_index(gp, U, n=2)
    assert rep.trace_power == 5
    assert rep.value == pytest.approx(-1.0, abs=1e-2)


def test_lattice_index_full_trace_is_zero(lattice_benchmark):
    # window covering the whole domain sums the full trace, which vanishes
    # exactly by similarity
    _, _, gp, U = lattice_benchmark
    rep = lattice_index(gp, U, window_radius=1e6)
    assert abs(rep.value) <= 1e-9


def _dense_window_sum(P, U, n, window_radius=6.0):
    # the diagonal of the full power (P - UPU*)^(2n+1), summed over the window
    D = np.diag(U.diagonal)
    M = P.matrix - D @ P.matrix @ D.conj().T
    diag = np.einsum("ij,ji->i", np.linalg.matrix_power(M, 2 * n), M)
    pos = U.site_array
    r = np.hypot(pos[:, 0] - U.center[0], pos[:, 1] - U.center[1])
    return complex(np.sum(diag[r <= window_radius]))


WEDGE = np.zeros((24, 24), dtype=bool)
WEDGE[12:, 12:] = True


@pytest.mark.parametrize("n, mask, center, window_radius", [
    (1, None, (11.5, 11.5), 6.0),
    (2, None, (11.5, 11.5), 6.0),
    (1, WEDGE, (11.4, 11.4), 6.0),
    (2, None, (11.5, 11.5), 1e6),
    (3, None, (11.5, 11.5), 6.0),
], ids=["n1", "n2", "wedge", "full-window", "n3"])
def test_window_rows_match_dense_diagonal_sum(n, mask, center, window_radius):
    model = MagneticLatticeModel(24, 24, FLUX, domain_mask=mask)
    gp = gap_projection(build_hamiltonian(model), FERMI)
    U = lattice_flux_unitary(model, center)
    rep = lattice_index(gp, U, n=n, window_radius=window_radius)
    want = _dense_window_sum(gp.projection, U, n, window_radius)
    assert abs(rep.value - want.real) <= 1e-12
    assert abs(rep.imag_part - abs(want.imag)) <= 1e-12
    assert rep.trace_power == 2 * n + 1
    if window_radius > 24:
        assert abs(want) <= 1e-9  # the full trace vanishes by similarity


def _dense_diagonal(P, U, n):
    # the diagonal of the full power (P - UPU*)^(2n+1), for several windows
    D = np.diag(U.diagonal)
    M = P.matrix - D @ P.matrix @ D.conj().T
    return np.einsum("ij,ji->i", np.linalg.matrix_power(M, 2 * n), M)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("size, gauge_name", [
    (24, "landau"), (32, "landau"), (40, "landau"), (24, "symmetric"),
], ids=["L24", "L32", "L40", "S24"])
def test_block_window_trace_matches_dense_oracle(size, gauge_name, n, caplog):
    model = bench(size)
    gp = gap_projection(build_hamiltonian(model, gauge=gauge_name), FERMI)
    assert gp.modes == 4
    U = lattice_flux_unitary(model, (size / 2 - 0.5,) * 2)
    diag = _dense_diagonal(gp.projection, U, n)
    r = np.hypot(*(U.site_array - U.center).T)
    for window_radius in (6.0, 1e6):
        with caplog.at_level("DEBUG", logger="fluxlab.lattice"):
            rep = lattice_index(gp, U, n=n, window_radius=window_radius)
        assert f"window trace on 4 rotation blocks of {size * size // 4}" in caplog.text
        want = complex(np.sum(diag[r <= window_radius]))
        assert abs(rep.value - want.real) <= 1e-12
        assert abs(rep.imag_part - abs(want.imag)) <= 1e-12
    assert abs(rep.value) <= 1e-9  # the full trace vanishes by similarity


def test_window_splitting_an_orbit_takes_the_dense_sum(caplog):
    # 1e-13 off the centre the flux still passes as a rotation character,
    # but a window through site (17, 11) leaves out its image (12, 17)
    model = bench()
    gp = gap_projection(build_hamiltonian(model), FERMI)
    U = lattice_flux_unitary(model, (11.5 + 1e-13, 11.5))
    assert conjugated(gp.projection, U.diagonal).blocks.shape[0] == 4
    radius = float(np.hypot(17 - U.center[0], 11 - U.center[1]))
    with caplog.at_level("DEBUG", logger="fluxlab.lattice"):
        rep = lattice_index(gp, U, window_radius=radius)
    assert "window trace dense, N = 576" in caplog.text
    assert abs(rep.value - _dense_window_sum(gp.projection, U, 1, radius).real) <= 1e-12


def _site_window_rows(P, U, n, window_radius=6.0):
    # the window rows of the site-ordered M = P - UPU*, as the dense path forms them
    M = P.matrix - conjugated(P, U.diagonal).matrix
    Y = M[np.hypot(*(U.site_array - U.center).T) <= window_radius]
    for _ in range(n - 1):
        Y = Y @ M
    return complex(np.vdot(Y, Y @ M))


def _disorder_draw():
    model = bench()
    H = build_hamiltonian(model) + np.diag(np.random.default_rng(3).uniform(-0.01, 0.01, 576))
    return gap_projection(H, FERMI), lattice_flux_unitary(model, (11.5, 11.5))


def _bare_projection():
    model = bench()
    gp = gap_projection(build_hamiltonian(model), FERMI)
    P = HermitianProjection(gp.projection.matrix, idempotency_tol=1e-8)
    return P, lattice_flux_unitary(model, (11.5, 11.5))


def _pipeline(model, center):
    return (gap_projection(build_hamiltonian(model), FERMI),
            lattice_flux_unitary(model, center))


@pytest.mark.parametrize("build, bitwise", [
    (lambda: _pipeline(bench(), (12.5, 11.5)), False),
    (lambda: _pipeline(bench(25), (11.5, 11.5)), True),
    (lambda: _pipeline(MagneticLatticeModel(24, 24, FLUX, domain_mask=WEDGE), (11.4, 11.4)),
     False),
    (_bare_projection, True),
    (_disorder_draw, True),
], ids=["off-centre", "odd-box", "quarter-wedge", "bare", "disorder"])
@pytest.mark.parametrize("n", [1, 2])
def test_dense_window_trace_keeps_its_value(build, bitwise, n, caplog):
    gp, U = build()
    with caplog.at_level("DEBUG", logger="fluxlab.lattice"):
        rep = lattice_index(gp, U, n=n)
    assert "lattice_index: window trace dense, N = " in caplog.text
    P = getattr(gp, "projection", gp)
    want = _site_window_rows(P, U, n)
    if bitwise:
        assert rep.value == want.real and rep.imag_part == abs(want.imag)
    else:
        assert abs(rep.value - want.real) <= 1e-14
    assert abs(rep.value - _dense_window_sum(P, U, n).real) <= 1e-12


def test_lattice_index_requires_geometry(lattice_benchmark):
    _, _, gp, _ = lattice_benchmark
    bare = UnitaryMatrix(np.eye(gp.projection.dim, dtype=complex))
    with pytest.raises(ValueError, match="site geometry"):
        lattice_index(gp, bare)


def test_lattice_index_rejects_nonpositive_power(lattice_benchmark):
    _, _, gp, U = lattice_benchmark
    with pytest.raises(ValueError, match="trace power"):
        lattice_index(gp, U, n=0)


def test_lattice_index_flags_unreliable_window(lattice_benchmark, caplog):
    _, _, gp, U = lattice_benchmark
    with caplog.at_level("WARNING", logger="fluxlab.lattice"):
        rep = lattice_index(gp, U, window_radius=2.0)
    assert rep.residual > 0.1
    assert any("finite-size unreliable" in r.message for r in caplog.records)


def test_lattice_index_says_where_the_flux_center_lies(lattice_benchmark, caplog):
    model, _, gp, _ = lattice_benchmark
    with caplog.at_level("WARNING", logger="fluxlab.lattice"):
        lattice_index(gp, lattice_flux_unitary(model, (2.5, 11.5)))
    assert "(2.5, 11.5) is 2.5 sites from the domain boundary" in caplog.text
    assert "outside" not in caplog.text
    caplog.clear()
    with caplog.at_level("WARNING", logger="fluxlab.lattice"):
        wedge_experiment(MagneticLatticeModel(24, 24, FLUX, domain_mask=WEDGE),
                         (11.4, 11.4), FERMI)
    assert ("flux center (11.4, 11.4) lies outside the domain "
            "(sites span x 12..23, y 12..23)") in caplog.text
    assert "sites from the domain boundary" not in caplog.text


def test_lattice_index_translation_invariance(lattice_benchmark):
    model, _, gp, U = lattice_benchmark
    moved = lattice_flux_unitary(model, (13.5, 11.5))
    a = lattice_index(gp, U).value
    b = lattice_index(gp, moved).value
    assert abs(a - b) <= 5e-2


def test_residual_shrinks_with_size():
    resids = []
    for size in (20, 24, 28):
        model = bench(size)
        gp = gap_projection(build_hamiltonian(model), FERMI)
        U = lattice_flux_unitary(model, (size / 2 - 0.5, size / 2 - 0.5))
        resids.append(lattice_index(gp, U).residual)
    assert resids[1] <= resids[0] + 1e-2
    assert resids[2] <= resids[1] + 1e-2


def test_gauge_choice_does_not_move_index():
    model = bench(16)
    U = lattice_flux_unitary(model, (7.5, 7.5))
    vals = []
    for gauge_name in ("landau", "symmetric"):
        gp = gap_projection(build_hamiltonian(model, gauge=gauge_name), FERMI)
        vals.append(lattice_index(gp, U).value)
    assert abs(vals[0] - vals[1]) <= 1e-6


def test_flux_zero_index_vanishes():
    model = MagneticLatticeModel(24, 24, 0.0)
    H = build_hamiltonian(model)
    gp = gap_projection(H, -1.29)
    U = lattice_flux_unitary(model, (11.5, 11.5))
    rep = lattice_index(gp, U)
    assert abs(rep.value) <= 1e-6
    assert np.max(np.abs(gp.projection.matrix.imag)) == 0.0


def test_wedge_experiment_flux_outside():
    size = 24
    mask = np.zeros((size, size), dtype=bool)
    mask[12:, 12:] = True
    model = MagneticLatticeModel(size, size, FLUX, domain_mask=mask)
    rep = wedge_experiment(model, (11.4, 11.4), FERMI)
    assert abs(rep.value) <= 5e-2


def test_wedge_experiment_half_plane_control(lattice_benchmark):
    size = 24
    mask = np.zeros((size, size), dtype=bool)
    mask[3:, :] = True
    model = MagneticLatticeModel(size, size, FLUX, domain_mask=mask)
    rep = wedge_experiment(model, (13.5, 11.5), FERMI)
    full = wedge_experiment(bench(), (13.5, 11.5), FERMI)
    assert abs(rep.value - full.value) <= 5e-2
    assert rep.rounded() == -1


def test_disorder_constancy(lattice_benchmark):
    model, _, gp, U = lattice_benchmark
    ens = DisorderEnsemble(base_model=model, amplitude=0.2 * gp.gap_width,
                           seeds=list(range(5)))
    reports = disorder_constancy(ens, FERMI, U)
    assert len(reports) == 5
    assert {r.rounded() for r in reports} == {-1}
    spread = max(r.value for r in reports) - min(r.value for r in reports)
    assert spread <= 1e-2


def test_disorder_zero_amplitude_reproduces_clean(lattice_benchmark):
    model, _, gp, U = lattice_benchmark
    clean = lattice_index(gp, U).value
    ens = DisorderEnsemble(base_model=model, amplitude=0.0, seeds=[7])
    rep = disorder_constancy(ens, FERMI, U)[0]
    assert rep.value == pytest.approx(clean, abs=1e-12)


def test_disorder_rejects_gap_closure(lattice_benchmark):
    model, _, _, U = lattice_benchmark
    ens = DisorderEnsemble(base_model=model, amplitude=50.0, seeds=[0])
    with pytest.raises(ValueError, match="spectral gap"):
        disorder_constancy(ens, FERMI, U)


def test_disorder_validation(lattice_benchmark):
    model = lattice_benchmark[0]
    with pytest.raises(ValueError, match="amplitude"):
        DisorderEnsemble(base_model=model, amplitude=-1.0, seeds=[0])
    with pytest.raises(TypeError, match="distribution"):
        DisorderEnsemble(base_model=model, amplitude=0.1, seeds=[0],
                         distribution="levy")


def test_decay_fit_benchmark(lattice_benchmark):
    model, _, gp, _ = lattice_benchmark
    slope, r2 = decay_fit(gp, model)
    assert slope == pytest.approx(-0.1258, abs=2e-3)
    assert r2 >= 0.9
    assert slope < 0.0


def _per_bin_loop_fit(A, model):
    # one full scan of the distance matrix per bin, then the same line fit, on
    # the site-ordered magnitudes A
    pos = np.array(model.sites(), dtype=float)
    D = np.sqrt(((pos[:, None, :] - pos[None, :, :]) ** 2).sum(-1))
    xs, ys = [], []
    for b in np.arange(3.0, min(model.width, model.height) / 2.0 + 1.0):
        sel = (D >= b - 0.5) & (D < b + 0.5)
        if sel.any() and A[sel].max() > 1e-14:
            xs.append(b)
            ys.append(np.log(A[sel].max()))
    xs, ys = np.array(xs), np.array(ys)
    design = np.column_stack([xs, np.ones_like(xs)])
    coef = np.linalg.lstsq(design, ys, rcond=None)[0]
    resid = ys - design @ coef
    return float(coef[0]), 1.0 - float((resid ** 2).sum()) / float(((ys - ys.mean()) ** 2).sum())


def _nodal_magnitudes(P):
    # |P| on the nodes, each node at its site without its phase: the entries
    # decay_fit bins, the nodal blocks fft(B)/k (the matrix itself for k = 1)
    k, n, _ = P.blocks.shape
    nodal = np.fft.fft(P.blocks, axis=0) / k if k > 1 else P.blocks
    a = np.arange(k)
    nodes = nodal[(a[None, :] - a[:, None]) % k].transpose(2, 0, 3, 1).reshape(k * n, k * n)
    sites = np.arange(k * n) if P.sites is None else P.sites
    A = np.empty((k * n, k * n))
    A[np.ix_(sites, sites)] = np.abs(nodes)
    return A


# N = 576, 625 and 1600 sites: the last band of 128 rows is partial; 24 and 40
# take the rotation blocks, 25 the real form
@pytest.mark.parametrize("size", [24, 25, 40])
def test_decay_fit_bins_match_per_bin_loop(size):
    model = bench(size)
    gp = gap_projection(build_hamiltonian(model), FERMI)
    assert decay_fit(gp, model) == _per_bin_loop_fit(_nodal_magnitudes(gp.projection), model)


@pytest.mark.parametrize("model", [
    bench(24), bench(32), bench(40),
    MagneticLatticeModel(24, 24, FLUX, domain_mask=WEDGE),
], ids=["L24", "L32", "L40", "quarter-wedge"])
def test_decay_fit_blocks_match_site_ordered_loop(model):
    # the blocks leave out the site phases, which move each |P| by rounding only
    gp = gap_projection(build_hamiltonian(model), FERMI)
    assert gp.modes == 4
    slope, r2 = decay_fit(gp, model)
    want = _per_bin_loop_fit(np.abs(gp.projection.matrix), model)
    assert abs(slope - want[0]) <= 1e-14 and abs(r2 - want[1]) <= 1e-14


def test_decay_fit_memory_peak():
    # binning all N^2 site pairs at once peaked at 119 MiB on this box
    model = bench(40)
    gp = gap_projection(build_hamiltonian(model), FERMI)
    tracemalloc.start()
    try:
        decay_fit(gp, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


def test_decay_fit_wider_gap_decays_faster(lattice_benchmark):
    model, H, gp, _ = lattice_benchmark
    other = gap_projection(H, 0.9478)
    assert other.gap_width > gp.gap_width
    slope_wide, _ = decay_fit(other, model)
    slope_narrow, _ = decay_fit(gp, model)
    assert slope_wide < slope_narrow


def test_decay_fit_norm_thresholds():
    with pytest.raises(ValueError, match="too small"):
        decay_fit(HermitianProjection(np.eye(4)), bench(4))
    model = bench(24)
    flat = HermitianProjection(np.eye(len(model.sites())))
    with pytest.raises(ValueError, match="no decay to fit"):
        decay_fit(flat, model)
