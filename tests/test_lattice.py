"""Magnetic tight-binding models, gap projections, windowed lattice index."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fluxlab.lattice import (DisorderEnsemble, MagneticLatticeModel,
                             _real_form_permutation, build_hamiltonian,
                             decay_fit, disorder_constancy, gap_projection,
                             lattice_flux_unitary, lattice_index,
                             plaquette_phase, wedge_experiment)
from fluxlab.projpair import HermitianProjection, UnitaryMatrix

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


def _complex_oracle(H, fermi):
    # the complex eigh route: eigenvectors of H itself, P = V V*, symmetrized
    evals, vecs = np.linalg.eigh(H)
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


@pytest.mark.parametrize("model", [
    bench(24), bench(32), bench(40),
    MagneticLatticeModel(24, 24, FLUX, domain_mask=_mask(slice(3, None), slice(None))),
    MagneticLatticeModel(24, 24, FLUX, domain_mask=_mask(slice(12, None), slice(12, None))),
    MagneticLatticeModel(24, 24, 0.0),
    MagneticLatticeModel(24, 24, FLUX, potential=_y_symmetric_potential(24, 24, 5)),
], ids=["L24", "L32", "L40", "half-plane", "quarter-wedge", "flux-zero",
        "y-symmetric-potential"])
def test_real_form_matches_complex_oracle(model, caplog):
    H = build_hamiltonian(model)
    with caplog.at_level("DEBUG", logger="fluxlab.lattice"):
        gp = gap_projection(H, FERMI)
    assert gp.real_form
    assert f"real-form eigh, N = {H.shape[0]}" in caplog.text
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
    assert gp.real_form
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
        H = build_hamiltonian(bench(), gauge="symmetric")
    assert _real_form_permutation(H) is None
    with caplog.at_level("DEBUG", logger="fluxlab.lattice"):
        gp = gap_projection(H, FERMI)
    assert not gp.real_form
    assert f"complex eigh, N = {H.shape[0]}" in caplog.text
    P, gap = _complex_oracle(H, FERMI)
    assert np.array_equal(gp.projection.matrix, P)
    assert gp.gap_width == gap


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


def _per_bin_loop_fit(P, model, d_min):
    # one full scan of the distance matrix per bin, then the same line fit
    pos = np.array(model.sites(), dtype=float)
    D = np.sqrt(((pos[:, None, :] - pos[None, :, :]) ** 2).sum(-1))
    A = np.abs(P.matrix)
    xs, ys = [], []
    for b in np.arange(d_min, min(model.width, model.height) / 2.0 + 1.0):
        sel = (D >= b - 0.5) & (D < b + 0.5)
        if sel.any() and A[sel].max() > 1e-14:
            xs.append(b)
            ys.append(np.log(A[sel].max()))
    xs, ys = np.array(xs), np.array(ys)
    design = np.column_stack([xs, np.ones_like(xs)])
    coef = np.linalg.lstsq(design, ys, rcond=None)[0]
    resid = ys - design @ coef
    return float(coef[0]), 1.0 - float((resid ** 2).sum()) / float(((ys - ys.mean()) ** 2).sum())


@pytest.mark.parametrize("d_min", [3.0, 2.5, 3.3, 0.0])
def test_decay_fit_bins_match_per_bin_loop(lattice_benchmark, d_min):
    model, _, gp, _ = lattice_benchmark
    assert decay_fit(gp, model, d_min=d_min) == _per_bin_loop_fit(gp.projection, model, d_min)


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
