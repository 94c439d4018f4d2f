"""Magnetic tight-binding models, gap projections, windowed lattice index."""

import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fluxlab import lattice
from fluxlab.lattice import (DisorderEnsemble, MagneticLatticeModel,
                             _basis_operator, _decoupled_frame, _dense_projection,
                             _eigenbasis, _factored_index, _from_real_form,
                             _mode_slices, _outer_projection, _real_form_permutation,
                             _rotation_permutation,
                             build_hamiltonian,
                             decay_fit, disorder_constancy, gap_projection,
                             lattice_flux_unitary, lattice_index,
                             wedge_experiment)
from fluxlab import projpair
from fluxlab.projpair import HermitianProjection, UnitaryMatrix, conjugated

FLUX = 1.0 / 3.0
FERMI = -1.29


def bench(size=24, flux=FLUX):
    return MagneticLatticeModel(size, size, flux)


def plaquette_phase(model, H, x, y):
    # the oracle of the field: the product of the four bond terms around the
    # plaquette at (x, y), normalized by the hopping magnitude, equals
    # exp(2 pi i flux) for an interior plaquette
    index = model.site_index()
    loop = [(x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1)]
    # a corner off the box counts as off the domain; a negative one must not wrap
    ids = [index[s] if 0 <= s[0] < model.width and 0 <= s[1] < model.height else -1
           for s in loop]
    if min(ids) < 0:
        raise ValueError(f"plaquette at ({x}, {y}) is not fully inside the domain")
    prod = 1.0 + 0.0j
    for a, b in zip(ids, ids[1:] + ids[:1]):
        prod *= -H[a, b]
    return complex(prod)


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


@pytest.mark.parametrize("potential", [
    0.05j * np.ones((24, 24)),
    np.where(np.eye(24, dtype=bool), np.nan, 0.0),
    np.full((24, 24), -np.inf),
], ids=["complex", "nan", "inf"])
def test_model_refuses_a_potential_that_is_not_real_and_finite(potential):
    # a complex potential gave a non-Hermitian H and an index of -0.976; a
    # NaN one was refused only as a closed gap, an inf one after a warning
    with pytest.raises(ValueError, match="potential must be real and finite"):
        MagneticLatticeModel(24, 24, 1.0 / 3.0, potential=potential)


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


def _loop_hamiltonian(model, gauge):
    # the per-site loop the bond table replaced: one scalar phase per bond,
    # the symmetric gauge centred on the active sites' bounding box
    flux = float(model.flux_per_plaquette)
    mask, pot = model.domain_mask, model.potential
    sites = [(x, y) for x in range(model.width) for y in range(model.height)
             if mask is None or mask[x, y]]
    idx = {s: i for i, s in enumerate(sites)}
    xs, ys = [s[0] for s in sites], [s[1] for s in sites]
    cx, cy = 0.5 * (min(xs) + max(xs)), 0.5 * (min(ys) + max(ys))
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
                    phase = np.exp(1j * np.pi * flux * (x - cx))
                else:
                    phase = np.exp(-1j * np.pi * flux * (y - cy))
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
    i, j, phase = model.bonds("landau")
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


def test_gap_projection_refuses_gapless():
    H = build_hamiltonian(MagneticLatticeModel(24, 24, 0.0))
    with pytest.raises(ValueError, match="no spectral gap"):
        gap_projection(H, 0.0)


def test_gap_projection_min_gap_threshold():
    H = build_hamiltonian(bench(12))
    with pytest.raises(ValueError, match="no spectral gap"):
        gap_projection(H, FERMI, min_gap=10.0)


def test_gap_projection_refuses_nan_fermi():
    # a NaN distance compares False with min_gap: the rank-0 P it let
    # through read as a passing index of 0
    H = build_hamiltonian(bench(12))
    with pytest.raises(ValueError, match="no spectral gap at fermi energy nan"):
        gap_projection(H, float("nan"))


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


def _c4_potential(size, seed, amplitude=0.1):
    # invariant under the 90-degree rotation bit for bit (one quadrant, copied
    # by the rotations), not under the diagonal reflection
    a = np.zeros((size, size))
    a[:size // 2, :size // 2] = np.random.default_rng(seed).uniform(
        -amplitude, amplitude, (size // 2, size // 2))
    return a + np.rot90(a) + np.rot90(a, 2) + np.rot90(a, 3)


def _route_line(gp, n):
    # the DEBUG line gap_projection logs for the route it took
    line = f"{'real-form' if gp.real_form else 'complex'} eigh, N = {n}"
    return f"4 rotation blocks of {n // 4}, {line}" if gp.modes == 4 else line


# the square, even-sided boxes with a complex H keep their rotation exactly
# and take the four mode blocks, each in real form; a box whose blocks break
# the diagonal reflection takes the complex eigh, the others keep the real form
@pytest.mark.parametrize("model, modes, real_form", [
    (bench(24), 4, True), (bench(32), 4, True), (bench(40), 4, True),
    (MagneticLatticeModel(24, 24, FLUX, domain_mask=_mask(slice(3, None), slice(None))),
     1, True),
    (MagneticLatticeModel(24, 24, FLUX, domain_mask=_mask(slice(12, None), slice(12, None))),
     4, True),
    (MagneticLatticeModel(24, 24, 0.0), 1, True),
    (MagneticLatticeModel(24, 24, FLUX, potential=_y_symmetric_potential(24, 24, 5)),
     1, True),
    (MagneticLatticeModel(24, 24, FLUX, potential=_c4_potential(24, 5)), 1, False),
    (MagneticLatticeModel(24, 20, FLUX), 1, True),
    (bench(23), 1, True),
], ids=["L24", "L32", "L40", "half-plane", "quarter-wedge", "flux-zero",
        "y-symmetric-potential", "c4-potential", "rectangle", "odd-side"])
def test_real_form_matches_complex_oracle(model, modes, real_form, caplog):
    H = build_hamiltonian(model)
    with caplog.at_level("DEBUG", logger="fluxlab.lattice"):
        gp = gap_projection(H, FERMI)
    assert (gp.modes, gp.real_form) == (modes, real_form)
    assert _route_line(gp, H.shape[0]) in caplog.text
    # the c4 potential, the one box here that keeps the rotation and breaks
    # the diagonal reflection, is the one that takes the complex eigh
    assert ("rotation blocks break the diagonal reflection" in caplog.text) == (
        not real_form)
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
        # a rectangle, which has no rotation; its potential ramps along y,
        # which the reflection of each column does not keep
        ramp = np.outer(np.ones(24), 1e-3 * np.arange(20))
        H = build_hamiltonian(MagneticLatticeModel(24, 20, FLUX, potential=ramp),
                              gauge="symmetric")
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
    # the symmetric gauge centred on the box, which keeps the rotation and the
    # diagonal reflection exactly; a real H (flux 0) keeps the real form,
    # whose P is exactly real
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
    # the Landau box keeps its rotation only up to a gauge, and takes the
    # dense real form
    assert gp.modes == (4 if H.imag.any() and gauge_name == "symmetric" else 1)
    assert gp.real_form
    assert np.max(np.abs(gp.projection.matrix - P)) <= 1e-12
    assert abs(gp.gap_width - gap) <= 1e-12
    assert gp.projection.rank() == rank


def _bond_entries(size, flux):
    # H's off-diagonal entries as build_hamiltonian scatters them from the
    # bond table, sorted by their key row * N + column: no N x N matrix
    i, j, phase = MagneticLatticeModel(size, size, flux).bonds()
    rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
    vals = np.concatenate([-phase, -np.conj(phase)])
    key = rows * size * size + cols
    order = np.argsort(key)
    return rows, cols, vals, key[order], vals[order]


@settings(max_examples=25, deadline=None)
@given(half=st.integers(1, 32),
       flux=st.one_of(st.builds(lambda p, q: (p % q) / q,
                                st.integers(0, 12), st.integers(1, 13)),
                      st.floats(0.0, 1.0, exclude_max=True)))
def test_centred_gauge_keeps_rotation_and_reflection_bit_for_bit(half, flux):
    # H[p][:, p] == H and H[t][:, t] == conj(H), compared on H's nonzero
    # entries as gap_projection compares them, on boxes up to 64 x 64
    size = 2 * half
    n = size * size
    rows, cols, vals, key, sorted_vals = _bond_entries(size, flux)
    x, y = np.divmod(np.arange(n), size)
    for perm, image in (((size - 1 - y) * size + x, vals), (y * size + x, np.conj(vals))):
        mapped = perm[rows] * n + perm[cols]
        at = np.minimum(np.searchsorted(key, mapped), len(key) - 1)
        assert np.array_equal(key[at], mapped)
        assert np.array_equal(sorted_vals[at], image)
        if flux:
            # bit for bit too; at flux 0 conjugation flips the sign of a zero
            # imaginary part
            assert np.array_equal(sorted_vals[at].view(np.uint64), image.view(np.uint64))


def test_block_route_at_56_matches_the_dense_real_form():
    # the largest box the suite runs; in the Landau gauge its rotation held
    # only up to rounding, and it took the dense real form
    H = build_hamiltonian(bench(56))
    gp = gap_projection(H, FERMI)
    assert (gp.modes, gp.real_form) == (4, True)
    r = _real_form_permutation(H)
    evals, X = np.linalg.eigh(H.real - H.imag[:, r])
    del H
    gap = float(np.min(np.abs(evals - FERMI)))
    dense = _dense_projection(X[:, evals < FERMI], r)
    del X
    assert abs(gp.gap_width - gap) <= 1e-12
    # node block by node block: node (i, a) sits at site sites[4 i + a]
    sites, D = gp.projection.sites, dense.matrix
    nodal = projpair.nodal_blocks(gp.projection.blocks)
    for a in range(4):
        for t in range(4):
            site_block = D[np.ix_(sites[a::4], sites[(a + t) % 4::4])]
            assert np.max(np.abs(nodal[t] - site_block)) <= 1e-12


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
    lambda: build_hamiltonian(MagneticLatticeModel(24, 20, FLUX), gauge="landau"),
    lambda: build_hamiltonian(MagneticLatticeModel(
        24, 24, FLUX, domain_mask=_mask(slice(3, None), slice(None)))),
    lambda: build_hamiltonian(bench()) + np.diag(
        np.random.default_rng(3).uniform(-0.01, 0.01, 576)),
    lambda: build_hamiltonian(MagneticLatticeModel(
        24, 24, FLUX, potential=_y_symmetric_potential(24, 24, 5))),
    _rotated_bond_perturbed,
    lambda: build_hamiltonian(MagneticLatticeModel(24, 20, FLUX), gauge="symmetric"),
    lambda: build_hamiltonian(bench(), gauge="landau"),
], ids=["odd-side", "rectangle", "half-plane", "disorder", "y-symmetric-potential",
        "perturbed-bond", "symmetric-rectangle", "landau-box"])
def test_fallback_routes_are_bitwise_the_dense_ones(build):
    H = build()
    gp = gap_projection(H, FERMI)
    assert gp.modes == 1
    P, gap = _dense_route(H, FERMI)
    assert np.array_equal(gp.projection.matrix, P)
    assert gp.gap_width == gap


@pytest.mark.parametrize("gap", [1e-2, 3e-3, 1e-5, 1e-8])
def test_block_route_keeps_its_drift_bound_at_small_gaps(gap):
    # the rotation and the reflection hold exactly, so the blocks' P is H's
    # own projection at every distance of the Fermi energy from the spectrum:
    # the blocks are kept, within 1e-12 of the complex oracle
    H = build_hamiltonian(bench(24))
    evals, vecs = np.linalg.eigh(H)
    k = int(np.argmax(np.diff(evals)))
    fermi = evals[k] + gap
    gp = gap_projection(H, fermi)
    assert gp.modes == 4
    P, oracle_gap = _complex_oracle(H, fermi, (evals, vecs))
    assert np.max(np.abs(gp.projection.matrix - P)) <= 1e-12
    assert abs(gp.gap_width - oracle_gap) <= 1e-12


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
        # the dense routes record 0.0: their P is Hermitian bit for bit
        assert np.array_equal(P.matrix, P.matrix.conj().T)
        assert P.hermitian_residual == measured.hermitian_residual
    assert measured.idempotency_residual <= P.idempotency_residual <= 1e-10


def test_rotation_rejects_a_real_or_broken_box():
    assert _rotation_permutation(build_hamiltonian(MagneticLatticeModel(24, 24, 0.0))) is None
    assert _rotation_permutation(build_hamiltonian(bench(23))) is None
    assert _rotation_permutation(_rotated_bond_perturbed()) is None
    # the Landau box keeps its rotation only up to a gauge
    assert _rotation_permutation(build_hamiltonian(bench(12), gauge="landau")) is None
    # a potential that the rotation keeps and the diagonal reflection does not
    assert _rotation_permutation(build_hamiltonian(MagneticLatticeModel(
        24, 24, FLUX, potential=_c4_potential(24, 5)))) is None
    assert _rotation_permutation(build_hamiltonian(bench(12))) is not None
    # so does a box with a missing bond
    H = build_hamiltonian(bench(12))
    H[5, 6] = H[6, 5] = 0.0
    assert _rotation_permutation(H) is None


def test_rotation_check_reads_the_bond_pattern():
    # an entry off the nearest-neighbour pattern fails the nonzero count, even
    # a next-nearest hopping that the rotation and the reflection both keep;
    # such an H takes a dense route, which still gives its projection
    H = build_hamiltonian(bench(12))
    H[0, 50] = H[50, 0] = 0.1
    assert _rotation_permutation(H) is None
    H = build_hamiltonian(bench(12))
    site = np.arange(144).reshape(12, 12)
    for i, j in ((site[:-1, :-1], site[1:, 1:]), (site[1:, :-1], site[:-1, 1:])):
        H[i, j] = H[j, i] = -0.1
    assert _rotation_permutation(H) is None
    gp = gap_projection(H, FERMI)
    assert gp.modes == 1
    assert np.max(np.abs(gp.projection.matrix - _complex_oracle(H, FERMI)[0])) <= 1e-12


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
    # forming M densely at 78.1 MiB over the two index calls; keeping R and
    # the residual's transform beside its input at 36.0 MiB; measuring the
    # residual on the nodes, a quarter of the transform at a time, at
    # 26.3 MiB (21.2 MiB now, read on the real form)
    model = bench(40)
    H = build_hamiltonian(model)
    gp, peak = _peak(lambda: gap_projection(H, FERMI))
    assert gp.modes == 4 and gp.projection.blocks.shape == (4, 400, 400)
    assert peak <= 23 * 2**20
    U = lattice_flux_unitary(model, (19.5, 19.5))
    _, peak = _peak(lambda: [lattice_index(gp, U, n=n) for n in (1, 2)])
    assert peak <= 48 * 2**20
    P = gp.projection
    assert P.dim == 1600 and P.rank() > 0
    decay_fit(gp, model)
    assert "matrix" not in vars(P)  # the dense P was never built


def test_site_map_is_part_of_the_projection():
    gp = gap_projection(build_hamiltonian(bench(12)), FERMI)
    P = gp.projection
    assert P.sites is not None and sorted(P.sites) == list(range(144))
    elsewhere = HermitianProjection(
        P.blocks, P.idempotency_tol, P.hermitian_residual, P.idempotency_residual,
        P.sites[::-1])
    bare = HermitianProjection(P.blocks, P.idempotency_tol)
    for other in (elsewhere, bare):
        assert (P == other) is False and (P != other) is True
    back = pickle.loads(pickle.dumps(P))
    assert (back == P) is True
    assert np.array_equal(back.matrix, P.matrix)
    assert (gp == gap_projection(build_hamiltonian(bench(12)), FERMI)) is True
    assert (gp == gap_projection(build_hamiltonian(bench(12)), -1.2)) is False


def test_site_mapped_pair_pickles_without_its_matrix():
    model = bench(12)
    P = gap_projection(build_hamiltonian(model), FERMI).projection
    Q = conjugated(P, lattice_flux_unitary(model, (5.5, 5.5)))[1]
    assert Q.blocks.shape == (4, 36, 36) and Q.same_sites(P)
    dense = (P.matrix, Q.matrix)  # build and cache both site-ordered matrices
    for X, M in zip(pickle.loads(pickle.dumps((P, Q))), dense):
        assert "matrix" not in vars(X)
        assert X.sites is not None and X.same_sites(P)
        assert np.array_equal(X.matrix, M)


def test_flux_unitary_rejects_site_center():
    model = bench(8)
    with pytest.raises(ValueError, match="half a lattice constant"):
        lattice_flux_unitary(model, (3.0, 5.0))


# each gave a RuntimeWarning and then "matrix is not unitary: max |UU* - 1|
# = nan" before it was refused
@pytest.mark.parametrize("center", [(float("nan"), 3.5), (3.5, float("inf"))],
                         ids=["nan", "inf"])
def test_flux_unitary_rejects_a_non_finite_center(center):
    with pytest.raises(ValueError, match=re.escape(f"flux center {center} is not finite")):
        lattice_flux_unitary(bench(8), center)


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
    r = np.hypot(*(U.site_array - U.center).T)
    return complex(np.sum(_dense_diagonal(P, U, n)[r <= window_radius]))


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


def _dense_difference(P, U):
    # the site-ordered M = P - UPU*, formed densely
    D = np.diag(U.diagonal)
    return P.matrix - D @ P.matrix @ D.conj().T


def _dense_diagonal(P, U, n):
    # the diagonal of the full power (P - UPU*)^(2n+1), for several windows
    M = _dense_difference(P, U)
    return np.einsum("ij,ji->i", np.linalg.matrix_power(M, 2 * n), M)


@pytest.fixture(scope="module")
def window_boxes():
    # one box at a time, shared across n: its projection, flux unitary,
    # dense M = P - UPU* and M^2, and the last even power M^(2n) built
    boxes = {}
    yield boxes
    boxes.clear()


def _box_diagonal(boxes, size, gauge_name, n):
    # the box's projection and flux unitary, and the diagonal of the full
    # power M^(2n+1), with M^(2n) = M^(2n-2) M^2 built from the last one
    key = (size, gauge_name)
    if key not in boxes:
        boxes.clear()
        model = bench(size)
        gp = gap_projection(build_hamiltonian(model, gauge=gauge_name), FERMI)
        U = lattice_flux_unitary(model, (size / 2 - 0.5,) * 2)
        M = _dense_difference(gp.projection, U)
        boxes[key] = {"gp": gp, "U": U, "M": M, "M2": M @ M, "n": 0}
    box = boxes[key]
    if box["n"] > n:
        box["n"] = 0
    while box["n"] < n:
        box["power"] = box["M2"] if box["n"] == 0 else box["power"] @ box["M2"]
        box["n"] += 1
    return box["gp"], box["U"], np.einsum("ij,ji->i", box["power"], box["M"])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("size, gauge_name", [
    (24, "landau"), (32, "landau"), (40, "landau"),
    (24, "symmetric"), (32, "symmetric"), (40, "symmetric"),
], ids=["L24", "L32", "L40", "S24", "S32", "S40"])
def test_block_window_trace_matches_dense_oracle(size, gauge_name, n, window_boxes, caplog):
    # the symmetric box sums the window on its rotation blocks; the Landau
    # box, whose rotation holds only up to a gauge, takes the dense real form
    # and sums it on the dense matrix
    gp, U, diag = _box_diagonal(window_boxes, size, gauge_name, n)
    assert gp.modes == (4 if gauge_name == "symmetric" else 1)
    route = (f"on 4 rotation blocks of {size * size // 4}" if gp.modes == 4
             else f"dense, N = {size * size}")
    r = np.hypot(*(U.site_array - U.center).T)
    for window_radius in (6.0, 1e6):
        with caplog.at_level("DEBUG", logger="fluxlab.lattice"):
            rep = lattice_index(gp, U, n=n, window_radius=window_radius)
        assert f"window trace {route}" in caplog.text
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
    assert conjugated(gp.projection, U)[1].blocks.shape[0] == 4
    radius = float(np.hypot(17 - U.center[0], 11 - U.center[1]))
    with caplog.at_level("DEBUG", logger="fluxlab.lattice"):
        rep = lattice_index(gp, U, window_radius=radius)
    assert "window trace dense, N = 576" in caplog.text
    assert abs(rep.value - _dense_window_sum(gp.projection, U, 1, radius).real) <= 1e-12


def _site_window_rows(P, U, n, window_radius=6.0):
    # the window rows of the site-ordered M = P - UPU*, as the dense path forms them
    M = P.matrix - conjugated(P, U)[1].matrix
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


@pytest.mark.parametrize("n", [1, 2])
def test_off_centre_flux_builds_the_node_matrix_once(monkeypatch, n):
    # the rotation blocks of P are assembled into the node matrix once per
    # call, for lattice_index and for a Fedosov trace with the same diagonal,
    # and the values are those of the node matrix built per use
    gp, U = _pipeline(bench(), (12.5, 11.5))
    P = gp.projection
    assert P.blocks.shape == (4, 144, 144)
    nodal_matrix = projpair.nodal_matrix
    Q = conjugated(P, U)[1]
    M = nodal_matrix(P.blocks) - nodal_matrix(Q.blocks)
    Y = M[(np.hypot(*(U.site_array - U.center).T) <= 6.0)[P.sites]]
    for _ in range(n - 1):
        Y = Y @ M
    want = complex(np.vdot(Y, Y @ M))
    D = UnitaryMatrix(U.diagonal)
    p, upu, u_pu = (nodal_matrix(P.blocks)[None], Q.blocks,
                    conjugated(P, UnitaryMatrix(U.diagonal.conj()))[1].blocks)
    X, Z = p - p @ upu @ p, p - p @ u_pu @ p
    fedosov = complex(np.trace(np.linalg.matrix_power(X[0], n + 1))
                      - np.trace(np.linalg.matrix_power(Z[0], n + 1)))
    builds = []

    def counting(blocks):
        builds.extend([blocks.shape] if len(blocks) > 1 else [])
        return nodal_matrix(blocks)
    monkeypatch.setattr(projpair, "nodal_matrix", counting)
    rep = lattice_index(gp, U, n=n)
    assert builds == [(4, 144, 144)]
    assert rep.value == want.real and rep.imag_part == abs(want.imag)
    builds.clear()
    assert abs(projpair.index_by_fedosov(P, D, n=n).value - fedosov.real) <= 1e-12
    assert builds == [(4, 144, 144)]


def test_lattice_index_requires_geometry(lattice_benchmark):
    _, _, gp, _ = lattice_benchmark
    bare = UnitaryMatrix(np.eye(gp.projection.dim, dtype=complex))
    with pytest.raises(ValueError, match="site geometry"):
        lattice_index(gp, bare)


@pytest.mark.parametrize("center", [(11.5, 11.5), (12.5, 11.5)], ids=["centre", "off-centre"])
def test_fedosov_takes_the_lattice_flux_unitary(lattice_benchmark, center):
    # the lattice flux unitary is a diagonal UnitaryMatrix with no square array
    model, _, gp, _ = lattice_benchmark
    U = lattice_flux_unitary(model, center)
    assert U.matrix is None and U.dim == 576
    got = projpair.index_by_fedosov(gp.projection, U)
    want = projpair.index_by_fedosov(gp.projection, UnitaryMatrix(np.diag(U.diagonal)))
    assert got.value == want.value and got.imag_part == want.imag_part


def test_lattice_index_rejects_nonpositive_power(lattice_benchmark):
    _, _, gp, U = lattice_benchmark
    with pytest.raises(ValueError, match="trace power"):
        lattice_index(gp, U, n=0)


# each of these read as an index of 0.0 with residual 0.0 on the 24 x 24 box
# before it was refused; at radius 0.5 the nearest site lies 0.71 away
@pytest.mark.parametrize("radius, match", [
    (float("nan"), "positive and finite, got nan"),
    (-1.0, "positive and finite, got -1.0"),
    (0.0, "positive and finite, got 0.0"),
    (float("inf"), "positive and finite, got inf"),
    (0.5, r"radius 0.5 about the flux center \(11.5, 11.5\) holds no site"),
], ids=["nan", "negative", "zero", "infinite", "between-sites"])
def test_lattice_index_refuses_an_invalid_or_empty_window(lattice_benchmark, radius, match):
    model, _, gp, U = lattice_benchmark
    with pytest.raises(ValueError, match=match):
        lattice_index(gp, U, window_radius=radius)
    # the index a certified disorder draw reads from its frame shares the
    # check; here the frame of the clean box, a draw of zero
    lam, X, r, sites = _eigenbasis(build_hamiltonian(model))
    basis = (lam, _from_real_form(X, r), sites)
    occupied = lam < FERMI
    V, G, *_ = _decoupled_frame(basis, occupied, np.zeros(occupied.size), gp.gap_width)
    with pytest.raises(ValueError, match=match):
        _factored_index(V, G, U, window_radius=radius)


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
    for bad in ("nan", "inf"):
        with pytest.raises(ValueError, match=f"amplitude must be finite and "
                                             f"nonnegative, got {bad}"):
            DisorderEnsemble(base_model=model, amplitude=float(bad), seeds=[0])
    with pytest.raises(TypeError, match="distribution"):
        DisorderEnsemble(base_model=model, amplitude=0.1, seeds=[0],
                         distribution="levy")


def _count_eigh(monkeypatch):
    # the shapes of the matrices each np.linalg.eigh call receives
    calls, eigh = [], np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


@pytest.mark.parametrize("model, gauge_name, route", [
    (bench(24), "symmetric", (4, True, (4, 144, 144))),
    (bench(24), "landau", (1, True, (1, 576, 576))),
    (MagneticLatticeModel(24, 24, FLUX, potential=_c4_potential(24, 5)), "symmetric",
     (1, False, (1, 576, 576))),
], ids=["blocks", "real-form", "complex"])
def test_gap_projection_runs_one_eigh(monkeypatch, model, gauge_name, route):
    H = build_hamiltonian(model, gauge=gauge_name)
    calls = _count_eigh(monkeypatch)
    gp = gap_projection(H, FERMI)
    assert (gp.modes, gp.real_form, *calls) == route


def test_certified_disorder_runs_one_eigh(monkeypatch, lattice_benchmark):
    # the clean box's, once per call; every draw is decoupled without one
    model, _, gp, U = lattice_benchmark
    ens = DisorderEnsemble(base_model=model, amplitude=0.2 * gp.gap_width, seeds=[0, 1, 2])
    calls = _count_eigh(monkeypatch)
    assert len(disorder_constancy(ens, FERMI, U)) == 3
    assert calls == [(4, 144, 144)]


@pytest.mark.parametrize("model, gauge_name", [
    (bench(24), "symmetric"), (bench(24), "landau"),
    (MagneticLatticeModel(24, 24, FLUX, potential=_c4_potential(24, 5)), "symmetric"),
], ids=["blocks", "real-form", "complex"])
def test_eigenbasis_diagonalizes_on_every_route(model, gauge_name):
    H = build_hamiltonian(model, gauge=gauge_name)
    lam, X, r, sites = _eigenbasis(H)
    C = _from_real_form(X, r)
    assert np.all(np.diff(lam, axis=1) >= 0.0)
    order = np.argsort(lam, axis=None, kind="stable")
    Q = _site_basis(C, sites, order)
    lam = lam.ravel()[order]
    assert np.max(np.abs(H @ Q - Q * lam)) <= 1e-13
    assert np.max(np.abs(Q.conj().T @ Q - np.eye(len(lam)))) <= 1e-13


def _site_basis(C, sites, order):
    # the dense, site-ordered clean eigenbasis, assembled from the mode
    # blocks as the oracle of the block-assembled A: column c is eigenvector
    # order[c] = q n + j of the stack, column j of C_q times the character of
    # mode q, i^(q a) / 2 on the four rotation blocks and 1 on one block
    k, n, _ = C.shape
    cols = C.transpose(0, 2, 1).reshape(k * n, n)[order]
    chars = np.array([1.0, 1j, -1.0, -1j])[(np.outer(range(k), range(k)) * 4 // k) % 4]
    chars /= np.sqrt(k)
    Q = np.empty((k * n, k * n), dtype=complex)
    Q[sites] = (cols[:, :, None] * chars[order // n][:, None, :]).reshape(k * n, k * n).T
    return Q


@pytest.mark.parametrize("model, gauge_name, modes", [
    (bench(24), "symmetric", 4), (bench(24), "landau", 1),
    (MagneticLatticeModel(24, 24, FLUX, potential=_c4_potential(24, 5)), "symmetric", 1),
], ids=["blocks", "real-form", "complex"])
def test_block_assembled_operator_matches_the_dense_product(model, gauge_name, modes):
    # A = Q* diag(d) Q from the mode blocks against the dense product on the
    # site-ordered Q, in the occupied-first, mode-major order
    lam, X, r, sites = _eigenbasis(build_hamiltonian(model, gauge=gauge_name))
    C = _from_real_form(X, r)
    assert len(C) == modes
    occupied = lam < FERMI
    Q = _site_basis(C, sites, np.argsort(~occupied, axis=None, kind="stable"))
    d = np.random.default_rng(5).uniform(-0.05, 0.05, lam.size)
    A = _basis_operator(C, sites, _mode_slices(occupied), d)
    assert np.max(np.abs(A - Q.conj().T @ (d[:, None] * Q))) <= 1e-15


# the clean eigenbasis from the blocks (24 and 32, symmetric gauge), from the
# dense real form (the Landau-gauge box) and from a masked box, each at
# max|d| of 0, 0.2 and 0.45 of the clean gap
@pytest.mark.parametrize("model, gauge_name, center", [
    (bench(24), "symmetric", (11.5, 11.5)),
    (bench(24), "landau", (11.5, 11.5)),
    (bench(32), "symmetric", (15.5, 15.5)),
    (MagneticLatticeModel(24, 24, FLUX, domain_mask=_mask(slice(3, None), slice(None))),
     "symmetric", (13.5, 11.5)),
], ids=["L24", "L24-landau", "L32", "half-plane"])
def test_decoupled_projection_matches_eigh_oracle(model, gauge_name, center):
    H0 = build_hamiltonian(model, gauge=gauge_name)
    lam, X, r, sites = _eigenbasis(H0)
    basis = (lam, _from_real_form(X, r), sites)
    gap = float(np.min(np.abs(lam - FERMI)))
    occupied = lam < FERMI
    m = int(np.count_nonzero(occupied))
    U = lattice_flux_unitary(model, center)
    shape = np.random.default_rng(11).uniform(-1.0, 1.0, lam.size)
    for frac in (0.0, 0.2, 0.45):
        d = frac * gap * shape / np.max(np.abs(shape))
        V, G, sweeps, residual, _, _ = _decoupled_frame(basis, occupied, d, gap)
        assert 1 <= sweeps <= lattice._RICCATI_SWEEPS
        assert residual <= lattice._RICCATI_TOL * gap
        P = _outer_projection(V, float(np.linalg.norm(G - np.eye(m))))
        oracle = gap_projection(H0 + np.diag(d), FERMI).projection
        assert np.max(np.abs(P.matrix - oracle.matrix)) <= 1e-12
        assert P.rank() == oracle.rank() == m
        index = lattice_index(P, U).value
        assert abs(index - lattice_index(oracle, U).value) <= 1e-12
        # the trace read from the factor, with no N x N P
        factored = _factored_index(V, G, U, 6.0)
        assert abs(factored.value - index) <= 1e-14
        assert factored.trace_power == 3
    # the carried residual bounds the measured one, here on the strongest draw
    measured = HermitianProjection(P.matrix, idempotency_tol=1e-8)
    assert measured.idempotency_residual <= P.idempotency_residual <= 1e-10


_ROUTE = re.compile(r"seed (\d+), (Riccati decoupling|eigh), Weyl margin (\S+) "
                    r"of gap (\S+), (\d+) Riccati sweeps, residual (\S+), "
                    r"A from (\d+) of (\d+) blocks in (\S+) s, sweeps (\S+) s, "
                    r"index (\S+) s")


def _disorder_routes(caplog, ens, U):
    with caplog.at_level("DEBUG", logger="fluxlab.lattice"):
        reports = disorder_constancy(ens, FERMI, U)
    return reports, [m.groups() for m in _ROUTE.finditer(caplog.text)]


def _eigh_route(ens, U):
    # the route of every draw before the Riccati sweep: one gap_projection each
    H0 = build_hamiltonian(ens.base_model)
    reports = []
    for seed in ens.seeds:
        d = (np.random.default_rng(seed).random(H0.shape[0]) - 0.5) * 2.0 * ens.amplitude
        reports.append(lattice_index(gap_projection(H0 + np.diag(d), FERMI), U))
    return reports


def test_disorder_route_line_gives_the_weyl_margin(lattice_benchmark, caplog):
    model, _, gp, U = lattice_benchmark
    ens = DisorderEnsemble(base_model=model, amplitude=0.2 * gp.gap_width, seeds=[3])
    reports, routes = _disorder_routes(caplog, ens, U)
    [(seed, route, margin, gap, sweeps, residual, *stages)] = routes
    assert (seed, route) == ("3", "Riccati decoupling")
    # ten blocks q <= q' of the sixteen, and the seconds of each stage
    assert stages[:2] == ["10", "16"]
    assert all(float(s) > 0.0 for s in stages[2:])
    d = (np.random.default_rng(3).random(576) - 0.5) * 2.0 * ens.amplitude
    assert float(margin) == pytest.approx(gp.gap_width - np.max(np.abs(d)), rel=1e-3)
    assert float(gap) == pytest.approx(gp.gap_width, rel=1e-3)
    assert 1 <= int(sweeps) <= lattice._RICCATI_SWEEPS
    assert float(residual) <= lattice._RICCATI_TOL * gp.gap_width
    assert abs(reports[0].value - _eigh_route(ens, U)[0].value) <= 1e-12


def test_disorder_past_the_margin_takes_the_eigh(lattice_benchmark, caplog):
    # max|d| above half the clean gap: Weyl no longer certifies the sweep
    model, _, gp, U = lattice_benchmark
    ens = DisorderEnsemble(base_model=model, amplitude=0.6 * gp.gap_width, seeds=[5])
    reports, routes = _disorder_routes(caplog, ens, U)
    assert [(r[1], r[4]) for r in routes] == [("eigh", "0")]
    assert float(routes[0][2]) < 0.5 * gp.gap_width
    # no A is formed and no sweep runs; the index stage is the eigh's
    assert routes[0][6:10] == ("0", "16", "0.00e+00", "0.00e+00")
    assert reports[0].value == _eigh_route(ens, U)[0].value


def test_disorder_past_the_sweep_cap_takes_the_eigh(lattice_benchmark, caplog, monkeypatch):
    model, _, gp, U = lattice_benchmark
    monkeypatch.setattr(lattice, "_RICCATI_SWEEPS", 1)
    ens = DisorderEnsemble(base_model=model, amplitude=0.2 * gp.gap_width, seeds=[5])
    reports, routes = _disorder_routes(caplog, ens, U)
    assert [(r[1], r[4]) for r in routes] == [("eigh", "1")]
    assert routes[0][6:8] == ("10", "16")
    assert float(routes[0][5]) > lattice._RICCATI_TOL * gp.gap_width
    assert reports[0].value == _eigh_route(ens, U)[0].value


def test_disorder_memory_peak(lattice_benchmark):
    # 11.6 MiB: one draw's A (5.1 MiB) beside the sweep's temporaries and
    # the clean mode blocks; the clean eigenbasis as one N x N Q, one draw's
    # P and the index's pair and difference peaked at 23 MiB, and keeping
    # the clean H through the draws and each complex eigh's P into the next
    # at 29 MiB
    model, _, gp, U = lattice_benchmark
    ens = DisorderEnsemble(base_model=model, amplitude=0.2 * gp.gap_width, seeds=[0, 1])
    _, peak = _peak(lambda: disorder_constancy(ens, FERMI, U))
    assert peak <= 12 * 2**20


# against the 40 x 40 model the 24 x 24 projection read (0.0069, 0.0021),
# and against the 20 x 20 one it raised IndexError
@pytest.mark.parametrize("size", [40, 20])
def test_decay_fit_refuses_a_projection_of_another_model(lattice_benchmark, size):
    _, _, gp, _ = lattice_benchmark
    with pytest.raises(ValueError, match=f"dimension 576 does not act on the {size * size} "):
        decay_fit(gp, bench(size))


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
    # the blocks' nodes are P's sites, so both read the same magnitudes
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
