"""Landau-level states, kernels, flux matrices, and truncated pairs."""

import math
import pickle

import numpy as np
import pytest

from fluxlab import gauge, projpair
from fluxlab.landau import (CovariantKernel, DiskGrid,
                            basis_wavefunction, flux_matrix, gram_matrix,
                            landau_kernel,
                            level_disk_grid, level_disk_radius, polar_disk_grid,
                            real_surrogate_kernel,
                            shift_index, truncated_projection_pair)


def test_wavefunction_values_at_origin():
    # the radial table collapses to (-1)^m / sqrt(pi) at the origin, a value
    # that pins down the normalization constant including its factorials
    for m in range(4):
        val = basis_wavefunction(m, m, 0j)
        assert val == pytest.approx((-1) ** m / math.sqrt(math.pi), abs=1e-12)
    assert basis_wavefunction(1, 0, 0j) == pytest.approx(0.0, abs=1e-15)


def test_wavefunction_accepts_planar_points():
    z = 0.4 - 0.9j
    pt = np.array([0.4, -0.9])
    assert basis_wavefunction(2, 1, z) == pytest.approx(
        basis_wavefunction(2, 1, pt))
    pts = np.array([[0.0, 0.0], [1.0, 2.0]])
    vals = basis_wavefunction(0, 0, pts)
    assert vals.shape == (2,)


def test_gram_identity_within_level():
    for m in (0, 1, 2):
        G = gram_matrix(m, m, 8)
        assert np.max(np.abs(G - np.eye(9))) <= 1e-8


def test_gram_orthogonality_across_levels():
    assert np.max(np.abs(gram_matrix(0, 1, 8))) <= 1e-8
    assert np.max(np.abs(gram_matrix(1, 2, 6))) <= 1e-8


def test_kernel_matches_basis_sum():
    rng = np.random.default_rng(9)
    X = rng.uniform(-2.5, 2.5, size=(6, 2))
    Y = rng.uniform(-2.5, 2.5, size=(6, 2))
    for m in (0, 1, 2):
        kern = landau_kernel(m)
        zx = X[:, 0] + 1j * X[:, 1]
        zy = Y[:, 0] + 1j * Y[:, 1]
        total = np.zeros(6, dtype=complex)
        for n in range(41):
            total += basis_wavefunction(n, m, zx) * np.conj(
                basis_wavefunction(n, m, zy))
        assert np.max(np.abs(kern(X, Y) - total)) <= 1e-10


def test_kernel_diagonal_and_hermiticity():
    rng = np.random.default_rng(10)
    X = rng.uniform(-3, 3, size=(8, 2))
    for m in (0, 1):
        kern = landau_kernel(m)
        assert np.allclose(kern(X, X), 1.0 / np.pi, atol=1e-12)
        Y = rng.uniform(-3, 3, size=(8, 2))
        assert np.max(np.abs(kern(X, Y) - np.conj(kern(Y, X)))) <= 1e-12


def test_kernel_magnitude_translation_invariant():
    kern = landau_kernel(1)
    d = np.array([0.8, -0.3])
    for shift in (np.array([0.0, 0.0]), np.array([2.0, 1.0]), np.array([-1.3, 0.4])):
        val = kern(shift, shift + d)
        ref = kern(np.zeros(2), d)
        assert abs(abs(val) - abs(ref)) <= 1e-12


def test_reproducing_property_on_disk():
    # integral of p(0, y) p(y, 0) over the truncation disk returns the
    # diagonal value up to the boundary defect
    grid = polar_disk_grid(8.0)
    kern = landau_kernel(0)
    zero = np.zeros((1, 2))
    row = kern.pair_matrix(zero, grid.nodes)[0]
    val = np.sum(grid.weights * row * kern.pair_matrix(grid.nodes, zero)[:, 0])
    assert val.real == pytest.approx(1.0 / np.pi, rel=1e-6)


def test_covariant_kernel_pair_matrix_shape():
    kern = landau_kernel(0)
    X = np.zeros((3, 2))
    Y = np.ones((5, 2))
    assert kern.pair_matrix(X, Y).shape == (3, 5)
    assert kern.level == 0


def test_real_surrogate_kernel_is_real_symmetric():
    kern = real_surrogate_kernel()
    rng = np.random.default_rng(11)
    X = rng.uniform(-2, 2, size=(5, 2))
    Y = rng.uniform(-2, 2, size=(5, 2))
    vals = kern(X, Y)
    assert np.max(np.abs(vals.imag)) == 0.0
    assert np.allclose(vals, kern(Y, X), atol=1e-14)
    assert kern(X, X) == pytest.approx([1.0 / np.pi] * 5)


def test_flux_matrix_pattern_and_first_entry():
    M = flux_matrix(0, 8)
    assert abs(M[0, 0]) <= 1e-8
    assert abs(M[3, 5]) <= 1e-8
    # independent 1D radial reduction gives sqrt(pi)/2 for the first
    # transition amplitude
    assert M[1, 0].real == pytest.approx(math.sqrt(math.pi) / 2, abs=1e-10)
    assert abs(M[1, 0].imag) <= 1e-10


@pytest.mark.parametrize("m", [0, 1, 2])
def test_flux_matrix_pattern_residual(m):
    M = flux_matrix(m, 20)
    pattern = np.eye(21, k=-1, dtype=bool)
    assert float(np.max(np.abs(np.where(pattern, 0.0, M)))) <= 1e-8
    assert np.all(np.abs(M[pattern]) <= 1.0 + 1e-12)
    assert shift_index(M) == -1


def test_flux_matrix_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        flux_matrix(-1, 5)


def test_shift_index_conventions():
    assert shift_index(np.eye(6, k=-1)) == -1
    assert shift_index(np.eye(7, k=2)) == 2
    assert shift_index(np.diag(np.ones(4))) == 0
    with pytest.raises(ValueError, match="not a shift matrix"):
        shift_index(np.ones((4, 4)))
    with pytest.raises(ValueError, match="ambiguous"):
        shift_index(np.zeros((5, 5)))
    with pytest.raises(ValueError, match="square"):
        shift_index(np.zeros((2, 3)))


def test_polar_disk_grid_measures_area():
    grid = polar_disk_grid(3.0, radial_nodes=20, angular_nodes=24)
    assert grid.weights.sum() == pytest.approx(np.pi * 9.0, rel=1e-12)
    assert np.max(np.hypot(grid.nodes[:, 0], grid.nodes[:, 1])) <= 3.0


def test_level_disk_grid_grows_with_level():
    base = level_disk_grid(0)
    ref = polar_disk_grid()
    assert base.radius == ref.radius == 8.0
    assert np.array_equal(base.nodes, ref.nodes)
    assert np.array_equal(base.weights, ref.weights)
    for m, radius, radial, angular in ((0, 8.0, 40, 72), (1, 11.0, 48, 90),
                                       (2, 14.0, 56, 108)):
        grid = level_disk_grid(m)
        assert grid.radius == level_disk_radius(m) == radius
        assert (grid.radial_nodes, grid.angular_nodes) == (radial, angular)
        assert grid.weights.size == radial * angular
    assert level_disk_grid(1, radius=9.0).radius == 9.0
    with pytest.raises(ValueError, match="nonnegative"):
        level_disk_grid(-1)


def test_truncated_pair_constant_gauge_is_identity(disk_grid):
    u0 = gauge.flux_unitary(0)
    P, Q = truncated_projection_pair(0, u0, disk_grid)
    assert np.array_equal(P.matrix, Q.matrix)


def test_truncated_pair_density(truncated_pair_m0, disk_grid):
    P, _ = truncated_pair_m0
    density = P.matrix.trace().real / (np.pi * disk_grid.radius ** 2)
    assert density == pytest.approx(1.0 / np.pi, rel=0.05)


def test_truncated_pair_odd_trace(truncated_pair_m0):
    P, Q = truncated_pair_m0
    rep = projpair.index_by_odd_trace(Q, P, n=1)
    assert rep.value == pytest.approx(-1.0, abs=1e-2)
    assert rep.imag_part <= 1e-10


def _without_layout(grid):
    # the same nodes and weights without a recorded layout: the dense engine
    return DiskGrid(nodes=grid.nodes, weights=grid.weights, radius=grid.radius)


def test_truncation_too_coarse_rejected():
    u = gauge.flux_unitary(1)
    tiny = polar_disk_grid(8.0, radial_nodes=4, angular_nodes=6)
    for grid in (tiny, _without_layout(tiny)):
        with pytest.raises(ValueError, match="truncation too coarse"):
            truncated_projection_pair(0, u, grid)


@pytest.mark.parametrize("angular", [24, 25])
@pytest.mark.parametrize("winding", [-1, 0, 1, 2])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_block_pair_matches_dense_oracle(m, winding, angular):
    grid = polar_disk_grid(4.0, radial_nodes=16, angular_nodes=angular)
    u = gauge.flux_unitary(winding)
    P, Q = truncated_projection_pair(m, u, grid)
    Pd, Qd = truncated_projection_pair(m, u, _without_layout(grid))
    assert P.blocks.shape == (angular, 16, 16)
    assert Pd.blocks.shape[0] == 1
    assert P.rank() == Pd.rank()
    for blk, dense in ((P, Pd), (Q, Qd)):
        assert abs(blk.idempotency_residual - dense.idempotency_residual) <= 1e-14
        assert np.max(np.abs(blk.matrix - dense.matrix)) <= 1e-14
    for n in range(3):
        want = projpair.index_by_odd_trace(Qd, Pd, n=n).value
        assert abs(projpair.index_by_odd_trace(Q, P, n=n).value - want) <= 1e-12
        # a block and a dense argument reduce densely
        assert abs(projpair.index_by_odd_trace(Q, Pd, n=n).value - want) <= 1e-12
    assert (projpair.index_by_spectral_count(Q, P).value
            == projpair.index_by_spectral_count(Qd, Pd).value)
    U = projpair.UnitaryMatrix(np.diag(u(grid.nodes)))
    for n in (1, 2):
        assert abs(projpair.index_by_fedosov(P, U, n=n).value
                   - projpair.index_by_fedosov(Pd, U, n=n).value) <= 1e-10


# odd traces and Fedosov value of the dense engine on the radius-4, 16 x 25
# disk, recorded before the block engine existed
SHIFTED_ODD = -0.9789267509342651
CENTRED_ODD = -0.9800756161585503
SHIFTED_FEDOSOV = 0.6595749795483694


def test_symmetry_breaking_inputs_take_dense_path():
    grid = polar_disk_grid(4.0, radial_nodes=16, angular_nodes=25)
    shifted = gauge.translate_unitary(gauge.flux_unitary(1), (0.5, -0.25))
    # P's layout follows the grid; the translated flux gives a dense Q
    P, Q = truncated_projection_pair(0, shifted, grid)
    assert P.blocks.shape == (25, 16, 16)
    assert Q.blocks.shape == (1, 400, 400)
    odd = projpair.index_by_odd_trace(Q, P).value
    assert odd == pytest.approx(SHIFTED_ODD, abs=1e-12)
    Pd, Qd = truncated_projection_pair(0, gauge.flux_unitary(1), _without_layout(grid))
    assert Pd.blocks.shape[0] == 1
    odd = projpair.index_by_odd_trace(Qd, Pd).value
    assert odd == pytest.approx(CENTRED_ODD, abs=1e-12)
    # a diagonal unitary that is no rotation character on the block layout
    Pb, _ = truncated_projection_pair(0, gauge.flux_unitary(1), grid)
    U = projpair.UnitaryMatrix(np.diag(shifted(grid.nodes)))
    fed = projpair.index_by_fedosov(Pb, U).value
    assert fed == pytest.approx(SHIFTED_FEDOSOV, abs=1e-10)


def test_block_pair_pickle_round_trip():
    grid = polar_disk_grid(4.0, radial_nodes=16, angular_nodes=25)
    P, Q = truncated_projection_pair(0, gauge.flux_unitary(1), grid)
    P.matrix  # the cached nodal matrix is not pickled
    P2, Q2 = pickle.loads(pickle.dumps((P, Q)))
    assert P2.blocks.shape == (25, 16, 16)
    assert P2._matrix is None
    assert P2 == P and P2 != Q  # compares blocks, builds no nodal matrix
    assert P2._matrix is None
    assert P2.idempotency_residual == P.idempotency_residual
    assert projpair.index_by_odd_trace(Q2, P2).value == pytest.approx(
        projpair.index_by_odd_trace(Q, P).value, abs=1e-14)


def test_recorded_layout_must_match_nodes():
    grid = polar_disk_grid(4.0, radial_nodes=8, angular_nodes=12)
    bad = DiskGrid(nodes=grid.nodes[::-1], weights=grid.weights, radius=grid.radius,
                   radial_nodes=8, angular_nodes=12)
    with pytest.raises(ValueError, match="polar layout"):
        truncated_projection_pair(0, gauge.flux_unitary(1), bad)
    # a layout whose node count differs from the grid's
    short = DiskGrid(nodes=grid.nodes[:-12], weights=grid.weights[:-12],
                     radius=grid.radius, radial_nodes=8, angular_nodes=12)
    with pytest.raises(ValueError, match="polar layout"):
        truncated_projection_pair(0, gauge.flux_unitary(1), short)


def test_fedosov_boundary_defect(truncated_pair_m0, grid_flux_unitary):
    # the compression picks up the truncation boundary: the trace difference
    # converges to 1 - 1/3 (n=1) and 1 - 16/105 (n=2) instead of the index,
    # with an O(1/R^2) finite-radius correction
    P, _ = truncated_pair_m0
    f1 = projpair.index_by_fedosov(P, grid_flux_unitary, n=1)
    f2 = projpair.index_by_fedosov(P, grid_flux_unitary, n=2)
    assert f1.value == pytest.approx(2.0 / 3.0, abs=3e-3)
    assert f2.value == pytest.approx(89.0 / 105.0, abs=3e-3)


def test_fedosov_agrees_with_odd_trace_on_truncated_pair(
        truncated_pair_m0, grid_flux_unitary):
    # the two formulas agree for exact projections (projpair module
    # docstring); on the non-idempotent truncation the compression carries
    # the boundary term pinned in test_fedosov_boundary_defect.  So cut the
    # exact projection 1[P >= 1/2] from the truncated pair on the same disk
    # and conjugate it by the same grid unitary (README "Known failures").
    # P commutes with the grid rotations, so the cut is taken block by
    # block: each mode block is eigh-cut to V V*
    P, _ = truncated_pair_m0
    evals, vecs = np.linalg.eigh(P.blocks)
    kept = vecs * (evals >= 0.5)[:, None, :]
    exact = projpair.HermitianProjection.from_blocks(kept @ kept.conj().swapaxes(1, 2))
    conj = projpair.conjugated(exact, grid_flux_unitary.diagonal)
    assert conj.blocks.shape == exact.blocks.shape
    assert exact.rank() == 64
    fed = projpair.index_by_fedosov(exact, grid_flux_unitary, n=1)
    odd = projpair.index_by_odd_trace(exact, conj, n=1)
    count = projpair.index_by_spectral_count(exact, conj, eig_tol=1e-6)
    assert abs(fed.value - odd.value) <= 1e-6
    assert abs(odd.value - count.value) <= 1e-6


def test_odd_trace_power_gap_on_truncated_pair(truncated_pair_m0):
    # measured |tr3 - tr5| at R = 8 sits near 4.2e-3; the companion bound
    # documents the actual plateau
    P, Q = truncated_pair_m0
    traces = dict(projpair.odd_trace_stability(Q, P, n_max=2))
    assert abs(traces[1] - traces[2]) <= 6e-3


def test_odd_trace_power_agreement_pinned_tolerance():
    # tighter power-independence asserted for the truncated pair.  At R = 8
    # the boundary cloud still moves the traces (4.2e-3, pinned above); the
    # spread falls as about 0.26 / R^2 and holds 1e-3 on a radius-18 disk
    # (7.7e-4), with nodes growing with the radius: 40 x 72 nodes at R = 18
    # leave 1.24e-3 (README "Known failures")
    grid = polar_disk_grid(18.0, radial_nodes=90, angular_nodes=162)
    P, Q = truncated_projection_pair(0, gauge.flux_unitary(1), grid)
    traces = dict(projpair.odd_trace_stability(Q, P, n_max=2))
    assert abs(traces[1] - traces[2]) <= 1e-3


def test_singular_gauge_on_node_rejected():
    u = gauge.flux_unitary(1)
    grid = polar_disk_grid(2.0, radial_nodes=6, angular_nodes=8)
    bad = type(grid)(nodes=np.vstack([grid.nodes, [0.0, 0.0]]),
                     weights=np.append(grid.weights, 0.1),
                     radius=grid.radius)
    with pytest.raises(ValueError, match="singular on a grid node"):
        truncated_projection_pair(0, u, bad)


@pytest.mark.parametrize("winding", [-1, -2])
def test_negative_winding_singular_on_node_rejected(winding):
    # a negative power of 0/0 stays nan without a RuntimeWarning, so the
    # singular node is reported as such
    grid = polar_disk_grid(2.0, radial_nodes=6, angular_nodes=8)
    bad = type(grid)(nodes=np.vstack([grid.nodes, [0.0, 0.0]]),
                     weights=np.append(grid.weights, 0.1),
                     radius=grid.radius)
    with pytest.raises(ValueError, match="singular on a grid node"):
        truncated_projection_pair(0, gauge.flux_unitary(winding), bad)


@pytest.mark.parametrize("layout", ["block", "dense"])
def test_gauge_off_unit_circle_rejected(layout):
    # 1.1 z/|z| is a rotation character but not unimodular: its conjugate of
    # P is no projection, and the pair traced to 0.42 (block) or -0.26
    # (dense) instead of -1 before the check
    grid = polar_disk_grid(8.0)
    if layout == "dense":
        grid = _without_layout(polar_disk_grid(4.0, radial_nodes=16, angular_nodes=25))
    unit = gauge.flux_unitary(1)
    scaled = gauge.GaugeUnitary(evaluate=lambda x: 1.1 * unit(x), winding=1)
    with pytest.raises(ValueError, match="not unimodular"):
        truncated_projection_pair(0, scaled, grid)


def test_normalization_note_logged_once(caplog):
    import fluxlab.landau as landau_mod
    landau_mod._NORMALIZATION_NOTED.discard((2, 1))
    with caplog.at_level("INFO", logger="fluxlab.landau"):
        basis_wavefunction(2, 1, 0.3 + 0.1j)
        basis_wavefunction(2, 1, 0.5 - 0.2j)
    notes = [r for r in caplog.records if "normalization" in r.message]
    assert len(notes) == 1
