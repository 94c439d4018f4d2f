"""Finite-dimensional identities of the relative index."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fluxlab import gauge, landau, lattice, projpair
from fluxlab.grids import DiskGrid, polar_disk_grid, square_grid
from fluxlab.projpair import (HermitianProjection, UnitaryMatrix,
                              additivity_check, conjugated, index_by_fedosov,
                              index_by_odd_trace, index_by_spectral_count,
                              odd_trace_stability, random_projection,
                              random_unitary)


def diag_projection(bits) -> HermitianProjection:
    return HermitianProjection(np.diag(np.asarray(bits, dtype=float)))


def test_rank_difference_on_diagonal_pair():
    P = diag_projection([1, 1, 1, 0, 0])
    Q = diag_projection([1, 0, 0, 1, 0])
    rep = index_by_spectral_count(P, Q)
    assert rep.value == 1
    assert rep.method == "spectral-count"
    assert rep.residual == 0.0


def test_rank_difference_random():
    rng = np.random.default_rng(1)
    for _ in range(20):
        dim = int(rng.integers(2, 40))
        rp, rq = int(rng.integers(0, dim + 1)), int(rng.integers(0, dim + 1))
        P = random_projection(rng, dim, rp)
        Q = random_projection(rng, dim, rq)
        assert index_by_spectral_count(P, Q).value == rp - rq


def test_antisymmetry_and_complement():
    rng = np.random.default_rng(2)
    for _ in range(10):
        dim = int(rng.integers(3, 30))
        P = random_projection(rng, dim, int(rng.integers(1, dim)))
        Q = random_projection(rng, dim, int(rng.integers(1, dim)))
        ipq = index_by_spectral_count(P, Q).value
        assert index_by_spectral_count(Q, P).value == -ipq
        Pc = HermitianProjection(np.eye(dim) - P.matrix)
        Qc = HermitianProjection(np.eye(dim) - Q.matrix)
        assert index_by_spectral_count(Pc, Qc).value == -ipq


def test_unitary_conjugation_invariance():
    rng = np.random.default_rng(3)
    dim = 24
    P = random_projection(rng, dim, 9)
    Q = random_projection(rng, dim, 14)
    base = index_by_spectral_count(P, Q).value
    for _ in range(5):
        W = random_unitary(rng, dim).matrix
        Pw = HermitianProjection(W @ P.matrix @ W.conj().T)
        Qw = HermitianProjection(W @ Q.matrix @ W.conj().T)
        assert index_by_spectral_count(Pw, Qw).value == base


def test_odd_trace_matches_spectral_count():
    rng = np.random.default_rng(4)
    for _ in range(10):
        dim = int(rng.integers(2, 40))
        P = random_projection(rng, dim, int(rng.integers(0, dim + 1)))
        Q = random_projection(rng, dim, int(rng.integers(0, dim + 1)))
        want = index_by_spectral_count(P, Q).value
        for n in range(4):
            rep = index_by_odd_trace(P, Q, n=n)
            assert abs(rep.value - want) <= 1e-8
            assert rep.imag_part <= 1e-10


def test_odd_trace_stability_flat_for_exact_projections():
    rng = np.random.default_rng(5)
    P = random_projection(rng, 30, 11)
    Q = random_projection(rng, 30, 17)
    traces = odd_trace_stability(P, Q, n_max=3)
    assert [n for n, _ in traces] == [0, 1, 2, 3]
    vals = [v for _, v in traces]
    assert max(vals) - min(vals) <= 1e-8
    assert abs(vals[0] - (-6)) <= 1e-8


def test_additivity():
    rng = np.random.default_rng(6)
    for _ in range(10):
        dim = int(rng.integers(3, 40))
        P = random_projection(rng, dim, int(rng.integers(0, dim + 1)))
        Q = random_projection(rng, dim, int(rng.integers(0, dim + 1)))
        R = random_projection(rng, dim, int(rng.integers(0, dim + 1)))
        left, right = additivity_check(P, Q, R)
        assert left == right


def test_fedosov_vanishes_for_exact_projections():
    rng = np.random.default_rng(7)
    for dim in (6, 13, 21):
        P = random_projection(rng, dim, dim // 2)
        U = random_unitary(rng, dim)
        for n in (1, 2):
            rep = index_by_fedosov(P, U, n=n)
            assert abs(rep.value) <= 1e-9
            assert rep.method == "fedosov"
            assert rep.trace_power == n + 1


def test_index_report_rounding():
    rep = index_by_odd_trace(diag_projection([1, 0]), diag_projection([0, 0]))
    assert rep.rounded() == 1
    assert rep.trace_power == 3


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="dimension mismatch"):
        index_by_odd_trace(diag_projection([1, 0]), diag_projection([1, 0, 0]))


def test_projection_validation():
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianProjection(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="not idempotent"):
        HermitianProjection(0.5 * np.eye(3))
    with pytest.raises(ValueError, match="square"):
        HermitianProjection(np.zeros((2, 3)))
    loose = HermitianProjection(0.5 * np.eye(3), idempotency_tol=0.5)
    assert loose.idempotency_residual == 0.25


def test_dense_projection_is_one_block():
    P = diag_projection([1, 1, 0])
    assert P.blocks.shape == (1, 3, 3)
    assert np.shares_memory(P.matrix, P.blocks)  # no copy of the block
    assert P == diag_projection([1, 1, 0])
    assert P != diag_projection([1, 0, 1])
    assert P != HermitianProjection(P.matrix, idempotency_tol=1e-8)
    assert pickle.loads(pickle.dumps(P)) == P
    two = HermitianProjection.from_blocks(np.stack([np.diag([1.0, 0.0])] * 2))
    assert two.dim == 4 and two.rank() == 2
    assert two != HermitianProjection(two.matrix)  # another block layout
    with pytest.raises(AttributeError):
        P.blocks = two.blocks


def test_unitary_validation():
    with pytest.raises(ValueError, match="not unitary"):
        UnitaryMatrix(2.0 * np.eye(4))
    U = UnitaryMatrix(np.diag(np.exp(1j * np.arange(4))))
    assert U.dim == 4


@pytest.mark.parametrize("build, other", [
    (lambda: UnitaryMatrix(np.eye(2)), lambda: UnitaryMatrix(np.diag([1, -1.0]))),
    (lambda: polar_disk_grid(4.0), lambda: polar_disk_grid(5.0)),
    (lambda: square_grid(3.0, 4), lambda: square_grid(3.0, 5)),
], ids=["unitary", "disk-grid", "tensor-grid"])
def test_array_dataclass_equality_is_bool(build, other):
    # the generated == compared arrays as a tuple and raised ValueError
    a, b, c = build(), build(), other()
    assert (a == b) is True and (a != b) is False
    assert (a == c) is False and (a != c) is True
    assert a != object()
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


def _disk_pair(case):
    grid = polar_disk_grid(4.0, radial_nodes=16, angular_nodes=25)
    u = gauge.flux_unitary(1)
    if case == "dense":
        grid = DiskGrid(nodes=grid.nodes, weights=grid.weights, radius=grid.radius)
    if case == "translated":
        u = gauge.translate_unitary(u, (0.5, -0.25))
    return landau.truncated_projection_pair(0, u, grid)


def _lattice_pair():
    model = lattice.MagneticLatticeModel(12, 12, 1.0 / 3.0)
    P = lattice.gap_projection(lattice.build_hamiltonian(model), -1.29).projection
    U = lattice.lattice_flux_unitary(model, (5.5, 5.5))
    return P, conjugated(P, U.diagonal)


@pytest.mark.parametrize("case", ["block", "dense", "translated", "lattice"])
def test_conjugated_residuals_bound_fresh_ones(case):
    P, Q = _lattice_pair() if case == "lattice" else _disk_pair(case)
    # the 12 x 12 lattice box keeps its four rotation-mode blocks, and the flux
    # at its centre keeps them in Q
    layouts = {"block": (25, 25), "translated": (25, 1),
               "lattice": (4, 4)}.get(case, (1, 1))
    assert (P.blocks.shape[0], Q.blocks.shape[0]) == layouts
    fresh = HermitianProjection(Q.matrix, Q.idempotency_tol)
    # the bounds hold in exact arithmetic; forming and measuring Q.matrix
    # adds rounding of a few units in the last place of its entries (P's own
    # nodal matrix measures a Hermitian residual of 1e-17 where its blocks
    # measure 0)
    rounding = 4 * np.finfo(float).eps * np.max(np.abs(Q.matrix))
    for carried, measured in ((Q.hermitian_residual, fresh.hermitian_residual),
                              (Q.idempotency_residual, fresh.idempotency_residual)):
        assert measured <= carried + rounding
        assert carried - measured <= 1e-14
    assert Q.idempotency_residual >= P.idempotency_residual


@pytest.mark.parametrize("center, modes", [((5.5, 5.5), 4), ((6.5, 5.5), 1)],
                         ids=["centre", "off-centre"])
def test_routes_reduce_a_site_mapped_pair_like_its_matrices(center, modes):
    # the 12 x 12 box keeps its rotation blocks on their site map; Q keeps
    # them for the flux at the centre and is dense on the nodes off it
    model = lattice.MagneticLatticeModel(12, 12, 1.0 / 3.0)
    P = lattice.gap_projection(lattice.build_hamiltonian(model), -1.29).projection
    d = lattice.lattice_flux_unitary(model, center).diagonal
    Q = conjugated(P, d)
    assert (P.blocks.shape[0], Q.blocks.shape[0]) == (4, modes)
    assert np.array_equal(Q.sites, P.sites) and np.array_equal(Q.phases, P.phases)
    dense_p = HermitianProjection(P.matrix, 1e-8)
    dense_q = HermitianProjection(Q.matrix, 1e-8)
    assert np.max(np.abs(Q.matrix - conjugated(dense_p, d).matrix)) <= 1e-14
    for pair in ((P, Q), (dense_p, Q)):
        assert index_by_spectral_count(*pair).value == index_by_spectral_count(
            dense_p, dense_q).value
        assert abs(index_by_odd_trace(*pair, n=2).value
                   - index_by_odd_trace(dense_p, dense_q, n=2).value) <= 1e-12
    U = UnitaryMatrix(np.diag(d))
    assert abs(index_by_fedosov(P, U).value - index_by_fedosov(dense_p, U).value) <= 1e-12


def test_conjugated_rejects_what_its_bounds_exclude():
    half = HermitianProjection(0.5 * np.eye(3), idempotency_tol=0.25)
    with pytest.raises(ValueError, match="not unitary"):
        conjugated(half, np.array([1.0, 1.0, 1.1]))
    with pytest.raises(ValueError, match="dimension"):
        conjugated(half, np.ones(4))
    # |d|^2 = 1 + 1e-11 passes the unitary check, but widens the residual
    # 0.25 of P past its tolerance 0.25
    with pytest.raises(ValueError, match="not idempotent"):
        conjugated(half, np.sqrt(1.0 + 1e-11) * np.ones(3))
    same = conjugated(half, np.ones(3))
    assert same == half and same.hermitian_residual == 0.0


NAN_PAIR = np.array([[np.nan, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("build, message", [
    (lambda: HermitianProjection(NAN_PAIR), "not Hermitian"),
    (lambda: HermitianProjection.from_blocks(np.stack([NAN_PAIR, NAN_PAIR])),
     "not Hermitian"),
    (lambda: UnitaryMatrix(np.diag([np.nan, 1.0])), "not unitary"),
], ids=["hermitian", "angular-block", "unitary"])
def test_nan_entries_fail_validation(build, message):
    # a NaN residual is not within any tolerance
    with pytest.raises(ValueError, match=message):
        build()


def test_random_projection_rank_bounds():
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError, match="outside"):
        random_projection(rng, 4, 5)
    assert random_projection(rng, 4, 0).rank() == 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 16))
def test_property_rank_difference_and_antisymmetry(seed, dim):
    rng = np.random.default_rng(seed)
    rp = int(rng.integers(0, dim + 1))
    rq = int(rng.integers(0, dim + 1))
    P = random_projection(rng, dim, rp)
    Q = random_projection(rng, dim, rq)
    assert index_by_spectral_count(P, Q).value == rp - rq
    assert index_by_spectral_count(Q, P).value == rq - rp


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 16))
def test_property_difference_square_commutes(seed, dim):
    # (P - Q)^2 commutes with both projections; the algebra behind the
    # n-independence of the odd traces
    rng = np.random.default_rng(seed)
    P = random_projection(rng, dim, int(rng.integers(0, dim + 1)))
    Q = random_projection(rng, dim, int(rng.integers(0, dim + 1)))
    D2 = (P.matrix - Q.matrix) @ (P.matrix - Q.matrix)
    for A in (P.matrix, Q.matrix):
        assert np.max(np.abs(D2 @ A - A @ D2)) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 12))
def test_property_odd_trace_n_independent(seed, dim):
    rng = np.random.default_rng(seed)
    P = random_projection(rng, dim, int(rng.integers(0, dim + 1)))
    Q = random_projection(rng, dim, int(rng.integers(0, dim + 1)))
    traces = odd_trace_stability(P, Q, n_max=3)
    vals = [v for _, v in traces]
    assert max(vals) - min(vals) <= 1e-8


@pytest.mark.parametrize("offdiag", [0.0, 1e-300])
def test_unitary_residual_same_on_diagonal_and_dense_paths(offdiag):
    # a zero off-diagonal takes the diagonal path, a tiny one the dense
    # product; both report the max-entry residual of UU* - 1
    u = np.diag(np.exp(1j * np.arange(4)) * np.array([1.0, 1.0 + 1e-6, 1.0, 1.0]))
    u[0, 3] = offdiag
    want = np.max(np.abs(u @ u.conj().T - np.eye(4)))
    with pytest.raises(ValueError, match=f"{want:.3e}"):
        UnitaryMatrix(u, unitarity_tol=1e-12)
    assert UnitaryMatrix(u, unitarity_tol=1e-5).dim == 4
