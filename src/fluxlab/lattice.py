"""Magnetic tight-binding lattice: the desk-scale testbed for index stability.

A uniform field enters through Peierls phases on nearest-neighbor bonds
(the symmetric gauge centred on the domain by default), the Fermi
projection comes from exact diagonalization, and the flux-insertion index
is read off as a windowed diagonal sum of (P - uPu*)^(2n+1).  The full
trace of that odd power vanishes identically in finite dimension (u
conjugation is a similarity), so the lattice index must be localized: the
diagonal carries a bump of integrated weight equal to the index near the
flux insertion point, compensated by boundary weight far away, and the
window isolates the bump.

The Fermi projection uses the symmetries of the clean box, each checked
exactly on the matrix itself, not assumed from the model; one function,
_eigenbasis, reads them and runs the one eigh of every route, for
gap_projection and disorder_constancy alike.  The symmetric gauge is
centred on the centre c of the active sites' bounding box: the bond
r -> r + e carries exp(i pi flux (r - c) x e), and (r - c) x e is an
exact half-integer.  A square, even-sided box is then invariant under the
rotation p by 90 degrees about its centre bit for bit, H[p][:, p] == H,
and under the diagonal reflection t(x, y) = (y, x) with complex
conjugation, H[t][:, t] == conj(H): p commutes with H and p^4 = 1, so H
splits into four rotation-mode blocks of N/4 sites each, as the
angular-mode Landau engine splits its disk; _eigenbasis diagonalizes the
blocks and gap_projection keeps P as those blocks, each node placed on its
site (projpair's site map).  The reflection inverts the rotation, so it
keeps each mode, and each block is diagonalized in real arithmetic on a
real symmetric form, as below.  A box that breaks the reflection (a
rotation-invariant potential that the reflection does not keep) takes a
dense route.  The unit flux z/|z| about the box centre is a rotation
character, so lattice_index keeps the blocks for a flux there (with a
window that is a disk about it), and decay_fit reads them whenever P has
them; any other flux centre makes lattice_index run the same sum on the
dense matrix on the nodes.  The flux unitary is projpair's diagonal
UnitaryMatrix, which carries the flux centre and the site positions that
the window reads.  The dense, site-ordered P.matrix is assembled only when
it is read.  Any other box whose columns share one centre has an
antiunitary symmetry: the reflection of each column about the centre flips
the field and complex conjugation flips it back (in the Landau gauge,
whose y-bond phases exp(2 pi i flux x) depend only on x, as well).  A
permutation r with H[r][:, r] == conj(H) makes H unitarily equivalent to a
real symmetric matrix, which is diagonalized in real arithmetic.  A matrix
with neither symmetry (a disorder draw) takes the complex eigh.  On every
route P carries its idempotency residual, bounded from the eigenvectors'
Gram matrix or from the blocks' residual on their real form, instead of
measuring it with the N^3 product P @ P.

disorder_constancy takes the clean box's whole eigenbasis once from that
eigh, as its mode blocks (four on the clean square box, else one), and
decouples each on-site draw in it by a Riccati sweep, with no eigh, when
the clean gap certifies the draw (Weyl's inequality and Stewart's
theorem).  The draw's operator in that basis is formed block by block, as
the length-4 transform of the draw over each rotation orbit couples mode q
to mode q' only through its component q' - q, and the index is read from
the frame V of the draw's Fermi subspace, with no N x N P = V V*.  Any
other draw takes gap_projection.
"""

from __future__ import annotations

import logging
import math
import time
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from fluxlab.gauge import GaugeUnitary
from fluxlab.projpair import (HermitianProjection, IndexReport, UnitaryMatrix,
                              conjugated, difference,
                              nodal_blocks, nodal_matrix, trace_report)

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class MagneticLatticeModel:
    """Rectangular lattice with uniform flux per plaquette and open edges.

    potential is indexed [x, y] and must be real and finite; domain_mask
    selects the active sites (used for wedge and half-plane domains).
    flux_per_plaquette is the field in flux quanta through each unit cell,
    taken in [0, 1).
    """

    width: int
    height: int
    flux_per_plaquette: float
    potential: Optional[np.ndarray] = None
    domain_mask: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"lattice must be nonempty, got {self.width}x{self.height}")
        if not 0.0 <= float(self.flux_per_plaquette) < 1.0:
            raise ValueError(
                f"flux per plaquette must lie in [0, 1), got {self.flux_per_plaquette}"
            )
        for name, arr in (("potential", self.potential), ("domain_mask", self.domain_mask)):
            if arr is not None and np.shape(arr) != (self.width, self.height):
                raise ValueError(
                    f"{name} must have shape ({self.width}, {self.height}), "
                    f"got {np.shape(arr)}"
                )
        if self.potential is not None:
            v = np.asarray(self.potential)
            # a complex potential would make H non-Hermitian
            if np.iscomplexobj(v) or not np.all(np.isfinite(v)):
                raise ValueError("potential must be real and finite")

    def site_index(self) -> np.ndarray:
        """The site table every lattice routine reads: a (width, height) array
        of matrix rows, counting the active sites in x-major order (x outer,
        y inner); off-domain sites hold -1."""
        shape = (self.width, self.height)
        active = (np.ones(shape, dtype=bool) if self.domain_mask is None
                  else np.asarray(self.domain_mask, dtype=bool))
        index = np.full(shape, -1)
        index[active] = np.arange(np.count_nonzero(active))
        return index

    def sites(self) -> np.ndarray:
        """(N, 2) array of the active (x, y) sites in row order."""
        return np.argwhere(self.site_index() >= 0)

    def bonds(self, gauge: str = "symmetric") -> tuple:
        """Rows i, j and Peierls phase of the +x and then the +y bonds i -> j,
        cut from the site table.  In the symmetric gauge the phases are
        exp(-i pi flux (y - cy)) and exp(i pi flux (x - cx)) about the centre
        (cx, cy) of the active sites' bounding box; in the Landau gauge the +x
        phase is 1 and the +y phase exp(2 pi i flux x) depends on x alone.
        Both give the field of build_hamiltonian."""
        flux = float(self.flux_per_plaquette)
        x, y = np.indices((self.width, self.height))
        index = self.site_index()
        if gauge == "symmetric":
            # the half-integer offsets from the centre are exact, and so is
            # their sign, which the box's rotation and diagonal reflection flip
            active = np.argwhere(index >= 0)
            cx, cy = (0.5 * (active.min(axis=0) + active.max(axis=0)) if len(active)
                      else (0.0, 0.0))
            phases = (np.exp(-1j * np.pi * flux * (y - cy)),
                      np.exp(1j * np.pi * flux * (x - cx)))
        elif gauge == "landau":
            phases = (np.ones(x.shape, dtype=complex), np.exp(2j * np.pi * flux * x))
        else:
            raise ValueError(f"unknown gauge {gauge!r}; use 'landau' or 'symmetric'")
        i, j, phase = [], [], []
        for (tail, head), ph in zip(((np.s_[:-1], np.s_[1:]),
                                     (np.s_[:, :-1], np.s_[:, 1:])), phases):
            keep = (index[tail] >= 0) & (index[head] >= 0)
            i.append(index[tail][keep])
            j.append(index[head][keep])
            phase.append(ph[tail][keep])
        return np.concatenate(i), np.concatenate(j), np.concatenate(phase)


def _check_connected(index: np.ndarray):
    """Warn unless the active sites form one cluster, flooding from row 0."""
    active, seen = index >= 0, index == 0
    while True:
        p = np.pad(seen, 1)
        grown = active & (seen | p[:-2, 1:-1] | p[2:, 1:-1] | p[1:-1, :-2] | p[1:-1, 2:])
        if np.array_equal(grown, seen):
            break
        seen = grown
    missed = np.count_nonzero(active & ~seen)
    if missed:
        first = divmod(int(np.flatnonzero(index == 0)[0]), index.shape[1])
        warnings.warn(
            f"domain mask is disconnected: {missed} of {np.count_nonzero(active)} "
            f"sites unreachable from {first}",
            stacklevel=3,
        )


def build_hamiltonian(model: MagneticLatticeModel, gauge: str = "symmetric") -> np.ndarray:
    """Nearest-neighbor hopping (-1) with Peierls phases plus the on-site
    potential, restricted to the masked domain.

    The product of bond phases around any interior plaquette, taken
    counterclockwise in matrix-element order H[0,1] H[1,2] H[2,3] H[3,0],
    equals exp(2 pi i flux); Hermiticity holds by construction.
    """
    index = model.site_index()
    n = int(index.max()) + 1
    if n == 0:
        raise ValueError("domain mask removes every site")
    _check_connected(index)
    i, j, phase = model.bonds(gauge)
    H = np.zeros((n, n), dtype=complex)
    if model.potential is not None:
        H[np.diag_indices(n)] = np.asarray(model.potential)[index >= 0]
    H[i, j] = -phase
    H[j, i] = -np.conj(phase)
    return H


@dataclass(frozen=True)
class GapProjection:
    """Fermi projection of a gapped Hamiltonian.

    gap_width is the distance from the Fermi energy to the nearest
    eigenvalue; the projection sums every eigenvector below the Fermi
    energy.  modes and real_form record the route: modes, the block count
    of the projection, is 4 when H was diagonalized in its four
    rotation-mode blocks and 1 for one N x N eigh; real_form is True when
    each eigh ran on a real symmetric form (always on the blocks), False
    for the complex eigh.
    """

    projection: HermitianProjection
    gap_width: float
    real_form: bool

    @property
    def modes(self) -> int:
        return self.projection.blocks.shape[0]


# the rounding of one double, u = eps / 2
_UNIT_ROUNDOFF = 0.5 * np.finfo(float).eps


def _rotation_permutation(H: np.ndarray) -> Optional[np.ndarray]:
    """The 90-degree rotation p of the box when it keeps H exactly,
    H[p][:, p] == H, and the diagonal reflection t conjugates H exactly,
    H[t][:, t] == conj(H); else None.

    Only a complex H of side L = sqrt(N), L even, qualifies (a real H takes
    the real form, whose P is exactly real).  The candidates are the
    rotation about the centre of the L x L box in x-major order,
    p(x, y) = (L-1-y, x), which with L even fixes no site, and the
    reflection t(x, y) = (y, x).  Both relations, and whether H is complex,
    are read on the box's pattern only: its nearest-neighbour bonds, in
    both directions, and the diagonal.  One count of H's nonzero entries
    that matches the count on the pattern proves that H has no other
    nonzero entry, and p and t map the pattern onto itself, so each check
    is exact for the whole matrix, in O(N) gathers after that one count,
    without an N x N temporary.
    """
    n = H.shape[0]
    side = math.isqrt(n)
    if side * side != n or side % 2:
        return None
    x, y = np.divmod(np.arange(n), side)
    p, t = (side - 1 - y) * side + x, y * side + x
    # on the diagonal the rotation reads H[p_i, p_i] = H[i, i]: a potential
    # that is not C4-invariant (a disorder draw) fails here, in O(N)
    d = np.diagonal(H)
    if not np.array_equal(d[p], d):
        return None
    xb, yb, s = np.arange(n - side), np.flatnonzero(y < side - 1), np.arange(n)
    i = np.concatenate([xb, xb + side, yb, yb + 1, s])
    j = np.concatenate([xb + side, xb, yb + 1, yb, s])
    pattern = H[i, j]
    if np.count_nonzero(H) != np.count_nonzero(pattern) or not pattern.imag.any():
        return None
    if not np.array_equal(H[p[i], p[j]], pattern):
        return None
    if not np.array_equal(H[t[i], t[j]], np.conj(pattern)):
        logger.debug("_eigenbasis: rotation blocks break the diagonal reflection")
        return None
    return p


def _gap_width(evals: np.ndarray, fermi: float, min_gap: float) -> float:
    gap = float(np.min(np.abs(evals - fermi)))
    if not gap >= min_gap:
        raise ValueError(
            f"no spectral gap at fermi energy {fermi:.6f}: nearest eigenvalue "
            f"is {gap:.3e} away; the Fermi projection needs an open gap"
        )
    return gap


def _rotation_blocks(H, p) -> tuple:
    """(B, r, sites): the four rotation-mode blocks B_q of H, (4, N/4, N/4),
    for the rotation p of _rotation_permutation, the involution r of their
    real form and the site of each node.

    p commutes with H and p^4 = 1.  The orbit representatives s_i are the
    quadrant x, y < L/2, and node (i, a), at index i*4 + a, is the site
    sites[i*4 + a] = p^a s_i.  On the nodes p shifts the angle a, so H is
    block-circulant in the projpair convention
    M[(i,a),(j,b)] = (1/4) sum_q B_q[i,j] exp(-2 pi i q (b - a) / 4), and
    its first angular row H[s_i, p^d s_j] gives the blocks B_q by one FFT
    over d.  As H[p][:, p] == H exactly, the row holds
    first[-d] == first[d]* bit for bit, and the length-4 FFT, whose
    twiddles are exact, keeps that: each B_q is Hermitian bit for bit.

    The diagonal reflection t(x, y) = (y, x), with complex conjugation,
    inverts the rotation, so it keeps each mode; _rotation_permutation has
    checked that it holds exactly on H.  t maps the quadrant onto itself,
    as the involution r of the representatives, so the row holds
    first[d][r][:, r] == conj(first[-d]), each block
    B_q[r][:, r] == conj(B_q) bit for bit, and each block is diagonalized
    in real arithmetic on its real form (_eigenbasis).
    """
    n = H.shape[0]
    side = math.isqrt(n)
    half = side // 2
    reps = np.arange(n).reshape(side, side)[:half, :half].ravel()
    orbit = [reps]
    for _ in range(3):
        orbit.append(p[orbit[-1]])
    # the quadrant (x, y) that p^a takes the representatives to; np.rot90 by
    # a takes a representative grid to that quadrant's local grid
    quadrants = [(0, 0), (1, 0), (1, 1), (0, 1)]
    H8 = H.reshape(2, half, 2, half, 2, half, 2, half)
    # the row is not read again once the FFT has run: not keeping it through
    # the eigh took gap_projection's traced peak at 40 x 40 from 46 to 36 MiB
    first = np.stack([
        np.rot90(H8[0, :, 0, :, qx, :, qy, :], -a, axes=(2, 3)).reshape(len(reps), -1)
        for a, (qx, qy) in enumerate(quadrants)])
    r = np.arange(len(reps)).reshape(half, half).T.ravel()
    return 4.0 * np.fft.ifft(first, axis=0), r, np.stack(orbit, axis=1).ravel()


def _block_projection(vecs: list, sites: np.ndarray) -> HermitianProjection:
    """The Fermi projection P as its four rotation-mode blocks on their
    site map sites (_rotation_blocks), from the occupied eigenvectors W_q
    of each block's real form (_eigenbasis).

    P_q = S R_q S*, with R_q = W_q W_q^T symmetrized, is formed
    entrywise (_quadrant_congruence) and is Hermitian bit for bit.  P keeps
    the blocks, with node i*4 + a at site p^a s_i; its .matrix is the
    site-ordered P[p^a s_i, p^b s_j] = P_f[(i,a),(j,b)].

    The idempotency residual is read on the real form.  In exact
    arithmetic P_q^2 - P_q = S E_q S*, with E_q = R_q^2 - R_q real, and each
    entry of S E_q S* is ((E_q + E_q[r][:, r]) + i (E_q[r] - E_q[:, r]))/2
    (r the involution of the real form), whose real and imaginary parts
    are at most max |E_q| each.  Each entry
    of P^2 - P on the nodes, fft over the modes / 4 as in nodal_blocks, is
    a mean of four such entries, each times a unit phase, so it is at most
    sqrt 2 max |E|.  Each entry of P_q carries one rounding,
    |delta| <= u |P_q[i,j]|, which moves P_q^2 - P_q on the nodes by at
    most u(2 rho + sqrt(rho)) (rho and s_ij as below), and that is added
    to the bound.

    P records the residuals of that matrix as .matrix forms it.  P_f has
    the blocks' residuals h_f = 0, r_f and largest squared row norm rho.
    Forming an entry (the length-4 FFT) errs by at most 8u s_ij,
    s_ij = (1/4) sum_q |B_q[i,j]| <= sqrt(rho), which adds 16u sqrt(rho) to
    the Hermitian residual.  Each row of the error E has norm
    <= 16u sqrt(rho), so PE + EP - E adds at most 8u(4 rho + sqrt(rho)) to
    each entry of P^2 - P, to first order in u and with no factor of N.
    """
    R = np.stack([W @ W.T for W in vecs])
    R = 0.5 * (R + R.transpose(0, 2, 1))
    blocks = _quadrant_congruence(R)
    rho = float(np.max(np.sum(np.abs(blocks) ** 2, axis=(0, 2)))) / 4.0
    u = _UNIT_ROUNDOFF
    E = R @ R
    E -= R
    del R
    resid = (math.sqrt(2.0) * float(np.max(np.abs(E)))
             + u * (2.0 * rho + np.sqrt(rho)) + 8.0 * u * (4.0 * rho + np.sqrt(rho)))
    return HermitianProjection(blocks, 1e-8, 16.0 * u * np.sqrt(rho), resid, sites)


def _quadrant_congruence(R: np.ndarray) -> np.ndarray:
    """S R S* for the real (k, n, n) stack R on the quadrant's n = h^2
    representatives, with S = exp(-i pi/4)(1 + iR_r)/sqrt 2 and r the
    transpose of the quadrant's (x, y) grid (_block_projection):
    ((R + R[r][:, r]) + i (R[r] - R[:, r])) / 2, formed on transposed
    views.  For a symmetric R the result is Hermitian bit for bit: its
    (j, i) entry is formed from the same two sums as the conjugate of its
    (i, j) entry.
    """
    k, n, _ = R.shape
    half = math.isqrt(n)
    grid = R.reshape(k, half, half, half, half)
    out = np.empty(R.shape, dtype=complex)
    cells = out.reshape(grid.shape)
    np.add(grid, grid.transpose(0, 2, 1, 4, 3), out=cells.real)
    np.subtract(grid.transpose(0, 2, 1, 3, 4), grid.transpose(0, 1, 2, 4, 3), out=cells.imag)
    out *= 0.5
    return out


def _real_form_permutation(H: np.ndarray) -> Optional[np.ndarray]:
    """Involutive permutation r with H[r][:, r] == conj(H) exactly, or None.

    A real H takes the identity.  Otherwise the one candidate is the
    reversal of every chain of consecutive indices joined by a nonzero
    H[i, i+1]: in the x-major site order such a chain is a lattice column,
    and its reversal is the reflection y -> height - 1 - y.  The relation
    is compared on the nonzero entries only: as r permutes the index pairs,
    the permuted matrix then has no other nonzero entry, so the check is
    exact for the whole matrix without an N x N temporary.
    """
    n = H.shape[0]
    if not H.imag.any():
        return np.arange(n)
    link = np.diagonal(H, 1) != 0
    start = np.flatnonzero(np.r_[True, ~link])
    end = np.r_[start[1:], n] - 1
    r = np.repeat(start + end, end - start + 1) - np.arange(n)
    i, j = np.nonzero(H)
    if np.array_equal(H[r[i], r[j]], np.conj(H[i, j])):
        return r
    return None


def _dense_projection(X: np.ndarray, r) -> HermitianProjection:
    """The Fermi projection P = V V* (_outer_projection), dense and
    site-ordered, the stack of one block, from the m occupied eigenvectors X
    of _eigenbasis's one block: V = X on the complex route, V = S X on the
    real form (_from_real_form).

    With e = ||X* X - I||_F from the Gram matrix and f = ||V||_F,
    ||V* V - I|| <= g = e + 2uf sqrt(1 + e) + u^2 f^2, as S X is formed with
    an entrywise rounding of u.
    """
    m = X.shape[1]
    gram = X.conj().T @ X
    gram[np.diag_indices(m)] -= 1.0
    e = float(np.linalg.norm(gram))
    V = _from_real_form(X, r)
    f = float(np.linalg.norm(V))
    u = _UNIT_ROUNDOFF
    return _outer_projection(V, e + 2.0 * u * f * np.sqrt(1.0 + e) + (u * f) ** 2)


def _outer_residual(V: np.ndarray, g: float) -> float:
    """The idempotency residual that P = V V* carries, for the N x m V with
    ||V* V - I|| <= g, refused above 1e-8 like any projection's.

    Forming P, its product and its symmetrization, errs by at most
    eta ||V_i|| ||V_j|| per entry, eta = 2(m + 3)u, so with f = ||V||_F and
    rho the largest squared row norm of V, P^2 - P = V (V* V - I) V* + AE +
    EA + E^2 - E (A = V V*) is bounded entrywise by
    rho (g + eta (2f sqrt(1 + g) + 1) + eta^2 f^2).
    """
    m = V.shape[1]
    row2 = np.sum(V.real ** 2 + V.imag ** 2, axis=1)
    rho = float(np.max(row2))
    f = float(np.sqrt(np.sum(row2)))
    eta = 2.0 * (m + 3) * _UNIT_ROUNDOFF
    resid = rho * (g + eta * (2.0 * f * np.sqrt(1.0 + g) + 1.0) + (eta * f) ** 2)
    if not resid <= 1e-8:
        raise ValueError(f"V V* is not idempotent within 1.0e-08: max |P^2 - P| "
                         f"is bounded by {resid:.3e}")
    return resid


def _outer_projection(V: np.ndarray, g: float) -> HermitianProjection:
    """P = V V*, symmetrized, dense and site-ordered, for the N x m V with
    ||V* V - I|| <= g; P carries its idempotency residual (_outer_residual).
    """
    resid = _outer_residual(V, g)
    A = V @ V.conj().T
    # 0.5 (A + A*), formed with one N x N temporary.  It is Hermitian bit
    # for bit: P[j, i] = conj(A[i, j]) + A[j, i] rounds to the conjugate of
    # P[i, j], since rounding commutes with conjugation and with the order
    # of the addends, so its Hermitian residual is 0.0
    P = np.conjugate(A.T, out=np.empty_like(A))
    P += A
    del A
    P *= 0.5
    return HermitianProjection(P, 1e-8, 0.0, resid)


def _eigenbasis(H: np.ndarray) -> tuple:
    """(lam, X, r, sites): every eigenpair of H from its one eigh, as k mode
    blocks, on the route that a symmetry checked exactly on H chooses.  lam
    (k, N/k) holds each block's eigenvalues, ascending, and X (k, N/k, N/k)
    the eigh's eigenvectors; node (i, a) sits at site sites[i*k + a].

    - When the 90-degree rotation about the box centre keeps H exactly
      (_rotation_permutation: a square, even-sided box) and the diagonal
      reflection (x, y) -> (y, x) conjugates it exactly, H splits into
      k = 4 rotation-mode blocks B_q of N/4 (_rotation_blocks), and r is
      the involution of the blocks' real form.
    - Otherwise, when an involutive permutation r with H[r][:, r] == conj(H)
      holds exactly (_real_form_permutation: r reflects each column about
      its centre), the one block is B_0 = H, and sites is the identity.
    - Every other H (a disorder draw) takes the complex eigh of B_0 = H,
      with r None; this route is also the test oracle of the other two.

    With r, S = exp(-i pi/4)(1 + iR)/sqrt 2 is unitary with
    S* B S = Re B - (Im B)[:, r] real symmetric: the eigh runs in real
    arithmetic on that form, X is real, and C_q = S X_q (_from_real_form)
    holds the eigenvectors of B_q, whose projection is S (X X^T) S*.  On
    the rotation blocks, column c of C_q is the eigenvector of H with
    v[(i, a)] = c_i i^(q a) / 2: the length-4 character of mode q, exact in
    floating point, normalized over the four angles.
    """
    p = _rotation_permutation(H)
    if p is None:
        B, r, sites = H[None], _real_form_permutation(H), np.arange(H.shape[0])
    else:
        B, r, sites = _rotation_blocks(H, p)
    lam, X = np.linalg.eigh(B if r is None else B.real - B.imag[..., r])
    return lam, X, r, sites


def _from_real_form(X: np.ndarray, r) -> np.ndarray:
    """S X = (X + i X[r])(1 - i)/2, the eigenvectors of H from those X of
    its real form (_eigenbasis), r permuting the rows of each block; X
    itself when r is None, the complex eigh.  (1 - i)/2 = exp(-i pi/4)/sqrt 2
    exactly, and for the identity r (a real H) the imaginary part cancels
    exactly."""
    return X if r is None else (X + 1j * X[..., r, :]) * (0.5 - 0.5j)


def gap_projection(H: np.ndarray, fermi: float, min_gap: float = 1e-9) -> GapProjection:
    """Spectral projection below fermi, refused when fermi touches spectrum.

    The index theory requires the Fermi energy to sit in an open spectral
    gap; an eigenvalue within min_gap of fermi means the projection is not
    stably defined and the call is rejected.

    H is diagonalized once, on the route its symmetries choose
    (_eigenbasis), and the eigenvectors below fermi give P.  On the four
    rotation-mode blocks P keeps the blocks on their site map
    (_block_projection), so lattice_index and decay_fit stay in the
    blocks; P.matrix, the dense site-ordered P, is assembled only when it
    is read.  One block gives the dense, site-ordered P, the stack of one
    block (_dense_projection).  On every route P carries its idempotency
    residual, bounded from quantities the route already holds, in place of
    the N^3 product P @ P; the Hermitian residual is 0.0 on the dense P,
    which is Hermitian bit for bit, and bounded on the blocks.
    """
    lam, X, r, sites = _eigenbasis(H)
    gap = _gap_width(lam, fermi, min_gap)
    vecs = [x[:, e < fermi] for e, x in zip(lam, X)]
    del X
    if len(vecs) == 4:
        P = _block_projection(vecs, sites)
        route = f"4 rotation blocks of {len(sites) // 4}, real-form"
    else:
        P = _dense_projection(vecs[0], r)
        route = "complex" if r is None else "real-form"
    logger.debug("gap_projection: %s eigh, N = %d", route, len(sites))
    return GapProjection(projection=P, gap_width=gap, real_form=r is not None)


def lattice_flux_unitary(model: MagneticLatticeModel, center) -> UnitaryMatrix:
    """The unit flux tube GaugeUnitary(1, center), (z - c)/|z - c| about
    c = center, sampled on the lattice sites: a diagonal UnitaryMatrix that
    carries the flux centre and the site positions, which the windowed
    index reads.

    The center must be finite and avoid the sites themselves (offset it by
    half a lattice constant); a site exactly at the center would get an
    undefined phase.
    """
    u = GaugeUnitary(1, center)
    cx, cy = u.singularity
    pos = model.sites().astype(float)
    dist = np.hypot(pos[:, 0] - cx, pos[:, 1] - cy)
    if np.min(dist) < 1e-9:
        bad = pos[int(np.argmin(dist))]
        raise ValueError(
            f"flux center ({cx}, {cy}) coincides with site ({bad[0]:.0f}, "
            f"{bad[1]:.0f}); offset it by half a lattice constant"
        )
    return UnitaryMatrix(u.evaluate(pos), center=u.singularity, site_array=pos)


# the radius of the window about the flux centre that the lattice index sums
_WINDOW_RADIUS = 6.0


def lattice_index(P, U: UnitaryMatrix, n: int = 1,
                  window_radius: float = _WINDOW_RADIUS) -> IndexReport:
    """Windowed odd-power trace of P - UPU* around the flux center.

    Accepts either a GapProjection or a bare HermitianProjection.

    The full finite-dimensional trace is exactly zero (the conjugated
    projection is similar to P), but the diagonal of (P - UPU*)^(2n+1)
    localizes: a bump of integrated weight equal to the index sits at the
    flux center, canceled by boundary weight.  Summing the diagonal over
    sites W within window_radius of the center reads the bump off.  As
    M = P - UPU* (UPU* from projpair.conjugated) is Hermitian, that sum is
    vdot(Y, Y M) for the rows Y = M[W] M^(n-1) of M^n: |W| N^2 work per
    power, no N x N product.  A residual above 0.1 from the nearest integer
    is flagged as finite-size unreliable.  A window_radius that is not
    positive and finite, or a window that holds no site, is refused
    (_window), as its sum would read as an index of 0.

    M is the difference of the pair that projpair.conjugated forms on one
    layout, on P's nodes, which a site map places on the sites.  P's
    rotation-mode blocks (the clean square box) are kept when the flux sits
    at the rotation centre, and the sum is taken block by block, on k
    blocks of N/k, when the window is constant on every orbit, as a disk
    about that centre is: the window then commutes with the rotation.
    Otherwise M is the dense matrix on the nodes, and the same sum runs on
    the stack of one; off the centre, conjugated builds P's node matrix
    once.
    """
    if n < 1:
        raise ValueError(f"trace power n must be at least 1, got {n}")
    window = _window(U, window_radius)
    P, Q = conjugated(getattr(P, "projection", P), U)
    M = difference(P, Q)
    if P.sites is not None:
        window = window[P.sites]
    orbits = window.reshape(-1, len(M))
    if not np.all(orbits == orbits[:, :1]):
        M, orbits = nodal_matrix(M)[None], window[:, None]
    rows = orbits[:, 0]
    count = np.count_nonzero(rows)
    route = (f"on {len(M)} rotation blocks of {len(rows)}, {count} rows per block"
             if len(M) > 1 else f"dense, N = {len(rows)}, {count} rows")
    logger.debug("lattice_index: window trace %s", route)
    t = 0j
    for B in M:
        Y = B[rows]
        for _ in range(n - 1):
            Y = Y @ B
        t += np.vdot(Y, Y @ B)
    return _window_report(t, n)


def _window(U: UnitaryMatrix, window_radius: float) -> np.ndarray:
    """The sites within window_radius of U's flux centre, as a mask, after
    warning when that centre lies outside the domain or near its boundary;
    a radius that is not positive and finite, or a window that holds no
    site, is refused."""
    if U.site_array is None:
        raise ValueError(
            "unitary carries no site geometry; build it with lattice_flux_unitary"
        )
    pos = U.site_array
    cx, cy = U.center
    (x0, y0), (x1, y1) = pos.min(axis=0), pos.max(axis=0)
    margin = min(cx - x0, x1 - cx, cy - y0, y1 - cy)
    if margin < 0.0:
        logger.warning(
            "flux center (%.1f, %.1f) lies outside the domain (sites span "
            "x %.0f..%.0f, y %.0f..%.0f); the domain encloses no flux",
            cx, cy, x0, x1, y0, y1,
        )
    elif margin < 5.0:
        logger.warning(
            "flux center (%.1f, %.1f) is %.1f sites from the domain boundary; "
            "finite-size effects may dominate", cx, cy, margin,
        )
    if not 0.0 < window_radius < math.inf:
        raise ValueError(f"window radius must be positive and finite, got {window_radius!r}")
    window = np.hypot(pos[:, 0] - cx, pos[:, 1] - cy) <= window_radius
    if not window.any():
        raise ValueError(f"window of radius {window_radius!r} about the flux center "
                         f"({cx:.1f}, {cy:.1f}) holds no site")
    return window


def _window_report(t: complex, n: int) -> IndexReport:
    """The report of the windowed trace t of power 2n+1, with a warning when
    it lies more than 0.1 from the nearest integer."""
    rep = trace_report(complex(t), "windowed odd trace", 2 * n + 1)
    if rep.residual > 0.1:
        logger.warning(
            "windowed index %.4f is %.3f from the nearest integer; "
            "finite-size unreliable", rep.value, rep.residual,
        )
    return rep


def wedge_experiment(model: MagneticLatticeModel, center, fermi: float) -> IndexReport:
    """Flux-insertion index, trace power 3, on a masked domain.

    With the domain restricted to a wedge whose closure excludes the flux
    center, the index must vanish; with the flux enclosed (half plane, full
    plane) it matches the unmasked value.  This driver just wires the masked
    model through the standard pipeline.
    """
    H = build_hamiltonian(model)
    gp = gap_projection(H, fermi)
    U = lattice_flux_unitary(model, center)
    return lattice_index(gp, U)


@dataclass(frozen=True, eq=False)
class DisorderEnsemble:
    """Seeded i.i.d. on-site disorder draws over a fixed clean model.

    Each draw perturbs only the potential, uniformly in [-amplitude,
    amplitude]; flux and domain stay fixed.
    """

    base_model: MagneticLatticeModel
    amplitude: float
    seeds: Sequence[int]

    def __post_init__(self):
        if not 0.0 <= self.amplitude < float("inf"):
            raise ValueError(
                f"amplitude must be finite and nonnegative, got {self.amplitude!r}")


# the Riccati sweep of _decoupled_frame: the most sweeps it may take, and
# the largest entry of the Riccati residual it stops at, in units of the
# clean gap
_RICCATI_SWEEPS = 30
_RICCATI_TOL = 1e-14


def _mode_slices(occupied: np.ndarray) -> list:
    """For each mode q, the pairs (cols, place) of its occupied and then its
    empty eigenpairs: cols the columns of C_q, place the same pairs in the
    occupied-first, mode-major order of the whole basis.  occupied (k, n)
    marks the eigenvalues below the Fermi energy, a leading run of each
    ascending row of _eigenbasis's lam."""
    k, n = occupied.shape
    counts = np.count_nonzero(occupied, axis=1)
    sizes = np.concatenate([counts, n - counts])
    ends = np.cumsum(sizes)
    starts = ends - sizes
    return [[(slice(0, c), slice(starts[q], ends[q])),
             (slice(c, n), slice(starts[k + q], ends[k + q]))]
            for q, c in enumerate(counts)]


def _basis_operator(C: np.ndarray, sites: np.ndarray, parts: list,
                    d: np.ndarray) -> np.ndarray:
    """A = Q* diag(d) Q, N x N, in the clean eigenbasis Q of the mode blocks
    C = S X (_eigenbasis, _from_real_form), its columns in the order of
    parts (_mode_slices).

    With v[(i, a)] = c_i w^(q a) / sqrt k for the eigenvector c of mode q
    (w = exp(2 pi i / k)), the block (q, q') of A is
    A^(q,q') = C_q* diag(dh_{q'-q}) C_{q'}, with dh = ifft(d[sites] as
    (n, k), axis=1) the length-k transform of the draw over each orbit: k^2
    products of N/k.  Only q <= q' is formed; for the real d,
    dh_{-s} = conj(dh_s), so A^(q',q) = (A^(q,q'))*.  Each block is placed
    by slices; one block (k = 1) is the dense product.
    """
    k, n, _ = C.shape
    dh = np.fft.ifft(d[sites].reshape(n, k), axis=1)
    A = np.empty((k * n, k * n), dtype=complex)
    for q in range(k):
        CH = C[q].conj().T
        for s in range(k - q):
            block = CH @ (dh[:, s, None] * C[q + s])
            for rows, place_r in parts[q]:
                for cols, place_c in parts[q + s]:
                    A[place_r, place_c] = block[rows, cols]
                    if s:
                        A[place_c, place_r] = block[rows, cols].conj().T
    return A


def _riccati_decoupling(lam, A, m, tol) -> tuple:
    """(Y, sweeps, residual) of H0 + diag(d) in the eigenbasis of H0, with
    eigenvalues lam and A = Q* diag(d) Q (_basis_operator), the m lowest
    eigenpairs first; Y is None when the sweep misses its cap.  A's
    diagonal is overwritten.

    With l = lam + diag(A), the span of [I; Y] is invariant when Y solves
    the Riccati equation
    (l2_i - l1_j) Y_ij = -(A21 + A22' Y - Y A11' - Y A12 Y)_ij, the primes
    marking A's blocks with their diagonals folded into l.  The sweep runs
    that fixed point from Y = 0 and stops once the largest entry of the
    residual, the left side minus the right, is at most tol.
    """
    l = lam + A.diagonal().real
    A[np.diag_indices(len(lam))] = 0.0
    A11, A12, A21, A22 = A[:m, :m], A[:m, m:], A[m:, :m], A[m:, m:]
    gaps = l[m:, None] - l[None, :m]
    Y = -A21 / gaps
    for sweep in range(1, _RICCATI_SWEEPS + 1):
        R = A22 @ Y
        R -= Y @ (A11 + A12 @ Y)
        R += A21
        R += gaps * Y
        residual = float(np.max(np.abs(R), initial=0.0))
        if residual <= tol:
            return Y, sweep, residual
        Y -= R / gaps
    return None, _RICCATI_SWEEPS, residual


def _frame(C: np.ndarray, sites: np.ndarray, parts: list, Y: np.ndarray) -> np.ndarray:
    """Q [I; Y], N x m and site-ordered, from the mode blocks C: the rows of
    [I; Y] in the order of parts (_mode_slices) pick, for each mode q,
    X_q = C_q [I; Y]_q, and node (i, a) sums sum_q X_q[i] w^(q a) / sqrt k,
    sqrt k times the inverse transform over q."""
    k, n, _ = C.shape
    m = Y.shape[1]
    X = np.empty((k, n, m), dtype=complex)
    for q, ((occ, place_occ), (emp, place_emp)) in enumerate(parts):
        np.matmul(C[q][:, emp], Y[place_emp.start - m:place_emp.stop - m], out=X[q])
        X[q][:, place_occ] += C[q][:, occ]
    V = np.empty((k * n, m), dtype=complex)
    V[sites] = (np.fft.ifft(X, axis=0) * math.sqrt(k)).transpose(1, 0, 2).reshape(k * n, m)
    return V


def _decoupled_frame(basis: tuple, occupied: np.ndarray, d: np.ndarray,
                     gap: float) -> tuple:
    """(V, G, sweeps, residual, a_s, sweep_s): an orthonormal frame V of
    the Fermi subspace of H0 + diag(d), with its Gram matrix G = V* V, from
    the clean eigenbasis basis = (lam, C, sites) of H0, C = S X
    (_eigenbasis, _from_real_form), whose eigenvalues below the Fermi
    energy occupied marks and whose nearest one lies gap from it, by the
    Riccati sweep (_riccati_decoupling).  V is None
    when the draw is not certified: when w = max |d| is not below gap/2,
    when the sweep misses its cap, or when w (1 + ||Y||_F) is not below gap.
    a_s and sweep_s are the seconds of forming A and of the sweep, both 0.0
    when no A is formed.

    For w < gap/2, Stewart's theorem (SIAM Rev. 15, 727 (1973)) applies in
    the clean eigenbasis, where the eigenvalues below and above the Fermi
    energy lie at least 2 gap apart and every block of A = Q* diag(d) Q has
    norm at most w: H0 + diag(d) has an invariant subspace [I; Y] with
    ||Y|| <= w/(gap - w) < 1.  The m eigenvalues on the span of [I; Y] are
    those of lam1 + A11 + A12 Y, within w (1 + ||Y||) of lam1 (Bauer-Fike),
    so when that is below gap they lie below the Fermi energy, and by
    Weyl's inequality (||diag(d)||_2 = w) the draw has exactly m there: the
    span is the Fermi subspace, whatever fixed point the sweep found.

    V = Q [I; Y] L^-* (_frame), with L the Cholesky factor of I + Y*Y, so
    that V V* is the Fermi projection; the idempotency residual that V V*
    would carry (_outer_residual) is bounded from V and its measured Gram
    residual ||G - I||_F, and refused above 1e-8.
    """
    lam, C, sites = basis
    w = float(np.max(np.abs(d)))
    if not w < 0.5 * gap:
        return None, None, 0, math.nan, 0.0, 0.0
    start = time.perf_counter()
    parts = _mode_slices(occupied)
    order = np.argsort(~occupied, axis=None, kind="stable")
    A = _basis_operator(C, sites, parts, d)
    formed = time.perf_counter()
    # A lives only through the sweep, so it is freed before V is formed
    m = int(np.count_nonzero(occupied))
    Y, sweeps, residual = _riccati_decoupling(lam.ravel()[order], A, m, _RICCATI_TOL * gap)
    del A
    a_s, sweep_s = formed - start, time.perf_counter() - formed
    if Y is None or not w * (1.0 + np.linalg.norm(Y)) < gap:
        return None, None, sweeps, residual, a_s, sweep_s
    L = np.linalg.cholesky(Y.conj().T @ Y + np.eye(m))
    V = _frame(C, sites, parts, Y) @ np.linalg.inv(L).conj().T
    G = V.conj().T @ V
    _outer_residual(V, float(np.linalg.norm(G - np.eye(m))))
    return V, G, sweeps, residual, a_s, sweep_s


def _factored_index(V: np.ndarray, G: np.ndarray, U: UnitaryMatrix,
                    window_radius: float) -> IndexReport:
    """lattice_index at trace power 3 of P = V V*, read from the N x m
    factor V and its Gram matrix G = V* V, with no N x N matrix; the window
    is refused as lattice_index's is (_window).

    With F = [V, uV] and J = diag(I, -I), M = P - uPu* = F J F*, and its
    cube's diagonal summed over the window W is tr(F_W J Gam J Gam J F_W*)
    for Gam = F* F = [[G, K], [K*, G_u]], K = V* (uV), G_u = (uV)* (uV):
    t = ||V_W G - (uV)_W K*||^2 - ||V_W K - (uV)_W G_u||^2, real.
    """
    window = _window(U, window_radius)
    uV = U.diagonal[:, None] * V
    K = V.conj().T @ uV
    Gu = uV.conj().T @ uV
    a, b = V[window], uV[window]
    first = a @ G - b @ K.conj().T
    second = a @ K - b @ Gu
    return _window_report(np.vdot(first, first).real - np.vdot(second, second).real, 1)


def disorder_constancy(ens: DisorderEnsemble, fermi: float,
                       U: UnitaryMatrix) -> list:
    """Windowed index, trace power 3, for each disorder seed; constancy is
    the point.

    The clean model fixes the reference gap and rank.  A draw whose gap
    shrinks below a fifth of the clean gap, or whose Fermi projection
    changes rank (an eigenvalue crossed the Fermi energy), has closed the
    gap and is rejected: the index is only defined on the gapped set.

    The clean box's eigenbasis comes once per call from its one eigh
    (_eigenbasis), as the k mode blocks C_q = S X_q (_from_real_form): the
    four rotation blocks of the clean square box, else one dense block.  An
    on-site draw D = diag(d) has ||D||_2 = w = max |d_i|, so by Weyl's
    inequality every eigenvalue moves by at most w: for w below the clean
    gap g0 the rank is kept and the gap stays at least g0 - w, the Weyl
    margin.  For w < g0/2 the draw is decoupled from the clean eigenbasis
    by a Riccati sweep, with no eigh, on A = Q* D Q formed block by block,
    and Stewart's theorem certifies that the subspace it finds is the
    Fermi one (_decoupled_frame); such a draw keeps its rank and a gap
    above g0/2, past the refusal line of g0/5.  Its index is read from the
    frame V of that subspace (_factored_index), with no N x N P.  Any other
    draw, or one the sweep does not certify, takes gap_projection, the
    oracle of the sweep, with its refusals, and lattice_index.

    Each draw logs at DEBUG its route, Weyl margin, sweeps and residual,
    the blocks of A formed, and the seconds of forming A, of the sweep and
    of the index (the rest of the draw: the frame and its trace, or the
    eigh and lattice_index).
    """
    lam, X, r, sites = _eigenbasis(build_hamiltonian(ens.base_model))
    basis = (lam, _from_real_form(X, r), sites)
    del X
    k = len(lam)
    gap0 = _gap_width(lam, fermi, 1e-9)
    occupied = lam < fermi
    clean_rank = int(np.count_nonzero(occupied))
    reports = []
    for seed in ens.seeds:
        rng = np.random.default_rng(seed)
        draw = (rng.random(lam.size) - 0.5) * 2.0 * ens.amplitude
        start = time.perf_counter()
        V, G, sweeps, residual, a_s, sweep_s = _decoupled_frame(basis, occupied, draw, gap0)
        route = "Riccati decoupling" if V is not None else "eigh"
        if V is not None:
            # the window of lattice_index's default radius, as on the eigh route
            reports.append(_factored_index(V, G, U, _WINDOW_RADIUS))
            # this draw's frame is freed before the next draw forms its A
            del V, G
        else:
            # the clean H is rebuilt here, not kept through every draw
            P = gap_projection(build_hamiltonian(ens.base_model) + np.diag(draw), fermi,
                               min_gap=0.2 * gap0).projection
            if P.rank() != clean_rank:
                raise ValueError(
                    f"disorder draw (seed {seed}) closed the spectral gap: "
                    f"projection rank {P.rank()} != clean rank {clean_rank}"
                )
            reports.append(lattice_index(P, U))
            del P
        logger.debug("disorder_constancy: seed %d, %s, Weyl margin %.3e of gap %.3e, "
                     "%d Riccati sweeps, residual %.1e, A from %d of %d blocks in "
                     "%.2e s, sweeps %.2e s, index %.2e s", seed,
                     route, gap0 - float(np.max(np.abs(draw))), gap0, sweeps, residual,
                     k * (k + 1) // 2 if sweeps else 0, k * k, a_s, sweep_s,
                     time.perf_counter() - start - a_s - sweep_s)
    return reports


def decay_fit(P, model: MagneticLatticeModel) -> tuple:
    """Least-squares decay rate of log max|p(x, y)| against site distance.

    Accepts either a GapProjection or a bare HermitianProjection.  Bins all
    site pairs by Euclidean distance (unit-width bins from 3 to half the
    smaller side), takes the largest kernel magnitude per bin, and fits a
    line to the logs.  The pairs are binned in bands of 128 rows, so no
    N x N temporary is formed; a maximum is exact in any order.  Returns
    (slope, r_squared); a gapped Fermi projection decays exponentially, so
    the slope must come out negative.

    The magnitudes are read on P's nodes.  On the k rotation-mode blocks of
    the clean square box the nodal blocks N_t = fft(B)/k hold every entry:
    node (i, a) sits at site p^a s_i, and the rotation p is an isometry, so
    the pair ((i, a), (j, a + t)) lies at the distance |s_i - p^t s_j| for
    every a, and k n^2 pairs cover all N^2.  A dense P is the one block,
    binned at the distances of all its site pairs.
    """
    if model.width < 20 or model.height < 20:
        raise ValueError(
            f"domain {model.width}x{model.height} too small for a decay fit; "
            "need at least 20x20"
        )
    d_max = min(model.width, model.height) / 2.0
    P = getattr(P, "projection", P)
    pos = model.sites().astype(float)
    if P.dim != len(pos):
        raise ValueError(f"projection of dimension {P.dim} does not act on the "
                         f"{len(pos)} sites of the model")
    nodal = nodal_blocks(P.blocks)
    k = len(nodal)
    if P.sites is not None:
        pos = pos[P.sites]
    bins = np.arange(3.0, d_max + 1.0)
    lower, upper = bins - 0.5, np.append(bins + 0.5, -np.inf)
    top = np.full(len(bins), -1.0)
    for t in range(k):
        for start in range(0, P.dim // k, 128):
            d = pos[k * start:k * (start + 128):k, None, :] - pos[None, t::k, :]
            dist = np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2)
            # bin b holds the pairs with bins[b] - 0.5 <= dist < bins[b] + 0.5; a
            # pair below the first bin gets b = -1 and meets the upper edge -inf
            b = np.searchsorted(lower, dist, side="right") - 1
            inside = dist < upper[b]
            np.maximum.at(top, b[inside], np.abs(nodal[t, start:start + 128])[inside])
    keep = top > 1e-14
    xs = bins[keep]
    ys = np.log(top[keep])
    if len(xs) < 4:
        raise ValueError(
            "no decay to fit: the projection carries no off-diagonal weight "
            "at the sampled distances"
        )
    design = np.column_stack([xs, np.ones_like(xs)])
    coef, _, _, _ = np.linalg.lstsq(design, ys, rcond=None)
    resid = ys - design @ coef
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise ValueError("no decay to fit: bin maxima are constant in distance")
    r_squared = 1.0 - float((resid ** 2).sum()) / ss_tot
    return float(coef[0]), float(r_squared)
