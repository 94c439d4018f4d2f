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
exactly on the matrix itself, not assumed from the model.  The symmetric
gauge is centred on the centre c of the active sites' bounding box: the
bond r -> r + e carries exp(i pi flux (r - c) x e), and (r - c) x e is an
exact half-integer.  A square, even-sided box is then invariant under the
rotation p by 90 degrees about its centre bit for bit, H[p][:, p] == H,
and under the diagonal reflection t(x, y) = (y, x) with complex
conjugation, H[t][:, t] == conj(H): p commutes with H and p^4 = 1, so H
splits into four rotation-mode blocks of N/4 sites each, as the
angular-mode Landau engine splits its disk; gap_projection diagonalizes
the blocks and keeps P as those blocks, each node placed on its site
(projpair's site map).  The reflection inverts the rotation, so it keeps
each mode, and each block is diagonalized in real arithmetic on a real
symmetric form, as below.  A box that breaks the reflection (a
rotation-invariant potential that the reflection does not keep) takes a
dense route.  The unit flux z/|z| about the box centre is a rotation
character, so lattice_index keeps the blocks for a flux there (with a
window that is a disk about it), and decay_fit reads them whenever P has
them; any other flux centre makes lattice_index run the same sum on the
dense matrix on the nodes.  The dense, site-ordered P.matrix is assembled
only when it is read.  Any other box whose columns share one centre has an
antiunitary symmetry: the reflection of each column about the centre flips
the field and complex conjugation flips it back (in the Landau gauge,
whose y-bond phases exp(2 pi i flux x) depend only on x, as well).  A
permutation r with H[r][:, r] == conj(H) makes H unitarily equivalent to a
real symmetric matrix, which is diagonalized in real arithmetic.  A matrix
with neither symmetry (a disorder draw) takes the complex eigh.  On every
route P carries its idempotency residual, bounded from the eigenvectors'
Gram matrix or the blocks' measured residual, instead of measuring it with
the N^3 product P @ P.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from fluxlab.projpair import (HermitianProjection, IndexReport, check_unitary,
                              conjugated, difference,
                              nodal_blocks, nodal_matrix, trace_report)

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class MagneticLatticeModel:
    """Rectangular lattice with uniform flux per plaquette and open edges.

    potential is indexed [x, y]; domain_mask selects the active sites (used
    for wedge and half-plane domains).  flux_per_plaquette is the field in
    flux quanta through each unit cell, taken in [0, 1).
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


def plaquette_phase(model: MagneticLatticeModel, H: np.ndarray, x: int, y: int) -> complex:
    """Product of the four bond terms around the plaquette at (x, y),
    normalized by the hopping magnitude; equals exp(2 pi i flux) for interior
    plaquettes."""
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


@dataclass(frozen=True)
class GapProjection:
    """Fermi projection of a gapped Hamiltonian.

    gap_width is the distance from the Fermi energy to the nearest
    eigenvalue; the projection sums every eigenvector below the Fermi
    energy.  modes and real_form record the route: modes is 4 when H was
    diagonalized in its four rotation-mode blocks and 1 for one N x N eigh;
    real_form is True when each eigh ran on a real symmetric form (always
    on the blocks), False for the complex eigh.
    """

    projection: HermitianProjection
    fermi_energy: float
    gap_width: float
    real_form: bool
    modes: int


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
    reflection t(x, y) = (y, x).  Both relations are compared on H's nonzero
    entries only, as _real_form_permutation compares its own: as p and t
    permute the index pairs, the permuted matrix then has no other nonzero
    entry, so each check is exact for the whole matrix without an N x N
    temporary.
    """
    n = H.shape[0]
    side = math.isqrt(n)
    if side * side != n or side % 2 or not H.imag.any():
        return None
    x, y = np.divmod(np.arange(n), side)
    p, t = (side - 1 - y) * side + x, y * side + x
    # on the diagonal the rotation reads H[p_i, p_i] = H[i, i]: a potential
    # that is not C4-invariant (a disorder draw) fails here, in O(N)
    d = np.diagonal(H)
    if not np.array_equal(d[p], d):
        return None
    i, j = np.nonzero(H)
    if not np.array_equal(H[p[i], p[j]], H[i, j]):
        return None
    if not np.array_equal(H[t[i], t[j]], np.conj(H[i, j])):
        logger.debug("gap_projection: rotation blocks break the diagonal reflection")
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


def _block_projection(H, fermi, min_gap, p) -> tuple:
    """(P, gap width) of the Fermi projection of H as its four rotation-mode
    blocks on their site map, for the rotation p of _rotation_permutation.

    p commutes with H and p^4 = 1.  The orbit representatives s_i are the
    quadrant x, y < L/2, and node (i, a) is the site p^a s_i.  On the nodes
    p shifts the angle a, so H is block-circulant in the projpair convention
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
    in real arithmetic on its real form (_eigh_below).

    P_q = S R_q S*, with R_q = W_q W_q^T symmetrized, is formed
    entrywise (_quadrant_congruence) and is Hermitian bit for bit; its
    idempotency residual is measured on S (R_q^2 - R_q) S*, which is
    P_q^2 - P_q in exact arithmetic.  Each entry of P_q carries one
    rounding, |delta| <= u |P_q[i,j]|, which moves P_q^2 - P_q on the nodes
    by at most u(2 rho + sqrt(rho)) (rho and s_ij as below), and that is
    added to the measured value.  P keeps the blocks, with node i*4 + a
    at site p^a s_i; its .matrix is the site-ordered
    P[p^a s_i, p^b s_j] = P_f[(i,a),(j,b)].

    P records the residuals of that matrix as .matrix forms it.  P_f has
    the blocks' residuals h_f = 0, r_f and largest squared row norm rho.
    Forming an entry (the length-4 FFT) errs by at most 8u s_ij,
    s_ij = (1/4) sum_q |B_q[i,j]| <= sqrt(rho), which adds 16u sqrt(rho) to
    the Hermitian residual.  Each row of the error E has norm
    <= 16u sqrt(rho), so PE + EP - E adds at most 8u(4 rho + sqrt(rho)) to
    each entry of P^2 - P, to first order in u and with no factor of N.
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
    first = np.stack([
        np.rot90(H8[0, :, 0, :, qx, :, qy, :], -a, axes=(2, 3)).reshape(len(reps), -1)
        for a, (qx, qy) in enumerate(quadrants)])
    r = np.arange(len(reps)).reshape(half, half).T.ravel()
    gap, vecs = _eigh_below(4.0 * np.fft.ifft(first, axis=0), fermi, min_gap, r)
    # the row is not read again: freeing it here takes gap_projection's traced
    # peak at 40 x 40 from 46 to 36 MiB
    del first
    R = np.stack([W @ W.T for W in vecs])
    R = 0.5 * (R + R.transpose(0, 2, 1))
    blocks = _quadrant_congruence(R)
    rho = float(np.max(np.sum(np.abs(blocks) ** 2, axis=(0, 2)))) / 4.0
    u = _UNIT_ROUNDOFF
    resid = (float(np.max(np.abs(nodal_blocks(_quadrant_congruence(R @ R - R)))))
             + u * (2.0 * rho + np.sqrt(rho)) + 8.0 * u * (4.0 * rho + np.sqrt(rho)))
    sites = np.stack(orbit, axis=1).ravel()
    return HermitianProjection.with_residuals(blocks, 1e-8, 16.0 * u * np.sqrt(rho),
                                              resid, sites), gap


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


def _eigh_below(H: np.ndarray, fermi: float, min_gap: float, r) -> tuple:
    """(gap width, X) of the Hermitian stack H, (k, n, n), at fermi: X[k]
    holds the eigh's eigenvectors below fermi.

    With r None the eigh is that of H.  Otherwise r is an involutive
    permutation with H[k][r][:, r] == conj(H[k]), and
    S = exp(-i pi/4)(1 + iR)/sqrt 2 is unitary with S* H S = Re H - (Im H)[:, r]
    real symmetric: the eigh runs in real arithmetic on that form, X is
    real, and S X = (X + i X[r])(1 - i)/2 are the eigenvectors of H, whose
    projection is S (X X^T) S*.
    """
    evals, vecs = np.linalg.eigh(H if r is None else H.real - H.imag[..., r])
    gap = _gap_width(evals, fermi, min_gap)
    return gap, [v[:, e < fermi] for e, v in zip(evals, vecs)]


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


def _dense_projection(H, fermi, min_gap, r) -> tuple:
    """(P, gap width) of the Fermi projection of H from one N x N eigh: of
    the real form Re H - (Im H)[:, r] when r is a real-form permutation,
    else of H.  P is dense and site-ordered, the stack of one block.

    P = V V*, symmetrized, with V of m columns from the eigh output X (V = X
    on the complex route, V = S X on the real one).  Its idempotency
    residual is carried.  With e = ||X* X - I||_F from the Gram matrix,
    f = ||V||_F, rho the largest squared row norm of V and
    g = e + 2uf sqrt(1 + e) + u^2 f^2 (S X is formed with an entrywise
    rounding of u), ||V* V - I|| <= g.  The product and the symmetrization
    err by at most eta ||V_i|| ||V_j|| per entry, eta = 2(m + 3)u, so
    P^2 - P = V (V* V - I) V* + AE + EA + E^2 - E (A = V V*) is bounded
    entrywise by rho (g + eta (2f sqrt(1 + g) + 1) + eta^2 f^2).
    """
    gap, (X,) = _eigh_below(H[None], fermi, min_gap, r)
    m = X.shape[1]
    gram = X.conj().T @ X
    gram[np.diag_indices(m)] -= 1.0
    e = float(np.linalg.norm(gram))
    # (1 - i)/2 = exp(-i pi/4)/sqrt(2) exactly; for the identity r the
    # imaginary part cancels exactly and P comes out real
    V = X if r is None else (X + 1j * X[r]) * (0.5 - 0.5j)
    row2 = np.sum(V.real ** 2 + V.imag ** 2, axis=1)
    rho = float(np.max(row2))
    f = float(np.sqrt(np.sum(row2)))
    u = _UNIT_ROUNDOFF
    g = e + 2.0 * u * f * np.sqrt(1.0 + e) + (u * f) ** 2
    eta = 2.0 * (m + 3) * u
    resid = rho * (g + eta * (2.0 * f * np.sqrt(1.0 + g) + 1.0) + (eta * f) ** 2)
    A = V @ V.conj().T
    # 0.5 (A + A*), formed with one N x N temporary.  It is Hermitian bit
    # for bit: P[j, i] = conj(A[i, j]) + A[j, i] rounds to the conjugate of
    # P[i, j], since rounding commutes with conjugation and with the order
    # of the addends, so its Hermitian residual is 0.0
    P = np.conjugate(A.T, out=np.empty_like(A))
    P += A
    del A
    P *= 0.5
    return HermitianProjection.with_residuals(P[None], 1e-8, 0.0, resid), gap


def gap_projection(H: np.ndarray, fermi: float, min_gap: float = 1e-9) -> GapProjection:
    """Spectral projection below fermi, refused when fermi touches spectrum.

    The index theory requires the Fermi energy to sit in an open spectral
    gap; an eigenvalue within min_gap of fermi means the projection is not
    stably defined and the call is rejected.

    Three routes give the same P, each chosen by a symmetry checked on H
    itself:
    - when the 90-degree rotation about the box centre keeps H exactly
      (_rotation_permutation: a square, even-sided box) and the diagonal
      reflection (x, y) -> (y, x) conjugates it exactly, H splits into four
      N/4 x N/4 rotation-mode blocks, each diagonalized on its own
      (_block_projection) in real arithmetic on its real form.  P keeps
      the four blocks on their site map, so lattice_index and decay_fit
      stay in the blocks; P.matrix, the dense site-ordered P, is assembled
      only when it is read;
    - otherwise, when an involutive permutation R with R H R = conj(H)
      holds exactly (_real_form_permutation), H takes the same real form
      (_eigh_below) with r the reflection of each column about its centre;
    - every other H takes the complex eigh, which is also the test oracle
      of the other two.
    The two dense routes give the dense, site-ordered P, the stack of one
    block.  On every route P carries its idempotency residual, bounded from
    quantities the route already holds (_block_projection,
    _dense_projection), in place of the N^3 product P @ P; the Hermitian
    residual is 0.0 on the dense P, which is Hermitian bit for bit, and
    bounded on the blocks.
    """
    n = H.shape[0]
    p = _rotation_permutation(H)
    if p is not None:
        modes, real_form, route = 4, True, f"4 rotation blocks of {n // 4}, real-form"
        P, gap = _block_projection(H, fermi, min_gap, p)
    else:
        r = _real_form_permutation(H)
        modes, real_form = 1, r is not None
        route = "real-form" if real_form else "complex"
        P, gap = _dense_projection(H, fermi, min_gap, r)
    logger.debug("gap_projection: %s eigh, N = %d", route, n)
    return GapProjection(projection=P, fermi_energy=float(fermi), gap_width=gap,
                         real_form=real_form, modes=modes)


@dataclass(frozen=True, eq=False)
class LatticeFluxUnitary:
    """Diagonal flux-insertion unitary that remembers its site geometry.

    Only the diagonal is stored, validated to 1e-10.  The windowed index
    needs the flux center and the site coordinates, so the lattice
    constructor returns this carrier instead of a bare matrix.
    """

    diagonal: np.ndarray
    center: tuple
    site_array: np.ndarray

    def __post_init__(self):
        check_unitary(self.diagonal, 1e-10)


def lattice_flux_unitary(model: MagneticLatticeModel, center) -> LatticeFluxUnitary:
    """Diagonal of (z - center)/|z - center| over the lattice sites.

    The center must avoid the sites themselves (offset it by half a lattice
    constant); a site exactly at the center would get an undefined phase.
    """
    cx, cy = float(center[0]), float(center[1])
    pos = model.sites().astype(float)
    z = (pos[:, 0] - cx) + 1j * (pos[:, 1] - cy)
    dist = np.abs(z)
    if np.min(dist) < 1e-9:
        bad = pos[int(np.argmin(dist))]
        raise ValueError(
            f"flux center ({cx}, {cy}) coincides with site ({bad[0]:.0f}, "
            f"{bad[1]:.0f}); offset it by half a lattice constant"
        )
    return LatticeFluxUnitary(diagonal=z / dist, center=(cx, cy), site_array=pos)


def lattice_index(P, U: LatticeFluxUnitary, n: int = 1,
                  window_radius: float = 6.0) -> IndexReport:
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
    is flagged as finite-size unreliable.

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
    if getattr(U, "site_array", None) is None:
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
    if n < 1:
        raise ValueError(f"trace power n must be at least 1, got {n}")
    P, Q = conjugated(getattr(P, "projection", P), U.diagonal)
    M = difference(P, Q)
    window = np.hypot(pos[:, 0] - cx, pos[:, 1] - cy) <= window_radius
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
        if self.amplitude < 0:
            raise ValueError(f"amplitude must be nonnegative, got {self.amplitude}")


def disorder_constancy(ens: DisorderEnsemble, fermi: float,
                       U: LatticeFluxUnitary) -> list:
    """Windowed index, trace power 3, for each disorder seed; constancy is
    the point.

    The clean model fixes the reference gap and rank.  A draw whose gap
    shrinks below a fifth of the clean gap, or whose Fermi projection
    changes rank (an eigenvalue crossed the Fermi energy), has closed the
    gap and is rejected: the index is only defined on the gapped set.
    """
    H0 = build_hamiltonian(ens.base_model)
    clean = gap_projection(H0, fermi)
    clean_rank = clean.projection.rank()
    n_sites = H0.shape[0]
    reports = []
    for seed in ens.seeds:
        rng = np.random.default_rng(seed)
        draw = (rng.random(n_sites) - 0.5) * 2.0 * ens.amplitude
        gp = gap_projection(H0 + np.diag(draw), fermi,
                            min_gap=0.2 * clean.gap_width)
        if gp.projection.rank() != clean_rank:
            raise ValueError(
                f"disorder draw (seed {seed}) closed the spectral gap: "
                f"projection rank {gp.projection.rank()} != clean rank {clean_rank}"
            )
        reports.append(lattice_index(gp, U))
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
    nodal = nodal_blocks(P.blocks)
    k = len(nodal)
    pos = model.sites().astype(float)
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
