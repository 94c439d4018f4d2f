"""Magnetic tight-binding lattice: the desk-scale testbed for index stability.

A uniform field enters through Peierls phases on nearest-neighbor bonds
(Landau gauge by default), the Fermi projection comes from exact
diagonalization, and the flux-insertion index is read off as a windowed
diagonal sum of (P - uPu*)^(2n+1).  The full trace of that odd power
vanishes identically in finite dimension (u conjugation is a similarity),
so the lattice index must be localized: the diagonal carries a bump of
integrated weight equal to the index near the flux insertion point,
compensated by boundary weight far away, and the window isolates the bump.

The Fermi projection uses two symmetries of the clean box, each checked on
the matrix itself, not assumed from the model.  A square, even-sided box
in a uniform field is invariant under the rotation by 90 degrees about its
centre, up to a gauge transformation G: H[p][:, p] = G H G*
(_rotation_gauge solves G from H).  T = G* R commutes with H and T^4 is a
phase, so H splits into four rotation-mode blocks of N/4 sites each, as the
angular-mode Landau engine splits its disk; gap_projection diagonalizes the
blocks and keeps P as those blocks, each node placed on its site with a
phase (projpair's site map).  The blocks are those of a
rotation-symmetrized H' close to H; they are kept only while the
Davis-Kahan bound on the distance of their P from H's own projection is
small, and a box with a smaller gap takes a dense route.  The unit flux
z/|z| about the box centre is a rotation character, so lattice_index keeps
the blocks for a flux there (with a window that is a disk about it), and
decay_fit reads them whenever P has them; any other flux centre makes
lattice_index run the same sum on the dense matrix on the nodes.  The
dense, site-ordered P.matrix is assembled only when it is read.  Any other
box in the Landau gauge has an antiunitary symmetry: the y-bond phases
exp(2 pi i flux x) depend only on x, so the reflection
y -> height - 1 - y within each column flips the field and complex
conjugation flips it back.  A permutation r with H[r][:, r] == conj(H)
makes H unitarily equivalent to a real symmetric matrix, which is
diagonalized in real arithmetic.  A matrix with neither symmetry (a
disorder draw, the symmetric gauge on a rectangle) takes the complex eigh.
On every route P carries its idempotency residual, bounded from the
eigenvectors' Gram matrix or the blocks' measured residual, instead of
measuring it with the N^3 product P @ P.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from fluxlab.projpair import (HermitianProjection, IndexReport, check_unitary,
                              conjugated, difference, nodal_blocks, nodal_matrix,
                              trace_report)

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

    def bonds(self, gauge: str = "landau") -> tuple:
        """Rows i, j and Peierls phase of the +x and then the +y bonds i -> j,
        cut from the site table.  In the Landau gauge the +x phase is 1 and the
        +y phase exp(2 pi i flux x) depends on x alone; in the symmetric gauge
        they are exp(-i pi flux y) and exp(i pi flux x)."""
        flux = float(self.flux_per_plaquette)
        x, y = np.indices((self.width, self.height))
        if gauge == "landau":
            phases = (np.ones(x.shape, dtype=complex), np.exp(2j * np.pi * flux * x))
        elif gauge == "symmetric":
            phases = (np.exp(-1j * np.pi * flux * y), np.exp(1j * np.pi * flux * x))
        else:
            raise ValueError(f"unknown gauge {gauge!r}; use 'landau' or 'symmetric'")
        index = self.site_index()
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


def build_hamiltonian(model: MagneticLatticeModel, gauge: str = "landau") -> np.ndarray:
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
    real_form is True when that eigh ran on the real symmetric form of H,
    False for the complex eigh (and for the blocks).
    """

    projection: HermitianProjection
    fermi_energy: float
    gap_width: float
    real_form: bool
    modes: int


# a 90-degree rotation is accepted when H[p][:, p] == G H G* holds to this
# tolerance on every nonzero entry, and the orbit products of G agree to it
_ROTATION_TOL = 1e-12
# the blocks give the exact projection of a rotation-symmetrized H' = H - E;
# they are kept when the bound on its distance from H's projection,
# ||E|| / (2 gap - ||E||), is at most this, two orders of magnitude inside the
# 1e-8 every projection is validated to.  The Landau phases exp(2 pi i flux x)
# round unevenly in x, so ||E|| grows like N u ||H|| (5.7e-13 at 40 x 40),
# and at the 40 x 40 box's gap of 7.3e-3 the bound reads 3.9e-11
_ROTATION_DRIFT_TOL = 1e-10
# the rounding of one double, u = eps / 2
_UNIT_ROUNDOFF = 0.5 * np.finfo(float).eps


def _rotation_gauge(H: np.ndarray) -> Optional[tuple]:
    """(p, g, c, i, j) for a 90-degree magnetic rotation of H, or None;
    i, j are the rows and columns of H's nonzero entries.

    Only a complex H of side L = sqrt(N), L even, qualifies (a real H takes
    the real form, whose P is exactly real).  Its geometry is read the way
    _real_form_permutation reads it: a full L x L box in x-major order is L
    chains of length L (nonzero H[i, i+1] except at the ends of the chains)
    linked by a nonzero H[i, i+L].  The candidate is the rotation about the
    box centre, p(x, y) = (L-1-y, x); with L even it fixes no site.  The
    diagonal gauge g of H[p][:, p] = G H G* is solved on the chains and the
    first row by cumulative products, g_j = g_i conj(H[p_i, p_j] / H[i, j])
    from g_0 = 1 (in the Landau gauge g = exp(2 pi i flux x (y - L + 1))),
    and normalized to the unit circle.  p is accepted when the
    nonzero pattern maps onto itself, the relation holds on every nonzero
    entry to _ROTATION_TOL, and T = G* R has T^4 = conj(c) for one phase
    c, the product of g over every orbit of p.
    """
    n = H.shape[0]
    side = math.isqrt(n)
    if side * side != n or side % 2 or not H.imag.any():
        return None
    site = np.arange(n)
    if not (np.array_equal(np.diagonal(H, 1) != 0, site[1:] % side != 0)
            and np.all(np.diagonal(H, side) != 0)):
        return None
    x, y = np.divmod(site, side)
    p = (side - 1 - y) * side + x
    # on the diagonal the relation reads H[p_i, p_i] = H[i, i]: a potential
    # that is not C4-invariant (a disorder draw) fails here, in O(N)
    d = np.diagonal(H)
    if np.max(np.abs(d[p] - d)) > _ROTATION_TOL:
        return None
    i, j = np.nonzero(H)
    image = H[p[i], p[j]]
    if np.count_nonzero(image) != len(image):
        return None
    grid = site.reshape(side, side)
    col = np.conj(H[p[grid[:, :-1]], p[grid[:, 1:]]] / H[grid[:, :-1], grid[:, 1:]])
    row = np.conj(H[p[grid[:-1, 0]], p[grid[1:, 0]]] / H[grid[:-1, 0], grid[1:, 0]])
    g = np.ones((side, side), dtype=complex)
    g[1:, 0] = np.cumprod(row)
    g[:, 1:] = g[:, :1] * np.cumprod(col, axis=1)
    g = (g / np.abs(g)).ravel()
    if np.max(np.abs(image - g[i] * H[i, j] * np.conj(g[j]))) > _ROTATION_TOL:
        return None
    orbit = g * g[p] * g[p[p]] * g[p[p[p]]]
    if np.max(np.abs(orbit - orbit[0])) > _ROTATION_TOL:
        return None
    return p, g, orbit[0], i, j


def _gap_width(evals: np.ndarray, fermi: float, min_gap: float) -> float:
    gap = float(np.min(np.abs(evals - fermi)))
    if gap < min_gap:
        raise ValueError(
            f"no spectral gap at fermi energy {fermi:.6f}: nearest eigenvalue "
            f"is {gap:.3e} away; the Fermi projection needs an open gap"
        )
    return gap


def _hermitian_residual(P: np.ndarray) -> float:
    """max |P - P*|, measured on the upper triangle in bands of 128 rows,
    without an N x N temporary."""
    rows = 128
    return max(float(np.max(np.abs(P[k:k + rows, k:] - P[k:, k:k + rows].conj().T)))
               for k in range(0, len(P), rows))


def _block_projection(H, fermi, min_gap, p, g, c, i, j) -> Optional[tuple]:
    """(P, gap width) of the Fermi projection of H as its four rotation-mode
    blocks on their site map, or None when the blocks' H drifts too far
    from H.

    With mu = conj(c)^(1/4), S = T / mu has S^4 = 1 and commutes with H.
    The orbit representatives s_i are the quadrant x, y < L/2, and the node
    vectors f_(i,a) = (S*)^a e_(s_i) = phi_(i,a) e_(p^a s_i) have the phases
    phi_(i,0) = 1, phi_(i,a+1) = phi_(i,a) mu g[p^a s_i].  In that basis S
    shifts the angle a, so H is block-circulant in the projpair convention
    M[(i,a),(j,b)] = (1/4) sum_q B_q[i,j] exp(-2 pi i q (b - a) / 4), and
    its first angular row H[s_i, p^d s_j] phi_(j,d) gives the blocks B_q
    by one FFT over d.  That row is made Hermitian, (k, 0), (l, d) averaged
    with the conjugate of (l, 0), (k, -d), so the blocks are exactly those of
    a Hermitian H' = F M F*.

    H' agrees with H only as far as the rotation holds, to a few
    _ROTATION_TOL per entry, and it has H's nonzero pattern.  E = H - H' is
    measured on that pattern, and ||E|| <= sqrt(||E||_1 ||E||_inf).  The
    Davis-Kahan sin theta theorem bounds the distance of the blocks' P
    from H's own projection: H' keeps the gap g' at fermi, H keeps at
    least g' - ||E|| (Weyl), so ||P - P_H|| <= ||E|| / (2 g' - ||E||).
    Above _ROTATION_DRIFT_TOL the blocks are dropped (None), and the caller
    takes a dense route; the FFT's own rounding, like the dense eigh's, is
    left out of the bound.

    Each block is diagonalized on its own and P_q = V_q V_q* validated by
    the measured from_blocks check.  P keeps the blocks, with node i*4 + a
    at site p^a s_i and phase phi_(i,a); its .matrix is the site-ordered
    P[p^a s_i, p^b s_j] = phi_(i,a) conj(phi_(j,b)) P_f[(i,a),(j,b)].

    P records the residuals of that matrix as .matrix forms it.  P_f has
    the blocks' residuals h_f, r_f and largest squared row norm rho;
    eps = max ||phi|^2 - 1| widens them as in projpair.conjugated, to
    (1 + eps) h_f and (1 + eps)(r_f + eps rho).  Forming an entry (the
    length-4 FFT, two complex products) errs by at most 8u s_ij,
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
    mu = np.exp(-0.25j * np.angle(c))
    phi = [np.ones(len(reps), dtype=complex)]
    for a in range(3):
        phi.append(phi[-1] * mu * g[orbit[a]])
    # the quadrant (x, y) that p^a takes the representatives to; np.rot90 by
    # a takes a representative grid to that quadrant's local grid
    quadrants = [(0, 0), (1, 0), (1, 1), (0, 1)]
    H8 = H.reshape(2, half, 2, half, 2, half, 2, half)
    first = np.stack([
        np.rot90(H8[0, :, 0, :, qx, :, qy, :], -a, axes=(2, 3)).reshape(len(reps), -1)
        * phi[a] for a, (qx, qy) in enumerate(quadrants)])
    first = 0.5 * (first + first[[0, 3, 2, 1]].conj().transpose(0, 2, 1))
    sites = np.stack(orbit, axis=1).ravel()
    phases = np.stack(phi, axis=1).ravel()
    node = np.empty(n, dtype=int)
    node[sites] = np.arange(n)
    phase = phases[node]
    rep, turn = np.divmod(node, 4)
    err = np.abs(H[i, j] - phase[i] * first[(turn[j] - turn[i]) % 4, rep[i], rep[j]]
                 * phase[j].conj())
    drift = float(np.sqrt(np.max(np.bincount(i, err, n)) * np.max(np.bincount(j, err, n))))
    evals, vecs = np.linalg.eigh(4.0 * np.fft.ifft(first, axis=0))
    gap = _gap_width(evals, fermi, min_gap)
    if drift >= gap or drift / (2.0 * gap - drift) > _ROTATION_DRIFT_TOL:
        logger.debug("gap_projection: rotation blocks drift %.1e from H at gap %.3e",
                     drift, gap)
        return None
    blocks = np.empty_like(vecs)
    for q in range(4):
        V = vecs[q][:, evals[q] < fermi]
        Pq = V @ V.conj().T
        blocks[q] = 0.5 * (Pq + Pq.conj().T)
    Pf = HermitianProjection.from_blocks(blocks, idempotency_tol=1e-8)
    rho = float(np.max(np.sum(np.abs(blocks) ** 2, axis=(0, 2)))) / 4.0
    eps = float(np.max(np.abs(np.abs(phases) ** 2 - 1.0)))
    u = _UNIT_ROUNDOFF
    herm = (1.0 + eps) * Pf.hermitian_residual + 16.0 * u * np.sqrt(rho)
    resid = ((1.0 + eps) * (Pf.idempotency_residual + eps * rho)
             + 8.0 * u * (4.0 * rho + np.sqrt(rho)))
    return HermitianProjection.with_residuals(blocks, 1e-8, herm, resid,
                                              sites, phases), gap


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
    if r is None:
        evals, vecs = np.linalg.eigh(H)
    else:
        evals, vecs = np.linalg.eigh(H.real - H.imag[:, r])
    gap = _gap_width(evals, fermi, min_gap)
    X = vecs[:, evals < fermi]
    del vecs
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
    # 0.5 (A + A*), formed with one N x N temporary
    P = np.conjugate(A.T, out=np.empty_like(A))
    P += A
    del A
    P *= 0.5
    return HermitianProjection.with_residuals(P[None], 1e-8, _hermitian_residual(P),
                                              resid), gap


def gap_projection(H: np.ndarray, fermi: float, min_gap: float = 1e-9) -> GapProjection:
    """Spectral projection below fermi, refused when fermi touches spectrum.

    The index theory requires the Fermi energy to sit in an open spectral
    gap; an eigenvalue within min_gap of fermi means the projection is not
    stably defined and the call is rejected.

    Three routes give the same P, each chosen by a symmetry checked on H
    itself:
    - a 90-degree magnetic rotation about the box centre (_rotation_gauge:
      a square, even-sided box) splits H into four N/4 x N/4
      rotation-mode blocks, each diagonalized on its own
      (_block_projection), kept while the Davis-Kahan bound on the
      distance of their P from H's own projection is at most
      _ROTATION_DRIFT_TOL.  P keeps the four blocks on their site map, so
      lattice_index and decay_fit stay in the blocks; P.matrix, the dense
      site-ordered P, is assembled only when it is read;
    - otherwise, when an involutive permutation R with R H R = conj(H)
      holds exactly (_real_form_permutation), S = exp(-i pi/4)(1 + iR)/sqrt 2
      is unitary and S* H S = Re H - (Im H)[:, r] is real symmetric: the
      real eigh of that matrix gives eigenvectors W, and V = S W =
      (W + i W[r])(1 - i)/2 are those of H;
    - every other H takes the complex eigh, which is also the test oracle
      of the other two.
    The two dense routes give the dense, site-ordered P, the stack of one
    block.  On every route P carries its idempotency residual, bounded from
    quantities the route already holds (_block_projection,
    _dense_projection), in place of the N^3 product P @ P; the Hermitian
    residual is measured on the dense P, at O(N^2), and bounded on the
    blocks.
    """
    n = H.shape[0]
    rotation = _rotation_gauge(H)
    found = None if rotation is None else _block_projection(H, fermi, min_gap, *rotation)
    if found is not None:
        modes, r, route = 4, None, f"4 rotation blocks of {n // 4}"
    else:
        r = _real_form_permutation(H)
        modes, route = 1, "complex" if r is None else "real-form"
        found = _dense_projection(H, fermi, min_gap, r)
    P, gap = found
    logger.debug("gap_projection: %s eigh, N = %d", route, n)
    return GapProjection(projection=P, fermi_energy=float(fermi), gap_width=gap,
                         real_form=r is not None, modes=modes)


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

    M is formed on P's nodes, where the site phases of a site map cancel
    from every diagonal entry.  P's rotation-mode blocks (the clean square
    box) are kept when conjugated keeps them, with the flux at the rotation
    centre, and when the window is constant on every orbit, as a disk about
    that centre is: the window then commutes with the rotation, and the sum
    is taken block by block, on k blocks of N/k.  Otherwise M is the dense
    matrix on the nodes, and the same sum runs on the stack of one.
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
    P = getattr(P, "projection", P)
    M = difference(P, conjugated(P, U.diagonal))
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

    The magnitudes are read on P's nodes, where a site map's phases drop
    out.  On the k rotation-mode blocks of the clean square box the nodal
    blocks N_t = fft(B)/k hold every entry: node (i, a) sits at site
    p^a s_i, and the rotation p is an isometry, so the pair ((i, a),
    (j, a + t)) lies at the distance |s_i - p^t s_j| for every a, and k n^2
    pairs cover all N^2.  A dense P is the one block, binned at the
    distances of all its site pairs.
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
