"""Magnetic tight-binding lattice: the desk-scale testbed for index stability.

A uniform field enters through Peierls phases on nearest-neighbor bonds
(Landau gauge by default), the Fermi projection comes from exact
diagonalization, and the flux-insertion index is read off as a windowed
diagonal sum of (P - uPu*)^(2n+1).  The full trace of that odd power
vanishes identically in finite dimension (u conjugation is a similarity),
so the lattice index must be localized: the diagonal carries a bump of
integrated weight equal to the index near the flux insertion point,
compensated by boundary weight far away, and the window isolates the bump.

The Landau-gauge box has an antiunitary symmetry that the diagonalization
uses: the y-bond phases exp(2 pi i flux x) depend only on x, so the
reflection y -> height - 1 - y within each column flips the field and
complex conjugation flips it back.  A permutation r with
H[r][:, r] == conj(H) makes H unitarily equivalent to a real symmetric
matrix, and gap_projection diagonalizes that one in real arithmetic.  The
symmetry is checked exactly on the matrix, not assumed from the model; a
matrix without it (a disorder draw, the symmetric gauge) takes the complex
eigh.
"""

from __future__ import annotations

import logging
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from fluxlab.projpair import (HermitianProjection, IndexReport, check_unitary,
                              conjugated, trace_report)

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

    def sites(self) -> list:
        """Active (x, y) sites in column-major order (x outer, y inner)."""
        mask = self.domain_mask
        return [(x, y) for x in range(self.width) for y in range(self.height)
                if mask is None or mask[x, y]]


def _bond_phase(model: MagneticLatticeModel, x: int, y: int, dy: int, gauge: str):
    """Peierls phase on the bond leaving (x, y) in the +x (dy=0) or +y
    (dy=1) direction."""
    flux = float(model.flux_per_plaquette)
    if gauge == "landau":
        return np.exp(2j * np.pi * flux * x) if dy else 1.0 + 0.0j
    if gauge == "symmetric":
        if dy:
            return np.exp(1j * np.pi * flux * x)
        return np.exp(-1j * np.pi * flux * y)
    raise ValueError(f"unknown gauge {gauge!r}; use 'landau' or 'symmetric'")


def _check_connected(sites: list):
    index = set(sites)
    seen = {sites[0]}
    queue = deque([sites[0]])
    while queue:
        x, y = queue.popleft()
        for t in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if t in index and t not in seen:
                seen.add(t)
                queue.append(t)
    if len(seen) != len(sites):
        warnings.warn(
            f"domain mask is disconnected: {len(sites) - len(seen)} of "
            f"{len(sites)} sites unreachable from {sites[0]}",
            stacklevel=3,
        )


def build_hamiltonian(model: MagneticLatticeModel, gauge: str = "landau") -> np.ndarray:
    """Nearest-neighbor hopping (-1) with Peierls phases plus the on-site
    potential, restricted to the masked domain.

    The product of bond phases around any interior plaquette, taken
    counterclockwise in matrix-element order H[0,1] H[1,2] H[2,3] H[3,0],
    equals exp(2 pi i flux); Hermiticity holds by construction.
    """
    sites = model.sites()
    if not sites:
        raise ValueError("domain mask removes every site")
    _check_connected(sites)
    idx = {s: i for i, s in enumerate(sites)}
    n = len(sites)
    H = np.zeros((n, n), dtype=complex)
    pot = model.potential
    for (x, y) in sites:
        i = idx[(x, y)]
        if pot is not None:
            H[i, i] = pot[x, y]
        for dy, t in enumerate(((x + 1, y), (x, y + 1))):
            j = idx.get(t)
            if j is not None:
                phase = _bond_phase(model, x, y, dy, gauge)
                H[i, j] = -phase
                H[j, i] = -np.conj(phase)
    return H


def plaquette_phase(model: MagneticLatticeModel, H: np.ndarray, x: int, y: int) -> complex:
    """Product of the four bond terms around the plaquette at (x, y),
    normalized by the hopping magnitude; equals exp(2 pi i flux) for interior
    plaquettes."""
    idx = {s: i for i, s in enumerate(model.sites())}
    loop = [(x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1)]
    if any(s not in idx for s in loop):
        raise ValueError(f"plaquette at ({x}, {y}) is not fully inside the domain")
    ids = [idx[s] for s in loop]
    prod = 1.0 + 0.0j
    for a, b in zip(ids, ids[1:] + ids[:1]):
        prod *= -H[a, b]
    return complex(prod)


@dataclass(frozen=True)
class GapProjection:
    """Fermi projection of a gapped Hamiltonian.

    gap_width is the distance from the Fermi energy to the nearest
    eigenvalue; the projection sums every eigenvector below the Fermi
    energy.  real_form records the route: True when the eigenvectors came
    from the real symmetric form of H, False for the complex eigh.
    """

    projection: HermitianProjection
    fermi_energy: float
    gap_width: float
    real_form: bool


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


def gap_projection(H: np.ndarray, fermi: float, min_gap: float = 1e-9) -> GapProjection:
    """Spectral projection below fermi, refused when fermi touches spectrum.

    The index theory requires the Fermi energy to sit in an open spectral
    gap; an eigenvalue within min_gap of fermi means the projection is not
    stably defined and the call is rejected.

    When an involutive permutation R with R H R = conj(H) holds exactly
    (_real_form_permutation), S = exp(-i pi/4) (1 + iR)/sqrt(2) is unitary
    and S* H S = Re H - (Im H)[:, r] is real symmetric: the real eigh of
    that matrix gives eigenvectors W, and V = S W = (W + i W[r])(1 - i)/2
    are those of H.  A real eigh costs a fraction of a complex one of the
    same size.  Every other H takes the complex eigh, which is also the
    test oracle of the real route.
    """
    r = _real_form_permutation(H)
    logger.debug("gap_projection: %s eigh, N = %d",
                 "complex" if r is None else "real-form", H.shape[0])
    if r is None:
        evals, vecs = np.linalg.eigh(H)
    else:
        evals, vecs = np.linalg.eigh(H.real - H.imag[:, r])
    gap = float(np.min(np.abs(evals - fermi)))
    if gap < min_gap:
        raise ValueError(
            f"no spectral gap at fermi energy {fermi:.6f}: nearest eigenvalue "
            f"is {gap:.3e} away; the Fermi projection needs an open gap"
        )
    sel = evals < fermi
    V = vecs[:, sel]
    if r is not None:
        # (1 - i)/2 = exp(-i pi/4)/sqrt(2) exactly; for the identity r the
        # imaginary part cancels exactly and P comes out real
        V = (V + 1j * V[r]) * (0.5 - 0.5j)
    P = V @ V.conj().T
    P = 0.5 * (P + P.conj().T)
    return GapProjection(
        projection=HermitianProjection(P, idempotency_tol=1e-8),
        fermi_energy=float(fermi),
        gap_width=gap,
        real_form=r is not None,
    )


@dataclass(frozen=True, eq=False)
class LatticeFluxUnitary:
    """Diagonal flux-insertion unitary that remembers its site geometry.

    Only the diagonal is stored; it is validated as a diagonal UnitaryMatrix
    is.  The windowed index needs the flux center and the site coordinates,
    so the lattice constructor returns this carrier instead of a bare matrix.
    """

    diagonal: np.ndarray
    center: tuple = (0.0, 0.0)
    site_array: np.ndarray = None
    unitarity_tol: float = 1e-10

    def __post_init__(self):
        check_unitary(self.diagonal, self.unitarity_tol)


def lattice_flux_unitary(model: MagneticLatticeModel, center) -> LatticeFluxUnitary:
    """Diagonal of (z - center)/|z - center| over the lattice sites.

    The center must avoid the sites themselves (offset it by half a lattice
    constant); a site exactly at the center would get an undefined phase.
    """
    cx, cy = float(center[0]), float(center[1])
    pos = np.array(model.sites(), dtype=float)
    z = (pos[:, 0] - cx) + 1j * (pos[:, 1] - cy)
    dist = np.abs(z)
    if np.min(dist) < 1e-9:
        bad = pos[int(np.argmin(dist))]
        raise ValueError(
            f"flux center ({cx}, {cy}) coincides with site ({bad[0]:.0f}, "
            f"{bad[1]:.0f}); offset it by half a lattice constant"
        )
    u = z / dist
    return LatticeFluxUnitary(
        diagonal=u,
        center=(cx, cy),
        site_array=pos,
    )


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
    """
    if getattr(U, "site_array", None) is None:
        raise ValueError(
            "unitary carries no site geometry; build it with lattice_flux_unitary"
        )
    pos = U.site_array
    cx, cy = U.center
    margin = min(
        cx - pos[:, 0].min(), pos[:, 0].max() - cx,
        cy - pos[:, 1].min(), pos[:, 1].max() - cy,
    )
    if margin < 5.0:
        logger.warning(
            "flux center (%.1f, %.1f) is %.1f sites from the domain boundary; "
            "finite-size effects may dominate", cx, cy, margin,
        )
    if n < 1:
        raise ValueError(f"trace power n must be at least 1, got {n}")
    P = getattr(P, "projection", P)
    M = P.matrix - conjugated(P, U.diagonal).matrix
    Y = M[np.hypot(pos[:, 0] - cx, pos[:, 1] - cy) <= window_radius]
    for _ in range(n - 1):
        Y = Y @ M
    rep = trace_report(complex(np.vdot(Y, Y @ M)), "windowed odd trace", 2 * n + 1)
    if rep.residual > 0.1:
        logger.warning(
            "windowed index %.4f is %.3f from the nearest integer; "
            "finite-size unreliable", rep.value, rep.residual,
        )
    return rep


def wedge_experiment(model: MagneticLatticeModel, center, fermi: float,
                     n: int = 1) -> IndexReport:
    """Flux-insertion index on a masked domain.

    With the domain restricted to a wedge whose closure excludes the flux
    center, the index must vanish; with the flux enclosed (half plane, full
    plane) it matches the unmasked value.  This driver just wires the masked
    model through the standard pipeline.
    """
    H = build_hamiltonian(model)
    gp = gap_projection(H, fermi)
    U = lattice_flux_unitary(model, center)
    return lattice_index(gp, U, n=n)


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
                       U: LatticeFluxUnitary, n: int = 1) -> list:
    """Windowed index for each disorder seed; constancy is the point.

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
        reports.append(lattice_index(gp, U, n=n))
    return reports


def decay_fit(P, model: MagneticLatticeModel, d_min: float = 3.0) -> tuple:
    """Least-squares decay rate of log max|p(x, y)| against site distance.

    Accepts either a GapProjection or a bare HermitianProjection.  Bins all
    site pairs by Euclidean distance in one pass (unit-width bins from d_min
    to half the smaller side), takes the largest kernel magnitude per bin,
    and fits a line to the logs.  Returns (slope, r_squared); a gapped Fermi
    projection decays exponentially, so the slope must come out negative.
    """
    if model.width < 20 or model.height < 20:
        raise ValueError(
            f"domain {model.width}x{model.height} too small for a decay fit; "
            "need at least 20x20"
        )
    d_max = min(model.width, model.height) / 2.0
    pos = np.array(model.sites(), dtype=float)
    dx = np.subtract.outer(pos[:, 0], pos[:, 0])
    dy = np.subtract.outer(pos[:, 1], pos[:, 1])
    dist = np.sqrt(dx ** 2 + dy ** 2).ravel()
    bins = np.arange(d_min, d_max + 1.0)
    # bin k holds the pairs with bins[k] - 0.5 <= dist < bins[k] + 0.5; a
    # pair below the first bin gets k = -1 and meets the upper edge -inf
    k = np.searchsorted(bins - 0.5, dist, side="right") - 1
    inside = dist < np.append(bins + 0.5, -np.inf)[k]
    top = np.full(len(bins), -1.0)
    A = np.abs(getattr(P, "projection", P).matrix).ravel()
    np.maximum.at(top, k[inside], A[inside])
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
