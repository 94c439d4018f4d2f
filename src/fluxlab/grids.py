"""Quadrature grids: every Gauss-Legendre rule, ring and default grid.

Every continuum route integrates over the plane on one of two grid shapes:
a polar disk (DiskGrid: a radial rule times the equal-angle ring, a layout
every DiskGrid records and checks when it is built) or a square
(TensorGrid: one Gauss-Legendre rule per axis).  The default grids
grow with the Landau level m of the kernel they integrate:

- truncation disk (landau.truncated_projection_pair): radius 8 + 3m,
  40 + 8m radial times 72 + 18m angular nodes;
- index square (quadrature.index_integral_4d): half side 7 + 1.5m,
  46 + 8m nodes per axis;
- transport square (the hall routes): half side 7.5 + 1.5m, 52 + 8m nodes
  per axis.

The connes_area regions take their radial rules and rings from here too.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss


@lru_cache(maxsize=64)
def _unit_rule(n: int):
    """The n-point rule on [-1, 1], built once per n and stored read-only."""
    x, w = leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre(a: float, b: float, n: int):
    """n-point Gauss-Legendre nodes and weights on [a, b].

    Exact for polynomials of degree up to 2n - 1.  The nodes are mid + half x
    for the rule x on [-1, 1], so on a symmetric interval [-L, L] they are
    exactly L x and the rule is antisymmetric bit for bit.  The [-1, 1] rule
    is built once per n; the returned arrays are always fresh.
    """
    x, w = _unit_rule(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid + half * x, half * w


def ring(count: int):
    """Angles 2 pi a / count for a = 0..count-1 and their common weight.

    The equal-angle trapezoid rule, exact for trigonometric polynomials of
    degree below count.
    """
    return 2.0 * np.pi * np.arange(count) / count, 2.0 * np.pi / count


class _ArrayFields:
    """== of two grids of one class: every field equal, arrays entrywise."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    __hash__ = None


@dataclass(frozen=True, eq=False)
class DiskGrid(_ArrayFields):
    """Quadrature nodes and weights covering a disk around the origin, in a
    polar layout of radial_nodes rings of angular_nodes nodes each.

    Node i*A + a (A = angular_nodes) is node i*A turned by the angle
    2 pi a / A about the origin and carries its weight; polar_grid puts
    node i*A on the +x axis.  A grid with no rotation symmetry is the layout
    (N, 1): N rings of one node each.  The layout is checked once, here.
    """

    nodes: np.ndarray
    weights: np.ndarray
    radius: float
    radial_nodes: int
    angular_nodes: int

    def __post_init__(self):
        count = self.radial_nodes * self.angular_nodes
        bad = (min(self.radial_nodes, self.angular_nodes) < 1
               or self.nodes.shape != (count, 2) or self.weights.shape != (count,))
        if not bad:
            z = self.nodes[:, 0] + 1j * self.nodes[:, 1]
            z = z.reshape(-1, self.angular_nodes)
            w = self.weights.reshape(z.shape)
            theta, _ = ring(self.angular_nodes)
            off = np.max(np.abs(z - z[:, :1] * np.exp(1j * theta)[None, :]))
            bad = off > 1e-12 * max(1.0, self.radius) or np.any(w != w[:, :1])
        if bad:
            raise ValueError(
                "grid nodes or weights do not follow the recorded polar layout")


def polar_nodes(center: complex, r: np.ndarray, w: np.ndarray, angular_nodes: int):
    """Radii r with weights w times the equal-angle ring, around center.

    w carries the radial measure (r dr for a rule in r, dt/2 for a rule in
    t = r^2).  Returns the complex nodes center + r_i exp(2 pi i a / A) and
    their weights w_i 2 pi / A as (len(r), A) arrays, A = angular_nodes.
    """
    theta, dtheta = ring(angular_nodes)
    return (center + r[:, None] * np.exp(1j * theta)[None, :],
            w[:, None] * np.full(angular_nodes, dtheta)[None, :])


def polar_grid(r: np.ndarray, w: np.ndarray, angular_nodes: int,
               radius: float) -> DiskGrid:
    """polar_nodes around the origin as a DiskGrid of that radial-major
    polar layout."""
    z, wz = polar_nodes(0.0, r, w, angular_nodes)
    return DiskGrid(nodes=np.column_stack([z.real.ravel(), z.imag.ravel()]),
                    weights=wz.ravel(), radius=radius, radial_nodes=len(r),
                    angular_nodes=angular_nodes)


def polar_disk_grid(radius: float = 8.0, radial_nodes: int = 40,
                    angular_nodes: int = 72) -> DiskGrid:
    """Gauss-Legendre radii on [0, radius] times equal angles; weights
    include the area element.  The radius must be positive and finite."""
    if not 0.0 < radius < float("inf"):
        raise ValueError(f"disk radius must be positive and finite, got {radius!r}")
    r, w = gauss_legendre(0.0, radius, radial_nodes)
    return polar_grid(r, w * r, angular_nodes, radius)


def level_disk_radius(m: int) -> float:
    """Default truncation radius 8 + 3m for the level-m pair."""
    return 8.0 + 3.0 * m


def level_disk_grid(m: int, radius: float = None) -> DiskGrid:
    """Truncation disk sized to Landau level m (see the module docstring).

    The boundary deficit of the truncated pair grows with the level and
    falls roughly as 1/R^2, so the disk grows with the level.  An explicit
    radius replaces level_disk_radius(m); the node counts follow the level.
    """
    if m < 0:
        raise ValueError(f"level must be nonnegative, got {m}")
    if radius is None:
        radius = level_disk_radius(m)
    return polar_disk_grid(radius, 40 + 8 * m, 72 + 18 * m)


@dataclass(frozen=True, eq=False)
class TensorGrid(_ArrayFields):
    """Tensor product of two Gauss-Legendre axes.

    Node a * len(v) + b sits at (u[a], v[b]) and carries the weight
    wu[a] * wv[b].
    """

    u: np.ndarray
    v: np.ndarray
    wu: np.ndarray
    wv: np.ndarray

    @property
    def nodes(self) -> np.ndarray:
        X1, X2 = np.meshgrid(self.u, self.v, indexing="ij")
        return np.column_stack([X1.ravel(), X2.ravel()])

    @property
    def weights(self) -> np.ndarray:
        return np.outer(self.wu, self.wv).ravel()

    def shifted(self, x) -> "TensorGrid":
        """The same grid with every node moved by the planar point x."""
        return TensorGrid(self.u + x[0], self.v + x[1], self.wu, self.wv)


def square_grid(half_side: float, nodes_per_axis: int) -> TensorGrid:
    """Gauss-Legendre nodes on [-L, L]^2 with product weights.  The half side
    must be positive and finite."""
    if not 0.0 < half_side < float("inf"):
        raise ValueError(f"square half side must be positive and finite, got {half_side!r}")
    x, w = gauss_legendre(-half_side, half_side, nodes_per_axis)
    return TensorGrid(x, x, w, w)


# level-0 half side and nodes per axis of the default squares; each level
# adds 1.5 to the half side and 8 nodes per axis
_LEVEL_SQUARES = {"index": (7.0, 46), "transport": (7.5, 52)}


def level_square_grid(m: int, route: str, spec=None) -> TensorGrid:
    """Default square of the "index" or "transport" route for level m (see
    the module docstring).  A quadrature.QuadratureSpec, which only
    index_integral_4d passes, replaces the half side with its outer_radius
    and the node count with its radial_nodes, each when set."""
    side, nodes = _LEVEL_SQUARES[route]
    half_side = getattr(spec, "outer_radius", None)
    n = getattr(spec, "radial_nodes", None)
    return square_grid(side + 1.5 * m if half_side is None else half_side,
                       nodes + 8 * m if n is None else n)
