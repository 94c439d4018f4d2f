"""Gauge unitaries (flux tubes), switch profiles, and winding numbers.

A flux tube of N quanta at a point c is the singular gauge transformation
u(x) = ((z - c)/|z - c|)^N, z the complex position of x: unimodular on the
punctured plane, with winding N around c.  Multiplying a projection kernel
by it models threading N flux quanta through c.  The tube is its winding
and its centre; every value is computed from those two numbers.  A switch
is the tanh profile rising from 0 to 1 across a wall, likewise a record of
two numbers, its scale and its centre; switches enter the Hall-transport
module as the voltage-drop gauge functions.  Windings are read on a
fluxlab.grids ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fluxlab.grids import ring


@dataclass(frozen=True)
class GaugeUnitary:
    """The flux tube ((z - c)/|z - c|)^winding about c = singularity.

    The winding must be a whole number of flux quanta: the index integrals
    this unitary feeds diverge for fractional flux.  The centre must be
    finite.  Both are checked once, here.  For a nonzero winding the value
    is undefined (nan) at the centre itself; it is exactly 1 on the ray
    from c along +x (branch convention).
    """

    winding: int
    singularity: tuple = (0.0, 0.0)

    def __post_init__(self):
        if not float(self.winding).is_integer():
            raise ValueError(
                f"winding must be an integer number of flux quanta, got {self.winding}; "
                "the index integrals diverge for fractional flux"
            )
        cx, cy = (float(t) for t in self.singularity)
        if not (math.isfinite(cx) and math.isfinite(cy)):
            raise ValueError(f"flux center ({cx}, {cy}) is not finite")
        object.__setattr__(self, "winding", int(self.winding))
        object.__setattr__(self, "singularity", (cx, cy))

    def at(self, z: np.ndarray) -> np.ndarray:
        """u at the complex positions z."""
        w = z - complex(*self.singularity)
        # 0/0 at the centre is nan, and so is any nonzero power of it
        with np.errstate(invalid="ignore"):
            return (w / np.abs(w)) ** self.winding

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """u at an (..., 2) array of planar points."""
        pts = np.asarray(points, dtype=float)
        return self.at(pts[..., 0] + 1j * pts[..., 1])

    __call__ = evaluate


def flux_unitary(alpha: int) -> GaugeUnitary:
    """The power flux unitary (z/|z|)^alpha with singularity at the origin."""
    return GaugeUnitary(alpha)


def translate_unitary(u: GaugeUnitary, t) -> GaugeUnitary:
    """x -> u(x - t): same winding, singularity shifted by t."""
    return GaugeUnitary(u.winding, (u.singularity[0] + t[0], u.singularity[1] + t[1]))


def product_unitary(u: GaugeUnitary, v: GaugeUnitary) -> GaugeUnitary:
    """Pointwise product; windings add.  Requires the same singularity."""
    if u.singularity != v.singularity:
        raise ValueError("product supported only for unitaries sharing a singularity, "
                         f"got {u.singularity} and {v.singularity}")
    return GaugeUnitary(u.winding + v.winding, u.singularity)


def numerical_winding(u: GaugeUnitary) -> float:
    """Accumulated phase of u, over 2pi, along the unit circle around its
    singularity: principal-branch increments between 4096 ring nodes, exact
    while each stays below pi (~ winding/650 for the built-in unitaries)."""
    theta, _ = ring(4096)
    cx, cy = u.singularity
    pts = np.column_stack([cx + np.cos(theta), cy + np.sin(theta)])
    vals = u.evaluate(pts)
    rolled = np.roll(vals, -1)
    increments = np.angle(rolled / vals)
    return float(np.sum(increments) / (2.0 * np.pi))


@dataclass(frozen=True)
class Switch:
    """The tanh switch (1 + tanh((x - center)/scale)) / 2.

    It rises monotonically from 0 to 1 across a wall of width `scale` at
    `center`, and its closed-form primitive feeds the box-transport engine.
    The scale must be positive and finite and the centre finite; both are
    checked once, here, and stored as floats, so switches compare, hash and
    pickle.
    """

    scale: float
    center: float = 0.0

    def __post_init__(self):
        scale, center = float(self.scale), float(self.center)
        if not 0.0 < scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {scale}")
        if not math.isfinite(center):
            raise ValueError(f"center must be finite, got {center}")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "center", center)

    def evaluate(self, x) -> np.ndarray:
        """The switch at the positions x."""
        return 0.5 * (1.0 + np.tanh((np.asarray(x, dtype=float) - self.center) / self.scale))

    __call__ = evaluate

    def antiderivative(self, x) -> np.ndarray:
        """A primitive of the switch at x: (x - c + scale log cosh((x - c)/scale)) / 2,
        with log cosh written so that it does not overflow."""
        d = np.asarray(x, dtype=float) - self.center
        t = d / self.scale
        logcosh = np.abs(t) + np.log1p(np.exp(-2.0 * np.abs(t))) - np.log(2.0)
        return 0.5 * (d + self.scale * logcosh)


def tanh_switch(scale: float) -> Switch:
    """The tanh switch of the given scale, centred at the origin."""
    return Switch(scale)
