"""Gauge unitaries (flux tubes), switch profiles, and winding numbers.

A flux tube of N quanta at a point c is the singular gauge transformation
u(x) = ((z - c)/|z - c|)^N, z the complex position of x: unimodular on the
punctured plane, with winding N around c.  Multiplying a projection kernel
by it models threading N flux quanta through c.  The tube is its winding
and its centre; every value is computed from those two numbers.  Switches
are monotone profiles rising from 0 to 1 across a wall; they enter the
Hall-transport module as the voltage-drop gauge functions.  Windings are
read on a fluxlab.grids ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

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
    """Monotone profile rising from 0 to 1 across a wall at `center`.

    antiderivative, when provided, is a closed-form primitive of evaluate
    used by the box-transport engine; otherwise that engine falls back to
    1D quadrature.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    center: float = 0.0
    scale: float = 1.0
    antiderivative: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.evaluate(x)


def tanh_switch(scale: float, center: float = 0.0) -> Switch:
    """(1 + tanh((x - center)/scale)) / 2 with a closed-form primitive."""
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if not abs(center) < float("inf"):
        raise ValueError(f"center must be finite, got {center}")

    def evaluate(x):
        return 0.5 * (1.0 + np.tanh((np.asarray(x, dtype=float) - center) / scale))

    def antiderivative(x):
        t = (np.asarray(x, dtype=float) - center) / scale
        logcosh = np.abs(t) + np.log1p(np.exp(-2.0 * np.abs(t))) - np.log(2.0)
        return 0.5 * ((np.asarray(x, dtype=float) - center) + scale * logcosh)

    return Switch(
        evaluate=evaluate,
        center=center,
        scale=scale,
        antiderivative=antiderivative,
    )
