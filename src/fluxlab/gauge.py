"""Gauge unitaries (flux tubes), switch profiles, and winding numbers.

A flux unitary is a unimodular function on the punctured plane with integer
winding around its singularity; multiplying a projection kernel by it models
threading flux quanta through one point.  Switches are monotone profiles
rising from 0 to 1 across a wall; they enter the Hall-transport module as the
voltage-drop gauge functions.  Windings are read on a fluxlab.grids ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from fluxlab.grids import ring


@dataclass(frozen=True)
class GaugeUnitary:
    """Unimodular function with an integer winding around one singularity.

    evaluate maps an (..., 2) array of points to unit-modulus complex values;
    it is undefined (nan) at the singularity itself.  lipschitz_c1 is the
    constant c1 of the ratio bound |u(x+y) - u(y)| <= c1 |x| / |y|, valid
    for |x| <= |y| / 2, that sizes the connes_area far field; it must be
    finite and nonnegative.

    flux_power is set for the pure power form (z/|z|)^alpha and lets
    downstream code evaluate phase differences of u by stable planar
    geometry instead of complex arithmetic; it is None for general unitaries.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    winding: int
    singularity: tuple = (0.0, 0.0)
    lipschitz_c1: float = 2.0
    flux_power: Optional[int] = None

    def __post_init__(self):
        if not 0.0 <= self.lipschitz_c1 < float("inf"):
            raise ValueError(
                f"lipschitz_c1 must be finite and nonnegative, got {self.lipschitz_c1!r}")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.evaluate(points)


def flux_unitary(alpha: int) -> GaugeUnitary:
    """The power flux unitary (z/|z|)^alpha with singularity at the origin.

    Fractional alpha is rejected: the index integrals this unitary feeds
    diverge for non-integer winding, so only whole flux quanta are modeled.
    On the positive real axis the value is exactly 1 (branch convention).
    """
    if not float(alpha).is_integer():
        raise ValueError(
            f"winding must be an integer number of flux quanta, got {alpha}; "
            "the index integrals diverge for fractional flux"
        )
    alpha = int(alpha)

    def evaluate(points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        z = pts[..., 0] + 1j * pts[..., 1]
        # 0/0 at the singularity is nan, and so is any power of it
        with np.errstate(invalid="ignore"):
            return (z / np.abs(z)) ** alpha

    return GaugeUnitary(
        evaluate=evaluate,
        winding=alpha,
        singularity=(0.0, 0.0),
        lipschitz_c1=2.0 * abs(alpha),
        flux_power=alpha,
    )


def translate_unitary(u: GaugeUnitary, t) -> GaugeUnitary:
    """x -> u(x - t): same winding, singularity shifted by t."""
    t = np.asarray(t, dtype=float)

    def evaluate(points: np.ndarray) -> np.ndarray:
        return u.evaluate(np.asarray(points, dtype=float) - t)

    sx, sy = u.singularity
    return GaugeUnitary(
        evaluate=evaluate,
        winding=u.winding,
        singularity=(sx + float(t[0]), sy + float(t[1])),
        lipschitz_c1=u.lipschitz_c1,
        flux_power=u.flux_power,
    )


def product_unitary(u: GaugeUnitary, v: GaugeUnitary) -> GaugeUnitary:
    """Pointwise product; windings add.  Requires a common singularity."""
    if not np.allclose(u.singularity, v.singularity):
        raise ValueError("product supported only for unitaries sharing a singularity")

    def evaluate(points: np.ndarray) -> np.ndarray:
        return u.evaluate(points) * v.evaluate(points)

    same_power_form = u.flux_power is not None and v.flux_power is not None
    return GaugeUnitary(
        evaluate=evaluate,
        winding=u.winding + v.winding,
        singularity=u.singularity,
        lipschitz_c1=u.lipschitz_c1 + v.lipschitz_c1,
        flux_power=(u.flux_power + v.flux_power) if same_power_form else None,
    )


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
