"""Quadrature grids: Gauss-Legendre rules, polar rings, level-sized defaults,
and the guard that keeps every grid builder in fluxlab.grids."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import fluxlab
from fluxlab import gauge, grids, quadrature
from fluxlab.cli import _sample_triangle
from fluxlab.grids import (DiskGrid, gauss_legendre, level_square_grid,
                           polar_disk_grid, polar_grid, ring, square_grid)
from fluxlab.hall import kubo_box
from fluxlab.landau import landau_kernel, truncated_projection_pair
from fluxlab.quadrature import QuadratureSpec, index_integral_4d, triple_wedge

SRC = Path(fluxlab.__file__).resolve().parent


@pytest.mark.parametrize("a, b", [
    (1e-3, 0.9),                        # a connes_area patch [eps, r2]
    (0.0, 8.0),                         # a disk radius [0, R]
    (math.log(7.5), math.log(2.0e3)),   # a log-radial far field
], ids=["patch", "disk", "log-radial"])
@pytest.mark.parametrize("n", [1, 4, 9])
def test_gauss_legendre_exact_to_degree_2n_minus_1(a, b, n):
    x, w = gauss_legendre(a, b, n)
    assert np.all((a < x) & (x < b))
    for k in range(2 * n):
        exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
        assert np.sum(w * x ** k) == pytest.approx(exact, rel=1e-13)
    # and no further: the centred monomial of degree 2n is not integrated
    half = 0.5 * (b - a)
    exact = 2.0 * half ** (2 * n + 1) / (2 * n + 1)
    assert abs(np.sum(w * (x - 0.5 * (a + b)) ** (2 * n)) - exact) > 1e-6 * exact


@pytest.mark.parametrize("n", [20, 31, 46, 52])
@pytest.mark.parametrize("half_side", [6.0, 7.5, 8.5])
def test_symmetric_rule_is_scaled_leggauss_and_antisymmetric(n, half_side):
    x, w = gauss_legendre(-half_side, half_side, n)
    xs, ws = leggauss(n)
    assert np.array_equal(x, xs * half_side)
    assert np.array_equal(w, ws * half_side)
    # kubo_box relies on the exact cancellation of the odd part
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])
    grid = square_grid(half_side, n)
    assert np.array_equal(grid.x, x) and np.array_equal(grid.w, w)


def test_gauss_legendre_returns_fresh_arrays_over_a_read_only_rule():
    x, w = gauss_legendre(-2.0, 2.0, 12)
    x[:] = 0.0
    w[:] = 0.0
    x2, w2 = gauss_legendre(-2.0, 2.0, 12)
    xs, ws = leggauss(12)
    assert np.array_equal(x2, 2.0 * xs) and np.array_equal(w2, 2.0 * ws)
    base_x, base_w = grids._unit_rule(12)
    assert not base_x.flags.writeable and not base_w.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        base_x[0] = 0.0


def test_connes_area_builds_each_rule_once(monkeypatch):
    # twenty triangles ask for three rules each; only the distinct node
    # counts are built
    built, asked = [], []
    real_leggauss, real_rule = grids.leggauss, quadrature.gauss_legendre

    def counting_leggauss(n):
        built.append(n)
        return real_leggauss(n)

    def counting_rule(a, b, n):
        asked.append(n)
        return real_rule(a, b, n)

    monkeypatch.setattr(grids, "leggauss", counting_leggauss)
    monkeypatch.setattr(quadrature, "gauss_legendre", counting_rule)
    grids._unit_rule.cache_clear()
    rng = np.random.default_rng(7)
    u = gauge.flux_unitary(1)
    for _ in range(20):
        quadrature.connes_area(u, _sample_triangle(rng))
    assert len(asked) == 60
    assert sorted(built) == sorted(set(asked))


def test_ring_is_equal_angles():
    theta, dtheta = ring(8)
    assert np.array_equal(theta, 2.0 * np.pi * np.arange(8) / 8)
    assert dtheta == 2.0 * np.pi / 8
    # exact for trigonometric polynomials of degree below the node count
    for k in range(1, 8):
        assert abs(np.sum(np.exp(1j * k * theta)) * dtheta) <= 1e-14
    assert np.sum(np.exp(8j * theta)) * dtheta == pytest.approx(2.0 * np.pi)


def test_polar_builder_measures_disk_and_annulus():
    r, w = gauss_legendre(1.0, 2.5, 12)
    annulus = polar_grid(r, w * r, 16, 2.5)
    area = np.pi * (2.5 ** 2 - 1.0)
    assert annulus.weights.sum() == pytest.approx(area, rel=1e-13)
    assert (annulus.radial_nodes, annulus.angular_nodes) == (12, 16)
    # a rule in t = r^2 carries the area element dt/2
    t, wt = gauss_legendre(0.0, 9.0, 10)
    disk = polar_grid(np.sqrt(t), 0.5 * wt, 24, 3.0)
    assert disk.weights.sum() == pytest.approx(9.0 * np.pi, rel=1e-13)
    assert np.max(np.hypot(*disk.nodes.T)) <= 3.0


@pytest.mark.parametrize("radial, angular", [(0, 4), (3, 0)])
def test_disk_grid_refuses_a_layout_without_nodes(radial, angular):
    with pytest.raises(ValueError, match="polar layout"):
        DiskGrid(nodes=np.zeros((0, 2)), weights=np.zeros(0), radius=1.0,
                 radial_nodes=radial, angular_nodes=angular)


@pytest.mark.parametrize("radius", [0.0, -5.0, float("inf"), float("nan")])
def test_polar_disk_grid_rejects_a_bad_radius(radius):
    with pytest.raises(ValueError, match=f"disk radius must be positive and finite, "
                                         f"got {radius!r}"):
        polar_disk_grid(radius)


@pytest.mark.parametrize("half_side", [0.0, -7.0, float("inf"), float("nan")])
def test_index_square_rejects_a_bad_half_side(half_side):
    # a zero half side gave the index 0j, and -7.0 gave -1.0 from a reversed rule
    with pytest.raises(ValueError, match=f"square half side must be positive and finite, "
                                         f"got {half_side!r}"):
        index_integral_4d(landau_kernel(0), 1, QuadratureSpec(outer_radius=half_side))


def test_polar_builder_layout_takes_block_engine():
    r, w = gauss_legendre(0.0, 8.0, 40)
    grid = polar_grid(r, w * r, 72, 8.0)
    ref = polar_disk_grid()
    assert np.array_equal(grid.nodes, ref.nodes)
    assert np.array_equal(grid.weights, ref.weights)
    P, Q = truncated_projection_pair(0, gauge.flux_unitary(1), grid)
    assert P.blocks.shape == (72, 40, 40)
    assert Q.blocks.shape == (72, 40, 40)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_level_sized_squares(m):
    # the level-sized disk is checked by test_level_disk_grid_grows_with_level;
    # above level 2 each level adds 8 more nodes per axis
    extra = 8 * max(0, m - 2)
    for route, half_side, nodes in (("index", 7.0 + 1.5 * m, 46 + 8 * m + extra),
                                    ("transport", 7.5 + 1.5 * m, 52 + 8 * m + extra)):
        grid = level_square_grid(m, route)
        assert np.array_equal(grid.x, square_grid(half_side, nodes).x)
        assert np.array_equal(grid.w, square_grid(half_side, nodes).w)
        assert grid.w.sum() == pytest.approx(2.0 * half_side, rel=1e-13)
        assert len(grid.x) == nodes


def test_square_rule_takes_spec_overrides():
    grid = level_square_grid(1, "index", QuadratureSpec(outer_radius=5.0,
                                                        radial_nodes=11))
    assert len(grid.x) == 11
    assert grid.w.sum() == pytest.approx(10.0, rel=1e-13)
    only_nodes = level_square_grid(1, "transport", QuadratureSpec(radial_nodes=13))
    assert len(only_nodes.x) == 13
    assert only_nodes.w.sum() == pytest.approx(18.0, rel=1e-13)
    assert np.array_equal(level_square_grid(2, "index", QuadratureSpec()).x,
                          level_square_grid(2, "index").x)


def test_engines_default_to_level_sized_squares():
    kern = landau_kernel(1)
    assert index_integral_4d(kern, 1) == index_integral_4d(
        kern, 1, QuadratureSpec(outer_radius=8.5, radial_nodes=54))
    assert kubo_box(kern, 6.0) == (1j * triple_wedge(kern, square_grid(9.0, 60))).real


# ------------------------------------------------------------ structure guard

def _modules():
    return sorted(SRC.glob("*.py"))


def test_only_grids_builds_gauss_legendre_rules():
    offenders = [p.name for p in _modules() if p.name != "grids.py"
                 and ("leggauss" in p.read_text()
                      or "polynomial.legendre" in p.read_text())]
    assert offenders == []


def test_only_grids_builds_angle_rings():
    ring_by_hand = re.compile(r"np\.pi \* np\.arange|linspace\(.*np\.pi")
    offenders = [p.name for p in _modules() if p.name != "grids.py"
                 and ring_by_hand.search(p.read_text())]
    assert offenders == []


GRID_NAMES = {"DiskGrid", "TensorGrid", "gauss_legendre", "ring", "polar_nodes",
              "polar_grid", "polar_disk_grid", "square_grid", "level_disk_grid",
              "level_disk_radius", "level_square_grid"}


def test_grids_are_imported_from_grids_and_nothing_private_crosses_modules():
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom)
                    and (node.module or "").startswith("fluxlab")):
                continue
            names = {alias.name for alias in node.names}
            private = {n for n in names if n.startswith("_")}
            assert not private, f"{path.name} imports private {private} from {node.module}"
            if names & GRID_NAMES:
                assert node.module == "fluxlab.grids", (
                    f"{path.name} takes grids from {node.module}")
