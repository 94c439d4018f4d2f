"""Command-line experiment runner.

Each subcommand wires one cross-module study into a reproducible run:
defaults < config file < explicit flags, with the resolved configuration
echoed next to machine-readable CSV/JSON reports.  Exit status 0 means every
row passed its stated tolerance, 1 means a tolerance failed, 2 means the
configuration or a module precondition was invalid.  The top-level
--log-level sends the fluxlab loggers to stderr at that level for the run.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import logging
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fluxlab import gauge, grids, hall, landau, lattice, projpair, quadrature

SCHEMA_VERSION = 1
CSV_COLUMNS = ["experiment", "parameters", "value", "residual", "oracle",
               "status", "wall_time_s"]


@dataclass
class ReportRow:
    experiment: str
    parameters: dict
    value: float
    residual: float
    oracle: float
    passed: bool
    wall_time_s: float = 0.0

    def as_json(self) -> dict:
        return {
            "experiment": self.experiment,
            "parameters": self.parameters,
            "value": self.value,
            "residual": self.residual,
            "oracle": self.oracle,
            "pass": self.passed,
            "wall_time_s": round(self.wall_time_s, 6),
        }

    def as_csv(self) -> list:
        params = ";".join(f"{k}={self.parameters[k]}" for k in sorted(self.parameters))
        return [self.experiment, params, repr(float(self.value)),
                repr(float(self.residual)), repr(float(self.oracle)),
                "pass" if self.passed else "fail", f"{self.wall_time_s:.6f}"]


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def _row(experiment, parameters, value, oracle, tol, residual=None, timer=None):
    value = float(value)
    oracle = float(oracle)
    residual = abs(value - oracle) if residual is None else float(residual)
    return ReportRow(
        experiment=experiment,
        parameters=dict(parameters, tol=tol),
        value=value,
        residual=residual,
        oracle=oracle,
        passed=residual <= tol,
        wall_time_s=getattr(timer, "elapsed", 0.0),
    )


def _parse_flux(text) -> float:
    """Flux per plaquette from a number or a string "x" or "p/q"; anything
    else is a usage error naming the offending value."""
    try:
        if isinstance(text, (int, float)):
            return float(text)
        if "/" in text:
            num, den = text.split("/", 1)
            return float(num) / float(den)
        return float(text)
    except (TypeError, ValueError, ZeroDivisionError):
        raise SystemExit(f"fluxlab: flux must be a number or p/q, got {text!r}") from None


def _split_list(text) -> list:
    if isinstance(text, (list, tuple)):
        return list(text)
    return [v.strip() for v in str(text).split(",") if v.strip()]


def _parse_floats(text) -> list:
    """L_values from a comma list or a config list; anything but a finite
    number is a usage error naming the offending value."""
    values = []
    for item in _split_list(text):
        try:
            values.append(float(item))
        except (TypeError, ValueError):
            raise SystemExit(f"fluxlab: L_values must be numbers, got {item!r}") from None
        if not math.isfinite(values[-1]):
            raise SystemExit(f"fluxlab: L_values must be finite, got {item!r}")
    return values


def _parse_powers(text) -> list:
    """Trace powers n >= 1 from a comma list or a config list; anything else
    is a usage error naming the offending value."""
    powers = []
    for item in _split_list(text):
        try:
            value = float(item)
        except (TypeError, ValueError):
            value = None
        if value is None or not value.is_integer() or value < 1:
            raise SystemExit(f"fluxlab: powers must be integers >= 1, got {item!r}")
        powers.append(int(value))
    return powers


# ---------------------------------------------------------------- proj-suite

def run_proj_suite(cfg) -> list:
    rng = np.random.default_rng(cfg["seed"])
    tol = cfg["tol"]
    trials = cfg["trials"]
    worst = {"rank_difference": 0.0, "antisymmetry": 0.0, "complement": 0.0,
             "conjugation": 0.0, "power_independence": 0.0, "additivity": 0.0}
    with _Timer() as t:
        for _ in range(trials):
            dim = int(rng.integers(4, cfg["dim_max"] + 1))
            P = projpair.random_projection(rng, dim, int(rng.integers(1, dim)))
            Q = projpair.random_projection(rng, dim, int(rng.integers(1, dim)))
            ipq = projpair.index_by_spectral_count(P, Q)
            worst["rank_difference"] = max(
                worst["rank_difference"], abs(ipq.value - (P.rank() - Q.rank())))
            iqp = projpair.index_by_spectral_count(Q, P)
            worst["antisymmetry"] = max(worst["antisymmetry"], abs(ipq.value + iqp.value))
            Pc = projpair.HermitianProjection(np.eye(dim) - P.matrix)
            Qc = projpair.HermitianProjection(np.eye(dim) - Q.matrix)
            icc = projpair.index_by_spectral_count(Pc, Qc)
            worst["complement"] = max(worst["complement"], abs(ipq.value + icc.value))
            W = projpair.random_unitary(rng, dim)
            Pw = projpair.HermitianProjection(W.matrix @ P.matrix @ W.matrix.conj().T)
            Qw = projpair.HermitianProjection(W.matrix @ Q.matrix @ W.matrix.conj().T)
            iww = projpair.index_by_spectral_count(Pw, Qw)
            worst["conjugation"] = max(worst["conjugation"], abs(iww.value - ipq.value))
            traces = projpair.odd_trace_stability(P, Q, n_max=3)
            worst["power_independence"] = max(
                worst["power_independence"],
                max(abs(v - ipq.value) for _, v in traces))
            R = projpair.random_projection(rng, dim, int(rng.integers(1, dim)))
            left, right = projpair.additivity_check(P, Q, R)
            worst["additivity"] = max(worst["additivity"], abs(left - right))
    rows = [_row(f"proj-suite/{name}", {"trials": trials, "dim_max": cfg["dim_max"]},
                 resid, 0.0, tol) for name, resid in worst.items()]
    for r in rows:
        r.wall_time_s = t.elapsed / len(rows)
    return rows


# --------------------------------------------------------------- connes-area

def _sample_triangle(rng) -> quadrature.Triangle:
    while True:
        pts = rng.uniform(-3.0, 3.0, size=(3, 2))
        tri = quadrature.Triangle(tuple(pts[0]), tuple(pts[1]), tuple(pts[2]))
        seps = [np.hypot(*(pts[i] - pts[j])) for i, j in ((0, 1), (1, 2), (2, 0))]
        if min(seps) > 0.05 and abs(tri.oriented_area_twice()) >= 0.05:
            return tri


def run_connes_area(cfg) -> list:
    rng = np.random.default_rng(cfg["seed"])
    u = gauge.flux_unitary(cfg["winding"])
    rows = []
    for k in range(cfg["trials"]):
        tri = _sample_triangle(rng)
        oracle = 2.0 * np.pi * cfg["winding"] * tri.oriented_area_twice()
        with _Timer() as t:
            val = quadrature.connes_area(u, tri)
        # a constant unitary integrates to exactly 0: there tol is absolute
        scale = abs(oracle) or 1.0
        rel = abs(val - 1j * oracle) / scale
        rows.append(_row(
            f"connes-area/trial-{k}",
            {"winding": cfg["winding"],
             "vertices": [[round(float(c), 6) for c in v]
                          for v in (tri.a, tri.b, tri.c)]},
            val.imag, oracle, cfg["tol"] * scale, residual=rel * scale,
            timer=t))
    return rows


# -------------------------------------------------------------- landau-index

def run_landau_index(cfg) -> list:
    m = cfg["m"]
    # a bad pair radius is refused before any other work
    grid = grids.level_disk_grid(m, cfg["pair_radius"])
    rows = []
    with _Timer() as t:
        mat = landau.flux_matrix(m, cfg["n_max"])
        shift = landau.shift_index(mat)
    rows.append(_row("landau-index/shift-matrix",
                     {"m": m, "n_max": cfg["n_max"]}, shift, -1.0, 1e-8, timer=t))
    kern = landau.landau_kernel(m)
    with _Timer() as t:
        val4 = quadrature.index_integral_4d(kern, winding=1)
    rows.append(_row("landau-index/integral-4d", {"m": m, "winding": 1},
                     val4.real, -1.0, 2e-2, timer=t))
    with _Timer() as t:
        P, Q = landau.truncated_projection_pair(m, gauge.flux_unitary(1), grid)
        # charge-deficiency orientation: the flux-conjugated projection leads
        rep = projpair.index_by_odd_trace(Q, P, n=1)
    rows.append(_row("landau-index/truncated-pair",
                     {"m": m, "radius": grid.radius, "trace_power": rep.trace_power},
                     rep.value, -1.0, 1e-2, timer=t))
    return rows


# ------------------------------------------------------------ hall-transport

def run_hall_transport(cfg) -> list:
    m = cfg["m"]
    kern = landau.landau_kernel(m)
    pair = hall.SwitchPair(gauge.tanh_switch(cfg["scale"]), gauge.tanh_switch(cfg["scale"]))
    ls = cfg["L_values"]
    rows = []
    with _Timer() as t:
        q_closed = hall.hall_transport_closed_form(kern)
    rows.append(_row("hall-transport/closed-form", {"m": m}, q_closed, 1.0, 2e-2,
                     timer=t))
    with _Timer() as t:
        boxes = hall.hall_transport_box(kern, pair, ls)
    for L, q in boxes:
        rows.append(_row("hall-transport/box", {"m": m, "L": L, "scale": cfg["scale"]},
                         q, 1.0, 5e-2 if L == ls[-1] else 1.0, timer=t))
    errs = [abs(q - 1.0) for _, q in boxes]
    mono = float(max([0.0] + [b - a for a, b in zip(errs, errs[1:])]))
    rows.append(_row("hall-transport/box-monotone", {"m": m, "L_values": ls},
                     mono, 0.0, 1e-9))
    with _Timer() as t:
        kubo = hall.kubo_box(kern, ls[-1])
    rows.append(_row("hall-transport/kubo", {"m": m, "L": ls[-1]}, kubo,
                     1.0 / (2.0 * np.pi), 0.05 / (2.0 * np.pi), timer=t))
    rows.append(_row("hall-transport/kubo-vs-box", {"m": m, "L": ls[-1]},
                     2.0 * np.pi * kubo, boxes[-1][1], 1e-2 * abs(boxes[-1][1])))
    # shape independence holds in the box limit: the scale-2 tail closes the
    # gap by exp(-2 / scale) = e^-1 per unit L, within 1% from L ~ 6.3 on
    shape_ls = [ls[-1], ls[-1] + 1.0, ls[-1] + 2.0]
    with _Timer() as t:
        qa, qb = ([q for _, q in hall.hall_transport_box(
            kern, hall.SwitchPair(gauge.tanh_switch(s), gauge.tanh_switch(s)), shape_ls)]
            for s in (0.5, 2.0))
    gaps = [abs(a - b) for a, b in zip(qa, qb)]
    rate = float(np.exp(-1.0))
    # the ratio check as gap(L + 1) against e^-1 gap(L) within 5%, which
    # stays defined when a gap vanishes
    for L, before, after in zip(shape_ls, gaps, gaps[1:]):
        rows.append(_row("hall-transport/switch-shape",
                         {"m": m, "L": [L, L + 1.0], "scales": [0.5, 2.0],
                          "check": "gap-ratio"},
                         after, rate * before, 5e-2 * rate * before, timer=t))
    for L, a, b in zip(shape_ls[1:], qa[1:], qb[1:]):
        rows.append(_row("hall-transport/switch-shape",
                         {"m": m, "L": L, "scales": [0.5, 2.0], "check": "gap"},
                         a, b, 1e-2 * abs(b), timer=t))
    return rows


# -------------------------------------------------------------- switch-check

def run_switch_check(cfg) -> list:
    tol = cfg["tol"]
    rows = []
    for scale in (1.0, 2.0):
        s = gauge.tanh_switch(scale)
        for a in (0.0, 2.0, -1.5):
            with _Timer() as t:
                val = hall.switch_integral_1d(s, a)
            rows.append(_row("switch-check/shift-1d", {"scale": scale, "a": a},
                             val, a, tol, timer=t))
    pair = hall.SwitchPair(gauge.tanh_switch(1.0), gauge.tanh_switch(1.0))
    for a, b in (((1.0, 0.0), (1.0, 0.0)), ((1.0, 0.0), (0.0, 1.0)),
                 ((2.0, 1.0), (1.0, 3.0))):
        wedge = a[0] * b[1] - a[1] * b[0]
        with _Timer() as t:
            val = hall.switch_integral_2d(pair, a, b)
        rows.append(_row("switch-check/wedge-2d", {"a": list(a), "b": list(b)},
                         val, wedge, tol, timer=t))
    return rows


# ------------------------------------------------------------- lattice runs

def _lattice_pipeline(cfg):
    """The size x size box at the configured flux and its Fermi projection."""
    size = cfg["size"]
    model = lattice.MagneticLatticeModel(size, size, _parse_flux(cfg["flux"]))
    gp = lattice.gap_projection(lattice.build_hamiltonian(model), cfg["fermi"])
    return model, gp


def _flux_center(size: int) -> tuple:
    """The flux centre of a size x size box: its centre for an even size, and
    half a lattice constant off it, clear of the middle site, for an odd one."""
    return (size // 2 - 0.5,) * 2


def run_lattice_index(cfg) -> list:
    model, gp = _lattice_pipeline(cfg)
    U = lattice.lattice_flux_unitary(model, _flux_center(cfg["size"]))
    rows = []
    for n in cfg["powers"]:
        with _Timer() as t:
            rep = lattice.lattice_index(gp, U, n=n)
        rows.append(_row("lattice-index/windowed",
                         {"size": cfg["size"], "flux": cfg["flux"],
                          "fermi": cfg["fermi"], "trace_power": rep.trace_power,
                          "gap_width": round(gp.gap_width, 6),
                          "real_form": gp.real_form, "modes": gp.modes},
                         rep.value, round(rep.value), cfg["tol"],
                         residual=rep.residual, timer=t))
    return rows


def run_wedge(cfg) -> list:
    size = cfg["size"]
    flux = _parse_flux(cfg["flux"])
    fermi = cfg["fermi"]
    rows = []
    with _Timer() as t:
        full = lattice.wedge_experiment(
            lattice.MagneticLatticeModel(size, size, flux), _flux_center(size), fermi)
    rows.append(_row("wedge/full-plane-control", {"size": size, "flux": cfg["flux"]},
                     full.value, round(full.value), cfg["tol"],
                     residual=full.residual, timer=t))
    half = size // 2
    wedge_mask = np.zeros((size, size), dtype=bool)
    wedge_mask[half:, half:] = True
    with _Timer() as t:
        vw = lattice.wedge_experiment(
            lattice.MagneticLatticeModel(size, size, flux, domain_mask=wedge_mask),
            (half - 0.6, half - 0.6), fermi)
    rows.append(_row("wedge/flux-outside", {"size": size, "apex": half}, vw.value,
                     0.0, cfg["tol"], timer=t))
    half_mask = np.zeros((size, size), dtype=bool)
    half_mask[3:, :] = True
    with _Timer() as t:
        vh = lattice.wedge_experiment(
            lattice.MagneticLatticeModel(size, size, flux, domain_mask=half_mask),
            (size // 2 + 1.5, size // 2 - 0.5), fermi)
    rows.append(_row("wedge/half-plane-flux-inside", {"size": size}, vh.value,
                     full.value, cfg["tol"], timer=t))
    return rows


def run_disorder(cfg) -> list:
    with _Timer() as t:
        model, gp = _lattice_pipeline(cfg)
        U = lattice.lattice_flux_unitary(model, _flux_center(cfg["size"]))
        ens = lattice.DisorderEnsemble(
            base_model=model, amplitude=cfg["amplitude_factor"] * gp.gap_width,
            seeds=list(range(cfg["n_seeds"])))
        reports = lattice.disorder_constancy(ens, cfg["fermi"], U)
    rows = []
    for seed, rep in zip(ens.seeds, reports):
        rows.append(_row("disorder/seed", {"seed": seed, "size": cfg["size"],
                         "amplitude": round(ens.amplitude, 6)},
                         rep.value, round(reports[0].value), cfg["tol"],
                         residual=rep.residual))
        # each draw's share of the ensemble, whose draws cost alike
        rows[-1].wall_time_s = t.elapsed / len(reports)
    with _Timer() as t:
        rounded = sorted({round(r.value) for r in reports})
    rows.append(_row("disorder/constancy", {"n_seeds": cfg["n_seeds"]},
                     len(rounded), 1.0, 0.0, timer=t))
    return rows


def run_decay_fit(cfg) -> list:
    with _Timer() as t:
        model, gp = _lattice_pipeline(cfg)
        slope, r2 = lattice.decay_fit(gp, model)
    params = {"size": cfg["size"], "flux": cfg["flux"], "fermi": cfg["fermi"]}
    return [
        ReportRow("decay-fit/slope", dict(params, requirement="slope < 0"),
                  slope, max(slope, 0.0), 0.0, slope < 0.0, t.elapsed / 2),
        ReportRow("decay-fit/r-squared", dict(params, requirement="r2 >= 0.9"),
                  r2, max(0.0, 0.9 - r2), 0.9, r2 >= 0.9, t.elapsed / 2),
    ]


# ------------------------------------------------------------------- plumbing

# every setting of a subcommand as key: (default, flag type); the flag is
# --key with "-" for "_".  A subcommand accepts exactly the settings its
# runner reads, as flags and as config keys.
_SETTINGS = {
    "proj-suite": {"trials": (50, int), "dim_max": (64, int), "seed": (0, int),
                   "tol": (1e-8, float)},
    "connes-area": {"trials": (20, int), "seed": (7, int), "winding": (1, int),
                    "tol": (1e-3, float)},
    # pair_radius None follows the level: grids.level_disk_radius(m)
    "landau-index": {"m": (0, int), "n_max": (20, int), "pair_radius": (None, float)},
    "hall-transport": {"m": (0, int), "scale": (1.0, float),
                       "L_values": ([2.0, 3.0, 4.5, 6.0], str)},
    "switch-check": {"tol": (1e-6, float)},
    "lattice-index": {"size": (24, int), "flux": ("1/3", str), "fermi": (-1.29, float),
                      "powers": ([1, 2], str), "tol": (5e-2, float)},
    "wedge": {"size": (24, int), "flux": ("1/3", str), "fermi": (-1.29, float),
              "tol": (5e-2, float)},
    "disorder": {"size": (24, int), "flux": ("1/3", str), "fermi": (-1.29, float),
                 "n_seeds": (10, int), "amplitude_factor": (0.2, float),
                 "tol": (5e-2, float)},
    "decay-fit": {"size": (24, int), "flux": ("1/3", str), "fermi": (-1.29, float)},
}

_RUNNERS = {
    "proj-suite": run_proj_suite,
    "connes-area": run_connes_area,
    "landau-index": run_landau_index,
    "hall-transport": run_hall_transport,
    "switch-check": run_switch_check,
    "lattice-index": run_lattice_index,
    "wedge": run_wedge,
    "disorder": run_disorder,
    "decay-fit": run_decay_fit,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluxlab",
        description="Index-theory experiments: projection pairs, flux "
                    "insertion, Hall transport, magnetic lattices.")
    parser.add_argument("--log-level", choices=["WARNING", "INFO", "DEBUG"],
                        help="log the fluxlab modules to stderr at this level")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="JSON config file")
    common.add_argument("--out", type=Path, default=Path("."),
                        help="directory for report files")
    common.add_argument("--format", choices=["csv", "json", "both"],
                        default="both")
    for name, settings in _SETTINGS.items():
        p = sub.add_parser(name, parents=[common])
        for key, (_, typ) in settings.items():
            p.add_argument("--" + key.replace("_", "-"), type=typ)
    return parser


def _resolve_config(args) -> dict:
    cfg = {key: default for key, (default, _) in _SETTINGS[args.command].items()}
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"fluxlab: cannot read config {args.config}: {exc}")
        unknown = set(loaded) - set(cfg)
        if unknown:
            raise SystemExit(
                f"fluxlab: unknown config keys for {args.command}: {sorted(unknown)}")
        for key, value in loaded.items():
            # an int flag takes a JSON integer, a float flag any number, never
            # a bool; str settings go to their own parsers
            default, typ = _SETTINGS[args.command][key]
            numbers = (int,) if typ is int else (int, float)
            if not (typ is str or (value is None and default is None) or (
                    isinstance(value, numbers) and not isinstance(value, bool))):
                raise SystemExit(f"fluxlab: config key {key!r} of {args.command} "
                                 f"takes {typ.__name__} values, got {value!r}")
        cfg.update(loaded)
    for key, value in vars(args).items():
        if key in cfg and value is not None:
            cfg[key] = value
    if args.command == "landau-index" and cfg["pair_radius"] is None:
        cfg["pair_radius"] = grids.level_disk_radius(cfg["m"])
    # a NaN passes every bound unchecked and an infinite tol passes every row
    for key, (_, typ) in _SETTINGS[args.command].items():
        if typ is float and not math.isfinite(cfg[key]):
            raise SystemExit(f"fluxlab: {key} must be finite, got {cfg[key]!r}")
    if "flux" in cfg:
        # checked here, kept as given: the reports echo the flux as written
        _parse_flux(cfg["flux"])
    # a run with no trial, seed, power or box length tests nothing and must
    # not pass, and a negative tolerance fails every row whatever its value;
    # proj-suite draws its dimensions from 4 to dim_max
    for key, low in (("trials", 1), ("n_seeds", 1), ("dim_max", 4), ("tol", 0)):
        if key in cfg and cfg[key] < low:
            raise SystemExit(f"fluxlab: {key} must be at least {low}, got {cfg[key]!r}")
    for key, parse in (("L_values", _parse_floats), ("powers", _parse_powers)):
        if key in cfg:
            given, cfg[key] = cfg[key], parse(cfg[key])
            if not cfg[key]:
                raise SystemExit(f"fluxlab: {key} must not be empty, got {given!r}")
    return cfg


def _write_reports(out_dir: Path, command: str, cfg: dict, rows: list,
                   fmt: str, wall: float):
    out_dir.mkdir(parents=True, exist_ok=True)
    resolved = {"command": command, **{k: cfg[k] for k in sorted(cfg)}}
    (out_dir / "config.echo").write_text(
        json.dumps(resolved, indent=2, sort_keys=True) + "\n")
    if fmt in ("json", "both"):
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "config": resolved,
            "rows": [r.as_json() for r in rows],
            "all_pass": all(r.passed for r in rows),
            "wall_time_s": round(wall, 6),
        }
        (out_dir / "report.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if fmt in ("csv", "both"):
        with open(out_dir / "report.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for r in rows:
                writer.writerow(r.as_csv())


@contextlib.contextmanager
def _logging_to_stderr(level):
    """The fluxlab loggers write to stderr at level while the block runs;
    None leaves logging as it is."""
    if level is None:
        yield
        return
    log = logging.getLogger("fluxlab")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    saved = log.level
    log.addHandler(handler)
    log.setLevel(level)
    try:
        yield
    finally:
        log.removeHandler(handler)
        log.setLevel(saved)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    with _logging_to_stderr(args.log_level):
        return _main(args)


def _main(args) -> int:
    try:
        cfg = _resolve_config(args)
    except SystemExit as exc:
        if exc.code and not isinstance(exc.code, int):
            print(exc.code, file=sys.stderr)
            return 2
        raise
    t0 = time.perf_counter()
    try:
        rows = _RUNNERS[args.command](cfg)
    except ValueError as exc:
        print(f"fluxlab: {exc}", file=sys.stderr)
        return 2
    _write_reports(args.out, args.command, cfg, rows,
                   args.format, time.perf_counter() - t0)
    failed = [r for r in rows if not r.passed]
    for r in rows:
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] {r.experiment}: value={r.value:.6g} "
              f"oracle={r.oracle:.6g} residual={r.residual:.2e}")
    print(f"{len(rows) - len(failed)}/{len(rows)} rows passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
