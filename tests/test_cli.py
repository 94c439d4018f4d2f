"""End-to-end command-line runs: exit codes, report files, reproducibility."""

import ast
import inspect
import json
import logging
import re
import time

import pytest

from fluxlab import cli
from fluxlab.cli import (CSV_COLUMNS, SCHEMA_VERSION, _build_parser,
                         _resolve_config, main)

WALL = re.compile(r'"wall_time_s": [0-9.e+-]+')


def run(tmp, *argv):
    out = tmp / "run"
    code = main([*argv, "--out", str(out)])
    return code, out


def read_json(out):
    return json.loads((out / "report.json").read_text())


@pytest.fixture(scope="module")
def switch_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("switch")
    return run(tmp, "switch-check")


def test_switch_check_passes_and_writes_reports(switch_run):
    code, out = switch_run
    assert code == 0
    for name in ("report.json", "report.csv", "config.echo"):
        assert (out / name).exists()


def test_report_schema_and_row_contract(switch_run):
    doc = read_json(switch_run[1])
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["command"] == "switch-check"
    assert doc["all_pass"] is True
    assert len(doc["rows"]) == 9
    for row in doc["rows"]:
        assert "oracle" in row
        assert "tol" in row["parameters"]
        assert row["pass"] is True


def test_csv_header_and_status_column(switch_run):
    lines = (switch_run[1] / "report.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 10
    assert all(",pass," in line for line in lines[1:])


def test_config_echo_is_resolved_and_sorted(switch_run):
    echo = json.loads((switch_run[1] / "config.echo").read_text())
    assert echo["command"] == "switch-check"
    assert echo["tol"] == 1e-6


def test_format_selects_outputs(tmp_path):
    code, out = run(tmp_path / "a", "switch-check", "--format", "csv")
    assert code == 0
    assert (out / "report.csv").exists()
    assert not (out / "report.json").exists()
    code, out = run(tmp_path / "b", "switch-check", "--format", "json")
    assert (out / "report.json").exists()
    assert not (out / "report.csv").exists()


def test_json_reports_byte_identical_up_to_wall_time(switch_run, tmp_path):
    _, out2 = run(tmp_path, "switch-check")
    first = WALL.sub('"wall_time_s": X', (switch_run[1] / "report.json").read_text())
    second = WALL.sub('"wall_time_s": X', (out2 / "report.json").read_text())
    assert first == second


def test_flag_overrides_config_overrides_default(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 5, "dim_max": 12}))
    code, out = run(tmp_path, "proj-suite", "--config", str(cfg),
                    "--trials", "3")
    assert code == 0
    echo = json.loads((out / "config.echo").read_text())
    assert echo["trials"] == 3
    assert echo["dim_max"] == 12
    assert echo["seed"] == 0


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _ = run(tmp_path, "switch-check", "--config", str(cfg))
    assert code == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_malformed_config_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code, _ = run(tmp_path, "switch-check", "--config", str(cfg))
    assert code == 2
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    ("lattice-index", "size", 24.5),
    ("lattice-index", "size", 24.0),
    ("disorder", "n_seeds", 2.5),
])
def test_config_value_off_flag_type_is_rejected(tmp_path, capsys, command, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, _ = run(tmp_path, command, "--config", str(cfg))
    assert code == 2
    err = capsys.readouterr().err
    assert repr(key) in err and repr(value) in err


def test_config_values_of_flag_type_are_taken(tmp_path):
    # an int setting takes a JSON integer; a float setting any JSON number
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"size": 20, "fermi": -1}))
    args = _build_parser().parse_args(["lattice-index", "--config", str(cfg)])
    resolved = _resolve_config(args)
    assert (resolved["size"], resolved["fermi"]) == (20, -1)


@pytest.mark.parametrize("argv", [
    ["decay-fit", "--tol", "5"],
    ["decay-fit", "--seed", "3"],
    ["landau-index", "--tol", "1e-3"],
    ["switch-check", "--seed", "1"],
])
def test_setting_no_runner_reads_is_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_config_key_no_runner_reads_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3}))
    code, _ = run(tmp_path, "hall-transport", "--config", str(cfg))
    assert code == 2
    assert "unknown config keys" in capsys.readouterr().err


def _cfg_keys_read(func, seen=()):
    """Constant keys k of every cfg[k] in func and in the cli functions it
    hands cfg to."""
    keys = set()
    for node in ast.walk(ast.parse(inspect.getsource(func))):
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == "cfg" and isinstance(node.slice, ast.Constant)):
            keys.add(node.slice.value)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and any(isinstance(a, ast.Name) and a.id == "cfg" for a in node.args)
                and node.func.id not in seen):
            keys |= _cfg_keys_read(getattr(cli, node.func.id), (*seen, node.func.id))
    return keys


@pytest.mark.parametrize("command", sorted(cli._SETTINGS))
def test_every_setting_is_read_by_its_runner(command):
    assert set(cli._SETTINGS[command]) == _cfg_keys_read(cli._RUNNERS[command])


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_gapless_precondition_exits_two(tmp_path, capsys):
    code, _ = run(tmp_path, "lattice-index", "--flux", "0", "--fermi", "0.0")
    assert code == 2
    assert "no spectral gap" in capsys.readouterr().err


def test_proj_suite_prints_row_lines(tmp_path, capsys):
    code, _ = run(tmp_path, "proj-suite", "--trials", "10", "--dim-max", "16")
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.count("[pass]") == 6
    assert "6/6 rows passed" in stdout


def test_connes_area_rows_meet_relative_tolerance(tmp_path):
    code, out = run(tmp_path, "connes-area", "--trials", "3")
    assert code == 0
    doc = read_json(out)
    assert len(doc["rows"]) == 3
    for row in doc["rows"]:
        assert row["residual"] <= 1e-3 * abs(row["oracle"])


def test_connes_area_winding_zero_has_absolute_residual(tmp_path):
    # a constant unitary integrates to exactly the oracle 0
    code, out = run(tmp_path, "connes-area", "--trials", "2", "--winding", "0")
    assert code == 0
    for row in read_json(out)["rows"]:
        assert (row["value"], row["oracle"], row["residual"]) == (0.0, 0.0, 0.0)
        assert row["parameters"]["tol"] == 1e-3


def test_landau_index_routes_agree(tmp_path):
    code, out = run(tmp_path, "landau-index")
    assert code == 0
    doc = read_json(out)
    experiments = {row["experiment"] for row in doc["rows"]}
    assert experiments == {"landau-index/shift-matrix",
                           "landau-index/integral-4d",
                           "landau-index/truncated-pair"}
    for row in doc["rows"]:
        assert round(row["value"]) == -1


def test_landau_index_pair_radius_follows_level():
    def radius(*argv):
        args = _build_parser().parse_args(["landau-index", *argv])
        return _resolve_config(args)["pair_radius"]

    assert radius() == 8.0
    assert radius("--m", "1") == 11.0
    assert radius("--m", "2") == 14.0
    assert radius("--m", "2", "--pair-radius", "9") == 9.0


def test_lattice_index_command(tmp_path):
    code, out = run(tmp_path, "lattice-index")
    assert code == 0
    for row in read_json(out)["rows"]:
        assert row["oracle"] == -1.0
        assert row["residual"] <= 5e-2
        # the square, even-sided box takes the four rotation-mode blocks, each
        # in real form
        assert row["parameters"]["modes"] == 4
        assert row["parameters"]["real_form"] is True


@pytest.mark.parametrize("argv", [
    ["lattice-index", "--size", "25"],
    ["disorder", "--size", "25", "--n-seeds", "2"],
    ["wedge", "--size", "25"],
], ids=["lattice-index", "disorder", "wedge"])
def test_odd_size_centers_the_flux_off_the_middle_site(tmp_path, argv):
    # the flux sits half a lattice constant off the middle site (12, 12)
    code, out = run(tmp_path, *argv)
    assert code == 0
    rows = read_json(out)["rows"]
    assert all(row["pass"] for row in rows)
    if argv[0] == "lattice-index":
        assert len(rows) == 2
        assert all(row["parameters"]["modes"] == 1 for row in rows)


@pytest.mark.parametrize("powers", ["1.5", "0", "1,two"])
def test_lattice_index_rejects_bad_powers(tmp_path, capsys, powers):
    code, _ = run(tmp_path, "lattice-index", "--powers", powers)
    assert code == 2
    bad = powers.split(",")[-1]
    assert f"powers must be integers >= 1, got '{bad}'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, config, message", [
    (["hall-transport", "--L-values", "2,x"], None, "L_values must be numbers, got 'x'"),
    (["lattice-index"], {"flux": [1, 3]}, "flux must be a number or p/q, got [1, 3]"),
    (["lattice-index", "--flux", "1/0"], None, "flux must be a number or p/q, got '1/0'"),
    (["lattice-index", "--powers", ","], None, "powers must not be empty, got ','"),
    (["hall-transport", "--L-values", ","], None, "L_values must not be empty, got ','"),
    (["hall-transport"], {"L_values": []}, "L_values must not be empty, got []"),
    (["connes-area", "--trials", "0"], None, "trials must be at least 1, got 0"),
    (["connes-area", "--trials", "-2"], None, "trials must be at least 1, got -2"),
    (["proj-suite", "--trials", "0"], None, "trials must be at least 1, got 0"),
    (["proj-suite"], {"dim_max": 3}, "dim_max must be at least 4, got 3"),
    (["disorder", "--n-seeds", "0"], None, "n_seeds must be at least 1, got 0"),
    (["landau-index", "--pair-radius", "-5"], None,
     "disk radius must be positive and finite, got -5.0"),
    (["landau-index", "--pair-radius", "0"], None,
     "disk radius must be positive and finite, got 0.0"),
], ids=["L-values", "flux-list", "flux-zero-denominator", "powers-empty",
        "L-values-empty", "L-values-empty-list", "connes-trials-zero",
        "connes-trials-negative", "proj-trials-zero", "dim-max-below-4",
        "n-seeds-zero", "pair-radius-negative", "pair-radius-zero"])
def test_bad_str_setting_is_usage_error(tmp_path, capsys, argv, config, message):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg)]
    code, out = run(tmp_path, *argv)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("radius", ["-5", "0"])
def test_bad_pair_radius_is_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                                   radius):
    from fluxlab import landau

    def refuse(*args):
        raise RuntimeError("flux_matrix ran before the radius was checked")
    monkeypatch.setattr(landau, "flux_matrix", refuse)
    code, out = run(tmp_path, "landau-index", "--pair-radius", radius)
    assert code == 2
    assert "disk radius must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, config, message", [
    (["lattice-index", "--fermi", "nan"], None, "fermi must be finite, got nan"),
    (["wedge", "--fermi", "nan"], None, "fermi must be finite, got nan"),
    (["switch-check", "--tol", "inf"], None, "tol must be finite, got inf"),
    (["hall-transport", "--scale", "nan"], None, "scale must be finite, got nan"),
    (["disorder", "--amplitude-factor=-inf"], None,
     "amplitude_factor must be finite, got -inf"),
    (["lattice-index"], {"tol": float("nan")}, "tol must be finite, got nan"),
    (["hall-transport", "--L-values", "nan"], None, "L_values must be finite, got 'nan'"),
    (["hall-transport", "--L-values", "2,inf"], None,
     "L_values must be finite, got 'inf'"),
    (["hall-transport"], {"L_values": [2.0, float("nan")]},
     "L_values must be finite, got nan"),
    (["switch-check", "--tol=-1e-3"], None, "tol must be at least 0, got -0.001"),
], ids=["lattice-fermi-nan", "wedge-fermi-nan", "tol-inf", "scale-nan",
        "amplitude-minus-inf", "config-tol-nan", "L-values-nan", "L-values-inf",
        "config-L-values-nan", "tol-negative"])
def test_nonfinite_float_setting_is_usage_error(tmp_path, capsys, argv, config, message):
    # a NaN compares False with every bound: --tol inf passed every row, and
    # --fermi nan reported an index of 0 as passing
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg)]
    code, out = run(tmp_path, *argv)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_fractional_flux_is_taken():
    args = _build_parser().parse_args(["lattice-index", "--flux", "1/4"])
    resolved = _resolve_config(args)
    assert resolved["flux"] == "1/4"
    assert cli._parse_flux(resolved["flux"]) == 0.25


def test_lattice_index_seventh_power(tmp_path):
    code, out = run(tmp_path, "lattice-index", "--powers", "1,3", "--size", "20")
    assert code == 0
    assert [row["parameters"]["trace_power"] for row in read_json(out)["rows"]] == [3, 7]


def test_wedge_command(tmp_path):
    code, out = run(tmp_path, "wedge")
    assert code == 0
    rows = read_json(out)["rows"]
    assert [row["experiment"] for row in rows] == [
        "wedge/full-plane-control", "wedge/flux-outside",
        "wedge/half-plane-flux-inside"]
    assert all(row["pass"] for row in rows)


def test_disorder_command_constancy(tmp_path):
    start = time.perf_counter()
    code, out = run(tmp_path, "disorder", "--n-seeds", "3")
    elapsed = time.perf_counter() - start
    assert code == 0
    doc = read_json(out)
    assert len(doc["rows"]) == 4
    assert doc["rows"][-1]["experiment"] == "disorder/constancy"
    # each seed row carries its own share of the ensemble's time, not all of it
    seeds = [row["wall_time_s"] for row in doc["rows"][:-1]]
    assert min(seeds) > 0.0
    assert sum(seeds) <= elapsed


def test_decay_fit_command(tmp_path):
    code, out = run(tmp_path, "decay-fit")
    assert code == 0
    doc = read_json(out)
    by_name = {row["experiment"]: row for row in doc["rows"]}
    assert by_name["decay-fit/slope"]["value"] < 0
    assert by_name["decay-fit/r-squared"]["value"] >= 0.9


def test_hall_transport_reports_shape_row_failure(tmp_path):
    # the switch-shape rows check the box limit as the library tests do: the
    # gap closes by e^-1 per unit L from the largest box on and is within 1%
    # one and two boxes up; at L = 6 alone it is 1.26e-2 (README "Known
    # failures" item 2), so no row fails and the command exits 0
    code, out = run(tmp_path, "hall-transport")
    assert code == 0
    doc = read_json(out)
    failing = [r["experiment"] for r in doc["rows"] if not r["pass"]]
    assert failing == []
    shape = [r for r in doc["rows"] if r["experiment"] == "hall-transport/switch-shape"]
    assert [r["parameters"]["check"] for r in shape] == ["gap-ratio"] * 2 + ["gap"] * 2


def test_hall_transport_takes_one_box(tmp_path):
    # one box length leaves the monotone row nothing to compare: it reads 0
    code, out = run(tmp_path, "hall-transport", "--L-values", "6")
    assert code == 0
    mono = [r for r in read_json(out)["rows"]
            if r["experiment"] == "hall-transport/box-monotone"]
    assert [r["value"] for r in mono] == [0.0]


def test_hall_transport_above_level_two_writes_its_report(tmp_path):
    # the closed-form row's identity check raised out of the command at
    # m = 3 before the level squares took more nodes above level 2
    code, out = run(tmp_path, "hall-transport", "--m", "3")
    rows = read_json(out)["rows"]
    assert code == (1 if any(not r["pass"] for r in rows) else 0)
    closed = [r for r in rows if r["experiment"] == "hall-transport/closed-form"]
    assert [r["pass"] for r in closed] == [True]


def test_lattice_index_builds_pipeline_once(tmp_path, monkeypatch):
    from fluxlab import lattice

    calls = []
    real = lattice.gap_projection

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(lattice, "gap_projection", counting)
    code, out = run(tmp_path, "lattice-index", "--powers", "1,2")
    assert code == 0
    rows = read_json(out)["rows"]
    assert [row["parameters"]["trace_power"] for row in rows] == [3, 5]
    assert len(calls) == 1


def test_log_level_sends_route_lines_to_stderr(tmp_path, capsys):
    code, out = run(tmp_path / "quiet", "lattice-index", "--size", "20")
    quiet = capsys.readouterr()
    assert code == 0 and quiet.err == ""
    code = main(["--log-level", "DEBUG", "lattice-index", "--size", "20",
                 "--out", str(tmp_path / "debug")])
    loud = capsys.readouterr()
    assert code == 0
    assert ("DEBUG fluxlab.lattice: gap_projection: 4 rotation blocks of 100, "
            "real-form eigh, N = 400") in loud.err
    assert loud.err.count("lattice_index: window trace on 4 rotation blocks of 100, "
                          "28 rows per block") == 2
    # the flag changes neither stdout nor the reports, up to their timings
    assert loud.out == quiet.out
    first = WALL.sub('"wall_time_s": X', (out / "report.json").read_text())
    second = WALL.sub('"wall_time_s": X', (tmp_path / "debug" / "report.json").read_text())
    assert first == second
    log = logging.getLogger("fluxlab")
    assert log.handlers == [] and log.level == logging.NOTSET


def test_log_level_warning_keeps_debug_lines_out(tmp_path, capsys):
    code = main(["--log-level", "WARNING", "lattice-index", "--size", "20",
                 "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().err == ""
    with pytest.raises(SystemExit) as exc:
        main(["--log-level", "TRACE", "lattice-index"])
    assert exc.value.code == 2
