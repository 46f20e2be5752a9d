import ast
import errno
import gc
import importlib
import json
import math
import os
import pkgutil
import re
import shlex
import stat
import subprocess
import sys

import pytest

import titeica
from helpers import SRC, child
from test_golden import golden_text
from titeica import EUCLIDEAN, InconclusiveError, SurfaceDef, UsageError, classify, cli, scan_grid, surfaces
from titeica.cli import RunConfig, main, parse_config, run
from titeica.surfaces import catalog


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def python_child(*args, cwd=None, env=None, status=0):
    """The stdout and stderr text of ``python *args`` in a fresh interpreter
    that imports this package, which must exit with ``status``."""
    code, out, err = child([sys.executable, *args], cwd=cwd, env=env)
    assert code == status, err
    return out.decode(), err.decode()


def test_classify_withholds_verdict_when_grid_is_singular():
    with pytest.raises(InconclusiveError):
        classify(catalog("plane"))


@pytest.mark.parametrize("radius", [1e200])
def test_non_finite_ratio_is_a_skipped_point(radius, capsys):
    # R = 1e200 makes R^2 inf, so K and d are nan or inf.  catalog() and the
    # command line refuse such a radius, so the cap is built from its row.
    xpart, ypart, mix, box = surfaces._CATALOG["sphere-origin"].shape(R=radius)
    cap = SurfaceDef("sphere-origin", mix, box, EUCLIDEAN, xpart, ypart)
    records = scan_grid(cap, grid=(4, 4))
    assert all(r.skipped.startswith("non-finite") and r.ratio is None for r in records)
    with pytest.raises(InconclusiveError, match="^400/400 grid points"):
        classify(cap)
    assert main(["classify", "--surface", "sphere-origin", "--param", f"R={radius}"]) == 2
    assert capsys.readouterr().err.startswith("error: surface 'sphere-origin': radius R is too large")


@pytest.mark.parametrize("radius", [1e52, 1e60, 1e100])
def test_underflowing_ratio_is_a_skipped_point(radius, capsys):
    # K/d^4 = R^-6 is subnormal at R = 1e52 and rounds to 0 at R = 1e60; at
    # R = 1e100, K = 1e-200 and d = 1e100 are finite but V^4 would overflow,
    # and num / V / V / V / V rounds to 0
    records = scan_grid(catalog("sphere-origin", R=radius), grid=(4, 4))
    assert all(r.skipped.startswith("K/d^4 underflows") and r.ratio is None for r in records)
    assert main(["classify", "--surface", "sphere-origin", "--param", f"R={radius}"]) == 1
    assert capsys.readouterr().err.startswith("inconclusive: 400/400 grid points")


def test_smallest_normal_ratios_are_evaluated():
    verdict = classify(catalog("sphere-origin", R=1e50))
    assert verdict.is_titeica
    assert verdict.points_evaluated == 400
    assert abs(verdict.ratio_constant - 1e-300) <= 1e-9 * 1e-300


def test_classify_verdict_does_not_depend_on_scale():
    # sphere-translated with R = c = 10^k is the image of the R = c = 1
    # sphere under 10^k I, which scales the ratio by 10^-6k
    base = classify(catalog("sphere-translated", R=1.0, c=1.0))
    for k in range(5):
        verdict = classify(catalog("sphere-translated", R=10.0**k, c=10.0**k))
        assert not verdict.is_titeica
        assert abs(verdict.spread - base.spread) <= 1e-12 * base.spread
    large = classify(catalog("sphere-origin", R=1e3))
    assert large.is_titeica
    assert abs(large.ratio_constant - 1e-18) <= 1e-9 * 1e-18


def test_scan_grid_records_skip_reasons():
    records = scan_grid(catalog("plane"), grid=(3, 3))
    assert len(records) == 9
    assert all(r.skipped for r in records)
    assert all(r.ratio is None for r in records)


def test_cli_unknown_surface_exit_code(capsys):
    assert main(["classify", "--surface", "nope"]) == 2
    assert "unknown surface" in capsys.readouterr().err


def test_cli_grid_validation(tmp_path, capsys):
    message = "grid: both axes need at least 2 points, got 1 x 9"
    out = tmp_path / "report.txt"
    for argv in (
        ["invariants", "--surface", "plane"],
        ["classify", "--surface", "plane"],
        ["transform-check", "--surface", "plane", "--matrix", "2,0,0,0,1,0,0,0,1"],
        ["metric-check", "--pair", "pseudosphere:half-plane"],
    ):
        for extra in ([], ["--output", str(out)]):
            assert main([*argv, "--grid", "1", "9", *extra]) == 2, argv
            assert capsys.readouterr() == ("", f"error: {message}\n"), argv
    assert os.listdir(tmp_path) == []
    with pytest.raises(ValueError) as err:
        scan_grid(catalog("plane"), (1, 9))
    assert str(err.value) == message


def test_cli_bad_param_syntax():
    assert main(["classify", "--surface", "sphere-origin", "--param", "R"]) == 2


@pytest.mark.parametrize("key, value", [("c", "nan"), ("c", "-inf"), ("R", "nan"), ("R", "inf")])
def test_non_finite_surface_parameter_is_refused(key, value, tmp_path, capsys):
    message = f"error: surface 'sphere-translated': parameter {key} must be finite, got {float(value)}\n"
    argv = ["classify", "--surface", "sphere-translated", "--param", f"{key}={value}"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", message)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": "classify", "surface": "sphere-translated", "params": {key: value}}))
    assert main(["--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", message)
    with pytest.raises(ValueError, match="must be finite"):
        catalog("sphere-translated", **{key: float(value)})


def test_cli_transform_check_pass(tmp_path):
    out = tmp_path / "scale.json"
    code = main([
        "transform-check", "--surface", "titeica-xyz",
        "--matrix", "2,0,0,0,1,0,0,0,1", "--tol", "1e-8",
        "--format", "json", "--output", str(out),
    ])
    assert code == 0
    report = read_json(out)
    assert abs(report["summary"]["scale_factor"] - 0.25) <= 1e-15
    assert report["summary"]["passed"] is True


def test_cli_transform_check_power_of_two_stretch_is_exact(tmp_path):
    # diag(2, 1, 1) doubles every volume exactly, so the ratio quarters
    # exactly and all three residuals are 0
    out = tmp_path / "stretch.json"
    argv = ["transform-check", "--surface", "paraboloid", "--matrix", "2,0,0,0,1,0,0,0,1",
            "--format", "json", "--output", str(out)]
    assert main(argv) == 0
    summary = read_json(out)["summary"]
    assert summary["points_evaluated"] == 400
    residuals = [summary[f"max_{name}_residual"] for name in ("ratio", "volume", "numerator")]
    assert residuals == [0, 0, 0]


def test_cli_transform_check_fails_on_absurd_tolerance():
    # a general map: diag(2, 1, 1) would give residuals of exactly 0
    code = main([
        "transform-check", "--surface", "paraboloid",
        "--matrix", "1.3,0.2,-0.4,0.1,0.9,0.3,-0.2,0.5,1.1", "--tol", "1e-300",
    ])
    assert code == 1


def test_cli_transform_check_rejects_bad_matrix(capsys):
    assert main([
        "transform-check", "--surface", "paraboloid", "--matrix", "1,2,3",
    ]) == 2
    assert main([
        "transform-check", "--surface", "paraboloid",
        "--matrix", "1,0,0,0,1,0,1,1,0",
    ]) == 2
    assert "matrix" in capsys.readouterr().err
    for entries in ("nan,0,0,0,1,0,0,0,1", "1,0,0,0,inf,0,0,0,1", "2 0,0,0,0,1,0,0,0,1", "2,,0,0,0,1,0,0,0,1"):
        assert main(["transform-check", "--surface", "paraboloid", "--matrix", entries]) == 2
        assert capsys.readouterr().err.startswith("error: matrix: ")


@pytest.mark.parametrize("argv", [
    ["classify", "--surface", "sphere-origin", "--tol", "nan"],
    ["transform-check", "--surface", "titeica-xyz", "--matrix", "2,0,0,0,1,0,0,0,1", "--tol", "inf"],
    ["--config", "{config}"],
])
def test_cli_rejects_non_finite_tolerance(argv, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": "classify", "surface": "sphere-origin", "tolerance": float("nan")}))
    assert main([a.format(config=cfg) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tolerance: ")


def outcome(argv, capsys):
    """(exit status, stdout, stderr) of ``main(argv)``."""
    return (main(argv), *capsys.readouterr())


def test_a_value_may_start_with_a_dash(capsys):
    # Only a word that starts with -- names a flag: -1,0,... is --matrix's
    # value, as in --matrix=-1,..., and -1e-8 is --tol's, judged by the run.
    argv = ["transform-check", "--surface", "titeica-xyz", "--grid", "3", "3"]
    spaced = outcome([*argv, "--matrix", "-1,0,0,0,1,0,0,0,1"], capsys)
    assert spaced[0] == 0 and "matrix: [-1.0, 0.0" in spaced[1]
    assert outcome([*argv, "--matrix=-1,0,0,0,1,0,0,0,1"], capsys) == spaced
    assert outcome(["classify", "--surface", "titeica-xyz", "--tol", "-1e-8"], capsys) == (
        2, "", "error: tolerance: must be positive and finite, got -1e-08\n")


@pytest.mark.parametrize("argv, spelled", [
    (["classify", "--surface=titeica-xyz", "--grid=3", "3"], ["classify", "--surface", "titeica-xyz", "--grid", "3", "3"]),
    (["--surf", "titeica-xyz", "--gr", "3", "3", "classify"], ["classify", "--surface", "titeica-xyz", "--grid", "3", "3"]),
    (["--c={config}", "--param", "c=0.5", "--param", "c=0.25"],
     ["classify", "--surface", "sphere-translated", "--param", "R=2", "--param", "c=0.25", "--grid", "3", "3"]),
], ids=["equals", "prefix", "param-over-config"])
def test_a_flag_is_named_whole_with_equals_or_by_a_unique_prefix(argv, spelled, tmp_path, capsys):
    # --param repeats and merges key by key over the config file's params;
    # every other flag takes the last value given.
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": "classify", "surface": "sphere-translated", "params": {"R": 2, "c": 3},
                               "grid": [3, 3]}))
    argv = [a.format(config=cfg) for a in argv]
    expected = outcome(spelled, capsys)
    assert expected[0] == 0 and expected[2] == ""
    assert outcome(argv, capsys) == expected
    assert parse_config(argv) == parse_config(spelled)


@pytest.mark.parametrize("argv, message", [
    (["--pa", "half-plane:disk", "metric-check"], "--pa: ambiguous flag: --param or --pair"),
    (["catalog", "--bogus"], "--bogus: unknown flag"),
    (["catalog", "--"], "--: unknown flag"),
    (["classify", "--surface", "titeica-xyz", "--grid", "3"], "--grid: expected 2 values"),
    (["classify", "--surface", "--grid", "3", "3"], "--surface: expected a value"),
    (["catalog", "classify"], "command: a second command 'classify' after 'catalog'"),
], ids=["ambiguous", "unknown", "bare-dashes", "grid-at-end", "flag-for-value", "second-command"])
def test_a_syntax_error_is_one_line_with_no_usage_banner(argv, message, capsys):
    assert outcome(argv, capsys) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [["classify", "-h"], ["catalog", "--bogus", "--help"], ["--surface", "--he"]],
                         ids=" ".join)
def test_help_anywhere_prints_the_help_page(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert outcome(argv, capsys) == (0, golden_text("help.txt"), "")


def test_json_report_is_strict_json(capsys):
    # every point of the plane is skipped, so the maxima have no finite value
    assert main([
        "transform-check", "--surface", "plane", "--matrix", "2,0,0,0,1,0,0,0,1", "--format", "json",
    ]) == 1

    def refuse(token):
        raise ValueError(f"not strict JSON: {token}")

    summary = json.loads(capsys.readouterr().out, parse_constant=refuse)["summary"]
    assert summary["points_evaluated"] == 0
    assert summary["max_ratio_residual"] is None


@pytest.mark.parametrize("argv", [
    ["catalog"],
    ["invariants", "--surface", "sphere-origin", "--grid", "5", "4"],
    ["classify", "--surface", "titeica-xyz", "--grid", "5", "4"],
    ["transform-check", "--surface", "titeica-xyz", "--matrix", "2,0,0,0,1,0,0,0,1", "--grid", "5", "4"],
    ["metric-check", "--pair", "half-plane:disk", "--grid", "5", "4"],
], ids=lambda argv: argv[0])
def test_a_report_states_each_input_once(argv, tmp_path, capsys):
    # config holds the inputs of the run, summary its results, and config
    # is the --config file that reruns the report byte for byte.
    assert main([*argv, "--format", "json"]) == 0
    text = capsys.readouterr().out
    report = json.loads(text)
    assert list(report) == ["config", "results", "summary"]
    assert report["summary"] and set(report["summary"]).isdisjoint(report["config"])
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(report["config"]))
    assert main(["--config", str(cfg)]) == 0
    assert capsys.readouterr() == (text, "")


def test_a_report_written_to_a_file_reruns_from_its_config(tmp_path, capsys):
    out, cfg = tmp_path / "verdict.json", tmp_path / "run.json"
    assert main(["classify", "--surface", "sphere-origin", "--format", "json", "--output", str(out)]) == 0
    written, printed = out.read_bytes(), capsys.readouterr()
    config = json.loads(written)["config"]
    assert config["output"] == str(out)
    cfg.write_text(json.dumps(config))
    out.unlink()
    assert main(["--config", str(cfg)]) == 0
    assert out.read_bytes() == written
    assert capsys.readouterr() == printed


BLOCK_NUMPY = """
import json, sys

class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numpy":
            raise ImportError("numpy is blocked")

sys.meta_path.insert(0, BlockNumpy())
import titeica
from titeica.cli import main

codes = [
    main(["classify", "--surface", "titeica-xyz", "--grid", "5", "5"]),
    main(["transform-check", "--surface", "titeica-xyz", "--matrix", "2,0,0,0,1,0,0,0,1", "--grid", "5", "5"]),
    main(["metric-check", "--pair", "disk:minkowski-sphere", "--grid", "5", "5"]),
]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}), file=sys.stderr)
"""


def test_package_runs_without_numpy():
    assert json.loads(python_child("-c", BLOCK_NUMPY)[1].splitlines()[-1]) == {"codes": [0, 0, 0], "numpy": False}


def test_cli_metric_check_chain():
    assert main(["metric-check", "--pair", "pseudosphere:half-plane", "--tol", "1e-9"]) == 0
    assert main(["metric-check", "--pair", "half-plane:disk", "--tol", "1e-9"]) == 0


def test_cli_metric_check_unknown_pair():
    assert main(["metric-check", "--pair", "a:b"]) == 2


@pytest.mark.parametrize("format", ["json", "csv"])
def test_a_report_longer_than_one_chunk_writes_the_same_rows_to_stdout_and_to_a_file(format, tmp_path, capsys):
    # Only a JSON config block differs, as it echoes the output path.
    argv = ["invariants", "--surface", "titeica-xyz", "--grid", "60", "60", "--format", format]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert main([*argv, "--output", str(tmp_path / "report")]) == 0
    rows = printed.split('\n  "results": ', 1)[-1]
    assert rows.count("\n") > cli._CHUNK
    assert (tmp_path / "report").read_text().split('\n  "results": ', 1)[-1] == rows


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "command": "classify",
        "surface": "sphere-origin",
        "params": {"R": 2.0},
        "grid": [6, 6],
        "format": "json",
    }))
    out = tmp_path / "out.json"
    code = main(["--config", str(cfg), "--output", str(out)])
    assert code == 0
    report = read_json(out)
    assert report["config"]["params"] == {"R": 2.0}
    assert report["config"]["grid"] == [6, 6]
    assert abs(report["summary"]["ratio_constant"] - 1.0 / 64.0) <= 1e-9

    # flags override file values
    code = main(["classify", "--config", str(cfg), "--param", "R=1", "--output", str(out)])
    assert code == 0
    report = read_json(out)
    assert abs(report["summary"]["ratio_constant"] - 1.0) <= 1e-9


@pytest.mark.parametrize("field, value", [
    ("tolerance", "abc"),
    ("matrix", [[2, 0, 0], [0, 1, 0], [0, 0, 1]]),
    ("grid", 5),
    ("params", [1]),
    ("grid", [2.9, 3]),
    ("grid", "34"),
    ("output", ["a", "b"]),
    ("surface", 5),
    ("pair", 5),
    # Beyond float range: int(inf) and float(10**400) raise OverflowError.
    ("grid", [math.inf, 3]),
    pytest.param("tolerance", 10**400, id="tolerance-10**400"),
    ("params", {"R": 10**400}),
    ("matrix", [10**400, 0, 0, 0, 1, 0, 0, 0, 1]),
])
def test_config_file_value_that_cannot_be_converted(field, value, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "command": "transform-check", "surface": "titeica-xyz", "matrix": "2,0,0,0,1,0,0,0,1", field: value,
    }))
    assert main(["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}: ")
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


@pytest.mark.parametrize("config, field", [
    ({"command": "classify", "surface": "sphere-origin", "matrix": [2, 0, 0, 0, 2, 0, 0, 0, 2]}, "matrix"),
    ({"command": "classify", "surface": "sphere-origin", "pair": "disk:minkowski-sphere"}, "pair"),
    ({"command": "invariants", "surface": "titeica-xyz", "matrix": "2,0,0,0,1,0,0,0,1"}, "matrix"),
    ({"command": "metric-check", "pair": "disk:minkowski-sphere", "surface": "plane"}, "surface"),
    ({"command": "catalog", "params": {"R": 2}}, "params"),
    ({"command": "catalog", "grid": [3, 3]}, "grid"),
    ({"command": "catalog", "tolerance": 5}, "tolerance"),
    ({"command": "invariants", "surface": "plane", "tolerance": 5}, "tolerance"),
    ({"command": "catalog", "tolerance": 0}, "tolerance"),
], ids=["classify-matrix", "classify-pair", "invariants-matrix", "metric-check-surface", "catalog-params",
        "catalog-grid", "catalog-tolerance", "invariants-tolerance", "catalog-tolerance-0"])
def test_config_file_field_its_command_does_not_take(config, field, tmp_path, capsys):
    # The parser refuses the field's flag; a file's value would be ignored
    # by the run and still echoed in its report's config.  The run refuses
    # the field before it judges the value: a tolerance of 0 is not taken
    # either, not out of range.
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    assert main(["--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", f"error: {field}: not taken by the {config['command']} command\n")


@pytest.mark.parametrize("argv, message", [
    (["--tol", "5", "catalog"], "error: tolerance: not taken by the catalog command\n"),
    (["--grid", "3", "3", "catalog"], "error: grid: not taken by the catalog command\n"),
    (["--tol", "5", "invariants", "--surface", "plane"], "error: tolerance: not taken by the invariants command\n"),
    (["catalog", "--grid", "3", "3"], "error: grid: not taken by the catalog command\n"),
    (["catalog", "--tol", "0"], "error: tolerance: not taken by the catalog command\n"),
], ids=["tol-catalog", "grid-catalog", "tol-invariants", "catalog-grid", "catalog-tol-0"])
def test_flag_its_command_does_not_take(argv, message, capsys):
    # The parser takes every flag in any position; the run refuses the
    # field, as it refuses a config file's, before it judges the value.
    assert main(argv) == 2
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("argv, config, message", [
    (["clasify"], {"command": "clasify"},
     "error: command: unknown command 'clasify'; available: catalog, invariants, classify, transform-check, "
     "metric-check\n"),
    (["catalog", "--format", "xml"], {"command": "catalog", "format": "xml"},
     "error: format: expected text, json or csv, got 'xml'\n"),
], ids=["command", "format"])
def test_a_bad_command_or_format_is_refused_alike_by_flag_and_by_config_file(argv, config, message, tmp_path,
                                                                            capsys):
    # The run judges both values, wherever they come from: one line on
    # stderr, no usage banner.
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    runs = [(main(run), capsys.readouterr()) for run in (argv, ["--config", str(cfg)])]
    assert runs == [(2, ("", message))] * 2


# Each field's flag with a value other than the field's default, and that value.
FLAG_VALUES = {
    "grid": (["--grid", "3", "4"], (3, 4)),
    "tolerance": (["--tol", "1e-6"], 1e-6),
    "format": (["--format", "json"], "json"),
    "output": (["--output", "report.json"], "report.json"),
    "surface": (["--surface", "paraboloid"], "paraboloid"),
    "params": (["--param", "R=2"], {"R": 2.0}),
    "matrix": (["--matrix", "2,0,0,0,1,0,0,0,1"], (2.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)),
    "pair": (["--pair", "half-plane:disk"], "half-plane:disk"),
}
# The flags of the fields a command requires, so that the run reaches the fields it does not take.
REQUIRED = {"surface": ["--surface", "titeica-xyz"], "matrix": ["--matrix", "1,0,0,0,1,0,0,0,1"],
            "pair": ["--pair", "disk:minkowski-sphere"]}


@pytest.mark.parametrize("field", FLAG_VALUES)
@pytest.mark.parametrize("command", cli._COMMANDS)
def test_a_flag_is_read_alike_before_and_after_the_command(command, field, tmp_path, monkeypatch, capsys):
    # One rule wherever a flag stands: the field is set, or the run
    # refuses it with the message a config file's value gets.
    monkeypatch.chdir(tmp_path)
    flag, value = FLAG_VALUES[field]
    taken = cli._COMMANDS[command].fields
    rest = [arg for name, argv in REQUIRED.items() if name in taken and name != field for arg in argv]
    before, after = [*flag, command, *rest], [command, *flag, *rest]
    if field in taken:
        config = parse_config(before)
        assert config == parse_config(after) and getattr(config, field) == value
    else:
        runs = [(main(argv), capsys.readouterr()) for argv in (before, after)]
        assert runs == [(2, ("", f"error: {field}: not taken by the {command} command\n"))] * 2
        assert list(tmp_path.iterdir()) == []


def test_a_flag_at_its_default_is_ignored_by_a_command_that_does_not_take_it(capsys):
    # As a config file's value equal to the default is: it counts as not set.
    assert main(["catalog"]) == 0
    plain = capsys.readouterr()
    assert main(["--grid", "20", "20", "catalog", "--tol", "1e-8"]) == 0
    assert capsys.readouterr() == plain


@pytest.mark.parametrize("params", [["R2"], [["R", 2]]], ids=["string", "pairs"])
def test_config_file_params_must_be_an_object(params, tmp_path, capsys):
    # dict() took both for {"R": 2}: the run classified a sphere of radius 2.
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": "classify", "surface": "sphere-origin", "params": params}))
    assert main(["--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", f"error: params: expected an object, got {params}\n")


@pytest.mark.parametrize("field, value", [
    ("tolerance", True),
    ("grid", [3, True]),
    ("matrix", [True, 0, 0, 0, True, 0, 0, 0, True]),
    ("params", {"R": True}),
])
def test_config_file_boolean_is_not_a_number(field, value, tmp_path, capsys):
    # float(True) and int(True) are 1: the run would take a true for 1.
    cfg = tmp_path / "bool.json"
    cfg.write_text(json.dumps({
        "command": "transform-check", "surface": "sphere-origin", "matrix": "2,0,0,0,1,0,0,0,1", field: value,
    }))
    assert main(["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}: ") and "True" in captured.err


def test_config_file_grid_takes_integral_numbers(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": "classify", "surface": "sphere-origin", "grid": [3.0, 3]}))
    assert parse_config(["--config", str(cfg)]).grid == (3, 3)


def test_common_flags_apply_before_the_subcommand(capsys):
    argv = ["classify", "--surface", "sphere-translated", "--grid", "4", "3", "--format", "json"]
    assert main(argv) == 0
    after = json.loads(capsys.readouterr().out)
    assert after["summary"]["is_titeica"] is False
    assert main(["--tol", "10", "--grid", "4", "3", "--format", "json", *argv[1:3], "classify"]) == 0
    before = json.loads(capsys.readouterr().out)
    assert before["config"]["tolerance"] == 10.0
    assert before["config"]["grid"] == [4, 3]
    assert before["summary"]["is_titeica"] is True
    assert before["results"] == after["results"]


ENTRY_WITH_EXIT_HOOK = """
import atexit, gc, runpy, sys
atexit.register(lambda: print("frozen heap:", gc.get_freeze_count() > 0, file=sys.stderr))
runpy.run_module("titeica.cli", run_name="__main__", alter_sys=True)  # as python -m titeica.cli
"""


ENTRY_RUNS = [(["catalog"], 0), (["classify", "--surface", "plane"], 1), (["--tol", "0"], 2)]


@pytest.mark.parametrize("argv, status", ENTRY_RUNS, ids=["catalog", "inconclusive", "bad-tol"])
def test_the_process_entry_exits_with_mains_status_and_a_frozen_heap(argv, status, capsys):
    # The exit-time collections skip a frozen heap; main's output, status
    # and atexit hooks are as an in-process main(argv) has them.
    assert main(argv) == status
    expected = capsys.readouterr()
    assert python_child("-c", ENTRY_WITH_EXIT_HOOK, *argv, status=status) == (
        expected.out, expected.err + "frozen heap: True\n")


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
def test_main_leaves_the_collector_as_it_found_it(enabled, capsys):
    # A library call, a test's or perfbench's, must not freeze its caller's heap.
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        before = gc.isenabled(), gc.get_freeze_count()
        for argv, status in ENTRY_RUNS:
            assert main(argv) == status
            assert (gc.isenabled(), gc.get_freeze_count()) == before
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_the_installed_script_is_the_process_entry():
    import tomllib

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        assert tomllib.load(fh)["project"]["scripts"] == {"titeica": "titeica.cli:_entry"}


def test_config_file_unknown_field(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"command": "catalog", "gridd": [3, 3]}))
    assert main(["--config", str(cfg)]) == 2


@pytest.mark.parametrize("text, message", [
    (None, "error: config: cannot read '{path}': "),
    ('{"command": "catalog",', "error: config: '{path}' is not valid JSON: "),
    ('["catalog"]', "error: config: '{path}' must hold a JSON object\n"),
    ('{"command": "catalog", "format": "xml"}', "error: format: expected text, json or csv, got 'xml'\n"),
], ids=["unreadable", "invalid-json", "array", "unknown-format"])
def test_config_file_that_cannot_be_used(text, message, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    if text is not None:
        cfg.write_text(text)
    assert main(["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message.format(path=cfg))


def test_output_file_takes_the_umask_mode(tmp_path, capsys):
    out = tmp_path / "v.json"
    argv = ["classify", "--surface", "sphere-origin", "--grid", "3", "3", "--output", str(out)]
    old = os.umask(0o022)
    try:
        assert main(argv) == 0  # a new report
        assert stat.S_IMODE(out.stat().st_mode) == 0o644
        assert main(argv) == 0  # over a 0644 report
        assert stat.S_IMODE(out.stat().st_mode) == 0o644
        os.umask(0o027)
        assert main(argv) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
    finally:
        os.umask(old)
    assert [p.name for p in tmp_path.iterdir()] == ["v.json"]


def test_output_leaves_the_process_umask_alone(tmp_path, capsys, monkeypatch):
    # Setting the umask to read it would give files that another thread
    # creates meanwhile mode 0666; the kernel applies it to the new file.
    def umask(mask):
        raise AssertionError("os.umask called")

    argv = ["invariants", "--surface", "sphere-origin", "--grid", "3", "3", "--format", "csv"]
    assert main(argv) == 0
    report = capsys.readouterr().out
    monkeypatch.setattr(os, "umask", umask)
    out = tmp_path / "v.csv"
    assert main([*argv, "--output", str(out)]) == 0
    assert out.read_text() == report
    assert [p.name for p in tmp_path.iterdir()] == ["v.csv"]


IMPORT_PACKAGE = """
import sys
before = set(sys.modules)
import titeica
print(*sorted(set(sys.modules) - before))
import titeica.cli
print(*sorted(set(sys.modules) - before))
titeica.cli.main(sys.argv[1:])
print(*sorted(set(sys.modules) - before))
"""


def test_import_titeica_loads_no_cli_modules():
    # Compared with the modules the bare interpreter (site included) has
    # already loaded, so only what the import adds counts.  A submodule
    # loads on first use of one of its names, and dataclasses (which loads
    # inspect), json and argparse (which loads gettext, whose first lookup
    # loads locale) cost every fresh process start-up time.
    lines = python_child("-c", IMPORT_PACKAGE, "catalog")[0].splitlines()
    by_package, by_cli, by_run = set(lines[0].split()), set(lines[1].split()), set(lines[-1].split())
    assert [m for m in by_package if m.startswith("titeica.")] == [] and "titeica.cli" in by_cli
    assert not by_package & {"statistics", "argparse", "json"}
    assert not (by_cli | by_run) & {"dataclasses", "inspect", "json", "argparse", "gettext", "locale"}


def test_only_a_help_run_loads_argparse():
    out = python_child("-c", IMPORT_PACKAGE, "classify", "--help", env={"COLUMNS": "80"})[0]
    page = golden_text("help.txt")
    assert out.count(page) == 1 and "argparse" in out[out.index(page) + len(page):].split()


COMMAND_MODULES = """
import sys
from titeica.cli import main
code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("titeica.")))
"""


# The modules each run loads besides titeica.cli: a line that is refused, or
# that asks for help, loads no library module.
@pytest.mark.parametrize("argv, status, modules", [
    (["classify", "--surface", "titeica-xyz"], 0, "jet surfaces invariants"),
    (["invariants", "--surface", "titeica-xyz"], 0, "jet surfaces invariants"),
    (["--config", "classify.json"], 0, "jet surfaces invariants"),
    (["transform-check", "--surface", "titeica-xyz", "--matrix", "2,0,0,0,1,0,0,0,1"], 0,
     "jet surfaces invariants centroaffine"),
    (["catalog"], 0, "jet surfaces metrics"),
    (["metric-check", "--pair", "half-plane:disk"], 0, "jet surfaces metrics"),
    (["classify", "--surface", "titeica-xyz", "--tol", "0"], 2, ""),
    (["--help"], 0, ""),
    (["--bogus"], 2, ""),
], ids=["classify", "invariants", "config-classify", "transform-check", "catalog", "metric-check", "bad-tol",
        "help", "bad-flag"])
def test_each_command_loads_only_the_modules_it_runs(argv, status, modules, tmp_path):
    (tmp_path / "classify.json").write_text(json.dumps({"command": "classify", "surface": "sphere-origin"}))
    code, *loaded = python_child("-c", COMMAND_MODULES, *argv, cwd=tmp_path)[0].splitlines()[-1].split()
    expected = {"cli", *modules.split()}
    assert (int(code), set(loaded)) == (status, {f"titeica.{m}" for m in expected})


LAZY_PACKAGE = """
import json
import titeica
report = {"not_listed": sorted(set(titeica.__all__) - set(dir(titeica)))}
report["metrics"] = titeica.metrics.__name__
names = {}
exec("from titeica import *", names)
report["not_bound"] = sorted(set(titeica.__all__) - set(names))
try:
    titeica.nowhere
except AttributeError as exc:
    report["unknown"] = str(exc)
print(json.dumps(report))
"""


def test_lazy_package_names():
    assert json.loads(python_child("-c", LAZY_PACKAGE)[0]) == {
        "not_listed": [],
        "metrics": "titeica.metrics",
        "not_bound": [],
        "unknown": "module 'titeica' has no attribute 'nowhere'",
    }


def test_dir_lists_every_name_and_submodule_without_importing():
    # dir() reads the name table; it loads no submodule.  This module
    # imports titeica.cli, so cli is bound and listed like the rest.
    before = set(sys.modules)
    listed = set(dir(titeica))
    assert set(sys.modules) == before
    assert set(titeica.__all__) <= listed
    assert {info.name for info in pkgutil.iter_modules(titeica.__path__)} <= listed


def readme_section(title):
    """The text of README's ``## title`` section."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme) as fh:
        return fh.read().split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_command_lines_exit_zero(tmp_path, monkeypatch):
    # Each line of the ``sh`` block, its backslash continuations joined,
    # runs through main in an empty directory and exits 0; one writes
    # verdict.json there.
    block = readme_section("Command line").split("```sh\n", 1)[1].split("```", 1)[0]
    argvs = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    argvs = [argv for argv in argvs if argv]
    assert len(argvs) == 9 and {argv[0] for argv in argvs} == {"titeica"}
    monkeypatch.chdir(tmp_path)
    for argv in argvs:
        assert main(argv[1:]) == 0, argv
    assert read_json(tmp_path / "verdict.json")["summary"]["is_titeica"] is True


def test_readme_performance_lists_every_bench_file():
    # "The files are ..." under "Performance" lists exactly the BENCH_*.json
    # files beside the README, and the section cites no other.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    on_disk = {name for name in os.listdir(root) if re.fullmatch(r"BENCH_\w+\.json", name)}
    section = readme_section("Performance")
    listed = re.search(r"The files are\s(.*?)\.\n", section, re.DOTALL).group(1)
    assert set(re.findall(r"BENCH_\w+\.json", listed)) == on_disk
    assert set(re.findall(r"BENCH_\w+\.json", section)) <= on_disk


def test_readme_test_citations_name_test_functions():
    # Each tests/<file>.py::<name> that README cites is a test function defined in that file.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        cited = re.findall(r"tests/(\w+\.py)::(\w+)", fh.read())
    assert cited
    for path, name in cited:
        with open(os.path.join(root, "tests", path)) as fh:
            defined = {n.name for n in ast.parse(fh.read()).body if isinstance(n, ast.FunctionDef)}
        assert name.startswith("test") and name in defined, (path, name)


def run_readme_library_block(index):
    """Run the ``index``-th ``python`` block under README's ``## Library``:
    its names, and the value of each bare expression, the lines whose
    value a comment gives."""
    section = readme_section("Library")
    block = section.split("```python\n")[index + 1].split("```", 1)[0]
    names, values = {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), names))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), names)
    return names, values


def test_readme_library_block():
    _, values = run_readme_library_block(0)
    f_x, ratio, hyperboloid_ratio, residual, sphere_ratio, passed = values
    assert f_x == (1.0, 0.0, -1.0)
    assert ratio == pytest.approx(1 / 27, rel=1e-12)
    assert hyperboloid_ratio == pytest.approx(-1.0, rel=1e-12)
    assert residual < 1e-14
    assert sphere_ratio == pytest.approx(1 / 64, rel=1e-9)
    assert passed is True


def test_readme_custom_surface_block():
    names, values = run_readme_library_block(1)
    assert values == [-1024.0, False]
    verdict = classify(names["saddle"])
    assert (verdict.points_evaluated, verdict.points_skipped) == (360, 40)
    assert repr(classify(names["graph"])) == repr(verdict)  # the saddle as a graph


def test_public_names_resolve():
    modules = [titeica] + [
        importlib.import_module(f"titeica.{info.name}") for info in pkgutil.iter_modules(titeica.__path__)
    ]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], module.__name__


# The elementary functions of titeica.jet are reached as titeica.jet.sin and so on.
JET_FUNCTIONS = {"sin", "cos", "exp", "log", "sqrt", "sinh", "cosh", "tanh", "atan", "atanh"}


def test_every_library_name_is_a_package_name():
    # Each library submodule's __all__, less the jet functions, is exactly
    # its row of the package's name table.  titeica.cli is the command line,
    # and its names are reached through it.
    names = {}
    for info in pkgutil.iter_modules(titeica.__path__):
        if info.name != "cli":
            names[info.name] = set(importlib.import_module(f"titeica.{info.name}").__all__) - JET_FUNCTIONS
    assert names == {module: set(row) for module, row in titeica._NAMES.items()}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_pyproject_version_is_the_package_version():
    import tomllib

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == titeica.__version__


def test_unwritable_output_path(capsys):
    code = main([
        "classify", "--surface", "sphere-origin",
        "--output", "/nonexistent-dir/report.json",
    ])
    assert code == 2
    assert "cannot write report" in capsys.readouterr().err


def test_unwritable_output_error_names_the_output_alone(capsys):
    # The same run prints the same error, naming the path given and not
    # the randomly named temporary file beside it.
    errors = []
    for _ in range(2):
        assert main(["classify", "--surface", "titeica-xyz", "--output", "/nonexistent/dir/x.json"]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert ".titeica-" not in errors[0]
    assert errors[0] == f"error: output: cannot write report to '/nonexistent/dir/x.json': {os.strerror(errno.ENOENT)}\n"


CSV_RUN = ["classify", "--surface", "sphere-origin", "--grid", "3", "3", "--format", "csv"]


def test_output_through_a_link_writes_its_target(tmp_path, capsys):
    # CSV: a JSON report echoes the --output path, so it would differ from stdout.
    assert main(CSV_RUN) == 0
    report = capsys.readouterr().out
    target, link = tmp_path / "report.csv", tmp_path / "latest.csv"
    target.write_text("an older report\n")
    link.symlink_to(target)
    assert main(CSV_RUN + ["--output", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == report
    assert sorted(p.name for p in tmp_path.iterdir()) == ["latest.csv", "report.csv"]


def test_output_to_a_fifo_reaches_its_reader(tmp_path, capsys):
    # The read end is open (and non-blocking) before the run, so opening the
    # write end does not wait; a FIFO renamed away would leave it reading b"".
    assert main(CSV_RUN) == 0
    report = capsys.readouterr().out.encode()
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(CSV_RUN + ["--output", str(fifo)]) == 0
        assert os.read(fd, 1 << 16) == report
    finally:
        os.close(fd)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["report.fifo"]


def test_output_to_own_stdout_appends_to_its_file(tmp_path, capsys):
    # --output /dev/stdout under `>> out.txt`: the report goes through stdout,
    # so the earlier line stays and the confirmation line follows the report.
    assert main(["classify", "--surface", "titeica-xyz", "--grid", "2", "2", "--format", "csv"]) == 0
    report = capsys.readouterr().out
    out = tmp_path / "out.txt"
    out.write_text("an earlier line\n")
    with open(out, "a") as fh:
        proc = subprocess.run(
            [sys.executable, "-m", "titeica.cli", "classify", "--surface", "titeica-xyz", "--grid", "2", "2",
             "--format", "csv", "--output", "/dev/stdout"],
            env=dict(os.environ, PYTHONPATH=SRC), stdout=fh, stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text() == f"an earlier line\n{report}wrote csv report to /dev/stdout\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_output_that_is_a_directory_leaves_no_temporary_file(tmp_path, capsys):
    # An existing path that is not a regular file is opened in place, with
    # no temporary file; a directory fails to open.
    (tmp_path / "report.txt").mkdir()
    code = main(["classify", "--surface", "sphere-origin", "--output", str(tmp_path / "report.txt")])
    assert code == 2
    assert "cannot write report" in capsys.readouterr().err
    assert list(tmp_path.glob(".titeica-*.tmp")) == []


def test_failed_rename_removes_the_temporary_file(tmp_path, capsys, monkeypatch):
    # The report is written to a temporary file and renamed over the output;
    # when the rename fails, the old report stays and the temporary file goes.
    def fail(src, dst):
        raise OSError(f"cannot rename {src} to {dst}")

    out = tmp_path / "report.csv"
    out.write_text("old\n")
    monkeypatch.setattr(os, "replace", fail)
    assert main(CSV_RUN + ["--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: output: cannot write report to")
    assert out.read_text() == "old\n"
    assert list(tmp_path.glob(".titeica-*.tmp")) == []


@pytest.mark.parametrize("format", ["json", "csv"])
def test_a_render_that_fails_midway_leaves_the_old_report(tmp_path, capsys, monkeypatch, format):
    # A report streams into its temporary file, so an encoder can fail after
    # a chunk is written there: the temporary file goes, the old report
    # stays, and the error is reported as a failed render always was.
    def fail(value):
        if value is None:  # the skipped cells, encoded after the report's head is written
            raise ValueError("cannot encode this cell")
        return encode(value)

    written, emit = [], cli._emit
    encode = {"json": cli._finite, "csv": cli._csv_cell}[format]
    monkeypatch.setattr(cli, {"json": "_finite", "csv": "_csv_cell"}[format], fail)
    monkeypatch.setattr(cli, "_emit", lambda text, fh: emit(written.append(text) or text, fh))
    out = tmp_path / "report"
    out.write_text("old\n")
    argv = ["invariants", "--surface", "titeica-xyz", "--grid", "50", "50", "--format", format, "--output", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: cannot encode this cell\n")
    assert written and out.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report"]


def test_empty_output_is_refused(tmp_path, capsys, monkeypatch):
    # "" would resolve to the working directory: the temporary file went to
    # the directory above it, and the rename onto the directory failed.
    work = tmp_path / "work"
    work.mkdir()
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"command": "classify", "surface": "titeica-xyz", "output": ""}))
    before = os.stat(tmp_path).st_mtime_ns
    monkeypatch.chdir(work)
    for argv in (["classify", "--surface", "titeica-xyz", "--output", ""], ["--config", str(config)]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: output: the path is empty\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json", "work"]
    assert list(work.iterdir()) == [] and os.stat(tmp_path).st_mtime_ns == before


def to_closed_pipe(*args, env=None):
    """The exit status and stderr of ``python *args`` with stdout a pipe
    whose read end is closed before the child writes, as when
    ``titeica ... | head -1`` has exited."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=SRC, **env or {}),
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("output", [[], ["--output", "/dev/stdout"]], ids=["stdout", "output-to-stdout"])
def test_closed_stdout_ends_quietly(output):
    # Status 1 and nothing on stderr.
    argv = ["classify", "--surface", "titeica-xyz", "--grid", "2", "2", *output]
    assert to_closed_pipe("-m", "titeica.cli", *argv) == (1, "")


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["--help"], ["classify", "--help"]], ids=" ".join)
def test_help_to_closed_stdout_exits_one(argv, unbuffered):
    # argparse from Python 3.11 on drops the OSError of writing its help;
    # the run must still end with status 1 and nothing on stderr.
    assert to_closed_pipe("-m", "titeica.cli", *argv, env={"PYTHONUNBUFFERED": unbuffered}) == (1, "")


CLOSED_STDOUT_TWICE = """
import json, os, sys
from titeica.cli import main
before = sorted(os.listdir("/proc/self/fd"))
statuses = [main(["catalog"]), main(["catalog"])]
print(json.dumps([statuses, before, sorted(os.listdir("/proc/self/fd"))]), file=sys.stderr)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd to list open descriptors")
def test_closed_stdout_leaks_no_descriptor():
    # In-process callers run main many times; pointing stdout at the null
    # device must not leave the descriptor it opened behind.
    status, err = to_closed_pipe("-c", CLOSED_STDOUT_TWICE)
    assert status == 0, err
    statuses, before, after = json.loads(err)
    assert statuses == [1, 0]
    assert after == before


def test_run_validates_config():
    assert run(RunConfig(command="bogus")) == 2
    assert run(RunConfig(command="classify")) == 2  # missing surface
    assert run(RunConfig(command="classify", surface="plane", tolerance=-1.0)) == 2
    assert run(RunConfig(command="metric-check")) == 2
    assert run(RunConfig(command="transform-check", surface="plane")) == 2


def help_table(text):
    """Each command's help line and flags, from the table that ends --help."""
    rows = text.partition("\ncommands, and the flags each takes besides --config:\n")[2].splitlines()
    return {line.split()[0]: (line.split(None, 1)[1], tuple(flags.split())) for line, flags in zip(rows[::2], rows[1::2])}


@pytest.mark.parametrize("command, flags", [
    (None, ("--grid", "--tol", "--format", "--output", "--surface", "--param", "--matrix", "--pair")),
    ("catalog", ("--format", "--output")),
    ("invariants", ("--grid", "--format", "--output", "--surface", "--param")),
    ("classify", ("--grid", "--tol", "--format", "--output", "--surface", "--param")),
    ("transform-check", ("--grid", "--tol", "--format", "--output", "--surface", "--param", "--matrix")),
    ("metric-check", ("--grid", "--tol", "--format", "--output", "--pair")),
], ids=["top-level", "catalog", "invariants", "classify", "transform-check", "metric-check"])
def test_each_command_lists_the_flags_of_the_fields_it_takes(command, flags, capsys):
    # One help page: its usage names every flag once, and its table each
    # command's help line over the flags of the fields it takes.
    assert main([command, "--help"] if command else ["--help"]) == 0
    out = capsys.readouterr().out
    table = help_table(out)
    if command is None:
        usage = out.partition("\n\n")[0]
        assert tuple(re.findall(r"\[(-[-\w]+)", usage)) == ("-h", "--config", *flags)
        assert {name: line for name, (line, _) in table.items()} == {n: c.help for n, c in cli._COMMANDS.items()}
    else:
        assert table[command][1] == flags


def test_run_config_params_default_to_a_fresh_dict():
    first, second = RunConfig("catalog"), RunConfig(command="catalog")
    assert first == second and first.params == {}
    assert first.params is not second.params
    assert RunConfig("catalog", params={"R": 2.0}).params == {"R": 2.0}


def test_parse_config_requires_command():
    with pytest.raises(UsageError):
        parse_config([])


def test_text_columns_hold_their_longest_cell(capsys):
    # x and y reach 23 characters here (-4.1159999999999996e+99), and the
    # skipped reasons 41: a cell padded to 22 alone pushed every later
    # column right.
    assert main(["invariants", "--surface", "sphere-origin", "--param", "R=1e100", "--grid", "3", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header, *rows = lines[lines.index("") + 1:lines.index("summary:") - 1]
    ends = [m.end() for m in re.finditer(r"\S+", header)]
    starts = [0] + [end + 2 for end in ends[:-1]]
    records = scan_grid(catalog("sphere-origin", R=1e100), (3, 2))
    assert len(rows) == len(records) == 6
    for line, record in zip(rows, records):
        cells = [line[a:b] for a, b in zip(starts, ends)]
        assert len(line) == ends[-1] and all(line[end:end + 2] == "  " for end in ends[:-1])
        assert [c.strip() for c in cells] == [cli._fmt(v) for v in record]
        assert all(c.isspace() or c[-1] != " " for c in cells)  # each cell ends under its header


def test_one_parser_serves_every_run_of_a_process(capsys, monkeypatch):
    # Runs of one process share the flag table: one run's --param and
    # --format must not reach the next run, and --help still reads COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["classify", "--surface", "sphere-origin", "--grid", "3", "2"]
    assert main([*argv, "--param", "R=2", "--format", "json"]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert main(["--help"]) == 0
    help_text = capsys.readouterr().out
    assert second == python_child("-m", "titeica.cli", *argv)[0]
    assert help_text == golden_text("help.txt")
