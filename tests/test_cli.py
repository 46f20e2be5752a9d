import importlib
import json
import os
import pkgutil
import stat
import subprocess
import sys

import pytest

import titeica
from titeica import EUCLIDEAN, SurfaceDef, classify, cli, parametric, scan_grid, surfaces
from titeica.cli import RunConfig, main, parse_config, run
from titeica.errors import InconclusiveError, UsageError
from titeica.surfaces import catalog


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_classify_function_sphere():
    verdict = classify(catalog("sphere-origin", R=1.0))
    assert verdict.is_titeica
    assert abs(verdict.ratio_constant - 1.0) <= 1e-9
    assert verdict.spread <= 1e-9
    assert verdict.points_evaluated == 400


def test_classify_function_translated_sphere():
    verdict = classify(catalog("sphere-translated", R=1.0, c=2.0))
    assert not verdict.is_titeica
    assert verdict.spread > 0.1


def test_classify_withholds_verdict_when_grid_is_singular():
    with pytest.raises(InconclusiveError):
        classify(catalog("plane"))


@pytest.mark.parametrize("radius", [1e200])
def test_non_finite_ratio_is_a_skipped_point(radius, capsys):
    # R = 1e200 makes R^2 inf, so K and d are nan or inf.  catalog() and the
    # command line refuse such a radius, so the cap is built from its row.
    coords, box = surfaces._CATALOG["sphere-origin"].shape(R=radius)
    cap = SurfaceDef("sphere-origin", parametric(coords), box, EUCLIDEAN)
    records = scan_grid(cap, grid=(4, 4))
    assert all(r.skipped.startswith("non-finite") and r.ratio is None for r in records)
    with pytest.raises(InconclusiveError, match="^400/400 grid points"):
        classify(cap)
    assert main(["classify", "--surface", "sphere-origin", "--param", f"R={radius}"]) == 2
    assert capsys.readouterr().err.startswith("error: surface 'sphere-origin': radius R is too large")


@pytest.mark.parametrize("radius", [1e52, 1e60, 1e100])
def test_underflowing_ratio_is_a_skipped_point(radius, capsys):
    # K/d^4 = R^-6 is subnormal at R = 1e52 and rounds to 0 at R = 1e60; at
    # R = 1e100, K = 1e-200 and d = 1e100 are finite but V^4 overflows, and
    # num / V^2 / V^2 rounds to 0
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


def test_cli_classify_json(tmp_path):
    out = tmp_path / "verdict.json"
    code = main([
        "classify", "--surface", "sphere-origin", "--param", "R=1",
        "--format", "json", "--output", str(out),
    ])
    assert code == 0
    report = read_json(out)
    assert report["command"] == "classify"
    assert report["summary"]["is_titeica"] is True
    assert abs(report["summary"]["ratio_constant"] - 1.0) <= 1e-9
    assert len(report["results"]) == 400
    first = report["results"][0]
    assert set(first) == {"x", "y", "K", "d", "ratio", "skipped"}


def test_cli_classify_inconclusive_exit_code():
    assert main(["classify", "--surface", "plane"]) == 1


def test_cli_unknown_surface_exit_code(capsys):
    assert main(["classify", "--surface", "nope"]) == 2
    assert "unknown surface" in capsys.readouterr().err


def test_cli_grid_validation():
    assert main(["classify", "--surface", "plane", "--grid", "1", "9"]) == 2


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


def test_cli_transform_check_refuses_non_euclidean_surface(capsys):
    argv = ["transform-check", "--surface", "minkowski-sphere", "--matrix", "2,0,0,0,1,0,0,0,1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("verification error: centro-affine action requires a "
                            "Euclidean-ambient surface, got 'minkowski'\n")


def test_cli_transform_check_rejects_bad_matrix(capsys):
    assert main([
        "transform-check", "--surface", "paraboloid", "--matrix", "1,2,3",
    ]) == 2
    assert main([
        "transform-check", "--surface", "paraboloid",
        "--matrix", "1,0,0,0,1,0,1,1,0",
    ]) == 2
    assert "matrix" in capsys.readouterr().err
    for entries in ("nan,0,0,0,1,0,0,0,1", "1,0,0,0,inf,0,0,0,1"):
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
    src = os.path.dirname(os.path.dirname(os.path.abspath(titeica.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", BLOCK_NUMPY], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1]) == {"codes": [0, 0, 0], "numpy": False}


def test_cli_metric_check_chain():
    assert main(["metric-check", "--pair", "pseudosphere:half-plane", "--tol", "1e-9"]) == 0
    assert main(["metric-check", "--pair", "half-plane:disk", "--tol", "1e-9"]) == 0


def test_cli_metric_check_disk_variants(tmp_path):
    out = tmp_path / "disk.json"
    code = main([
        "metric-check", "--pair", "disk:minkowski-sphere",
        "--format", "json", "--output", str(out),
    ])
    assert code == 0
    summary = read_json(out)["summary"]
    assert summary["matching_variant"] == "radius"
    assert summary["variants"]["radius"]["passed"] is True
    assert summary["variants"]["squared-radius"]["passed"] is False


def test_cli_metric_check_unknown_pair():
    assert main(["metric-check", "--pair", "a:b"]) == 2


def test_cli_catalog_lists_everything(capsys):
    assert main(["catalog"]) == 0
    text = capsys.readouterr().out
    for name in ("sphere-origin", "titeica-xyz", "minkowski-sphere", "half-plane", "disk:minkowski-sphere"):
        assert name in text


def test_cli_invariants_csv(tmp_path):
    out = tmp_path / "table.csv"
    code = main([
        "invariants", "--surface", "paraboloid", "--grid", "4", "3",
        "--format", "csv", "--output", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,K,d,ratio,skipped"
    assert len(lines) == 13


def test_reports_are_byte_deterministic(tmp_path):
    argv = [
        "classify", "--surface", "titeica-xyz", "--format", "json",
        "--output", str(tmp_path / "r.json"),
    ]
    assert main(argv) == 0
    first = (tmp_path / "r.json").read_bytes()
    assert main(argv) == 0
    assert (tmp_path / "r.json").read_bytes() == first

    argv_csv = [
        "invariants", "--surface", "pseudosphere", "--format", "csv",
        "--output", str(tmp_path / "r.csv"),
    ]
    assert main(argv_csv) == 0
    first_csv = (tmp_path / "r.csv").read_bytes()
    assert main(argv_csv) == 0
    assert (tmp_path / "r.csv").read_bytes() == first_csv


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
    assert main(["--tol", "10", "--grid", "4", "3", "--format", "json", *argv[:3]]) == 0
    before = json.loads(capsys.readouterr().out)
    assert before["config"]["tolerance"] == 10.0
    assert before["config"]["grid"] == [4, 3]
    assert before["summary"]["is_titeica"] is True
    assert before["results"] == after["results"]


def test_module_entry_point_runs_cleanly():
    src = os.path.dirname(os.path.dirname(os.path.abspath(titeica.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "titeica.cli", "catalog"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "titeica-xyz" in proc.stdout


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


IMPORT_PACKAGE = """
import sys
before = set(sys.modules)
import titeica
print(*sorted(set(sys.modules) - before))
import titeica.cli
print(*sorted(set(sys.modules) - before))
"""


def test_import_titeica_loads_no_cli_modules():
    # Compared with the modules the bare interpreter (site included) has
    # already loaded, so only what the import adds counts.  dataclasses
    # (which loads inspect) and json cost every fresh process start-up time.
    src = os.path.dirname(os.path.dirname(os.path.abspath(titeica.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", IMPORT_PACKAGE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    by_package, by_cli = (set(line.split()) for line in proc.stdout.splitlines())
    assert "titeica.invariants" in by_package and "titeica.cli" in by_cli
    assert not by_package & {"statistics", "argparse", "json", "titeica.cli"}
    assert not by_cli & {"dataclasses", "inspect", "json"}


def test_public_names_resolve():
    modules = [titeica] + [
        importlib.import_module(f"titeica.{info.name}") for info in pkgutil.iter_modules(titeica.__path__)
    ]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_unwritable_output_path(capsys):
    code = main([
        "classify", "--surface", "sphere-origin",
        "--output", "/nonexistent-dir/report.json",
    ])
    assert code == 2
    assert "cannot write report" in capsys.readouterr().err


def test_run_validates_config():
    assert run(RunConfig(command="bogus")) == 2
    assert run(RunConfig(command="classify")) == 2  # missing surface
    assert run(RunConfig(command="classify", surface="plane", tolerance=-1.0)) == 2
    assert run(RunConfig(command="metric-check")) == 2
    assert run(RunConfig(command="transform-check", surface="plane")) == 2


def test_every_config_field_has_one_converter():
    assert tuple(cli._CONVERTERS) == RunConfig._fields
    first, second = RunConfig("catalog"), RunConfig(command="catalog")
    assert first == second and first.params == {}
    assert first.params is not second.params
    assert RunConfig("catalog", params={"R": 2.0}).params == {"R": 2.0}


def test_parse_config_requires_command():
    with pytest.raises(UsageError):
        parse_config([])


def test_cli_help_exits_zero():
    assert main(["--help"]) == 0
