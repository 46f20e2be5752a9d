"""Report bytes pinned to golden files.

Each file under ``tests/golden/`` is the stdout of ``main(argv)`` for the
argv beside its name; the run writes no stderr and returns 0, or 1 for
the all-skipped transform-check, ``FAILING``.  Eleven of them use only arithmetic and ``sqrt``,
so their bytes do not depend on the platform's math library: the
catalog, classify and transform-check on titeica-xyz, transform-check
on the plane (every row skipped with d = 0), invariants on
sphere-origin (at R = 2, and at R = 1e100 in CSV and JSON, where every
row is skipped with an underflowing K/d^4), invariants on the paraboloid
in CSV and JSON (its vertex, a grid point, is skipped with d = 0),
transform-check on the paraboloid and the half-plane to disk pullback.  The other seven pin
the jet paths through ``sin``, ``cos``, ``sinh``, ``cosh``, ``tanh``,
``atan`` and ``atanh``: classify and transform-check on the
pseudosphere, invariants and transform-check on the Minkowski sphere,
the pseudosphere-to-half-plane pullback in text and the
disk-to-hyperboloid pullback in CSV and JSON.
Their last digits follow the C library's ``libm`` (they were written
with glibc on x86-64).  ``help.txt`` pins the one ``--help`` page, which
every command's ``--help`` prints too, at 80 columns; its layout follows
the ``argparse`` of the Python that wrote it (3.11).  A
deliberate change of report or help bytes rewrites the file from the new
output and says why in CHANGES.md.  The directory holds exactly the
files named in ``GOLDEN``, so an orphaned or unpinned file fails.  Each
JSON report is laid out as ``json.dumps(..., indent=2)`` lays out its
content and reruns from its own ``config``, and every float cell of
every report is the shortest text that reads back to its float, its
``repr``.
"""

import csv
import io
import json
import os
import re

import pytest

from titeica.cli import main
from titeica.metrics import pair_names

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

GOLDEN = {
    "catalog.txt": ["catalog"],
    "classify-titeica-xyz.json": [
        "classify", "--surface", "titeica-xyz", "--format", "json", "--grid", "5", "4",
    ],
    "invariants-sphere-origin.csv": [
        "invariants", "--surface", "sphere-origin", "--param", "R=2", "--format", "csv", "--grid", "4", "3",
    ],
    "transform-check-paraboloid.txt": [
        "transform-check", "--surface", "paraboloid",
        "--matrix", "1.3,0.2,-0.4,0.1,0.9,0.3,-0.2,0.5,1.1", "--grid", "4", "4",
    ],
    "metric-check-half-plane-disk.json": [
        "metric-check", "--pair", "half-plane:disk", "--format", "json", "--grid", "3", "3",
    ],
    # README's pseudosphere to half-plane check, in text
    "metric-check-pseudosphere-half-plane.txt": [
        "metric-check", "--pair", "pseudosphere:half-plane", "--tol", "1e-9", "--grid", "5", "4",
    ],
    "classify-pseudosphere.json": [
        "classify", "--surface", "pseudosphere", "--format", "json", "--grid", "5", "4",
    ],
    "invariants-minkowski-sphere.txt": [
        "invariants", "--surface", "minkowski-sphere", "--grid", "4", "3",
    ],
    "metric-check-disk-minkowski-sphere.csv": [
        "metric-check", "--pair", "disk:minkowski-sphere", "--format", "csv", "--grid", "3", "3",
    ],
    # a small map, det = 1e-9: every point is evaluated at its own scale
    "transform-check-titeica-xyz-small.json": [
        "transform-check", "--surface", "titeica-xyz",
        "--matrix", "0.001,0,0,0,0.001,0,0,0,0.001", "--format", "json", "--grid", "4", "4",
    ],
    # every point skipped, every tangent plane through the origin at every scale: null maxima
    "transform-check-plane-small.json": [
        "transform-check", "--surface", "plane",
        "--matrix", "0.001,0,0,0,0.001,0,0,0,0.001", "--format", "json", "--grid", "4", "4",
    ],
    # a general map: jets that are not of Monge form
    "transform-check-pseudosphere.csv": [
        "transform-check", "--surface", "pseudosphere",
        "--matrix", "0.7,-1.2,0.3,2.1,0.4,-0.6,0.05,0.9,1.7", "--format", "csv", "--grid", "4", "3",
    ],
    # every row skipped: null cells in JSON, empty cells and a quoted reason in CSV
    "invariants-sphere-origin-skipped.csv": [
        "invariants", "--surface", "sphere-origin", "--param", "R=1e100", "--format", "csv", "--grid", "3", "2",
    ],
    "invariants-sphere-origin-skipped.json": [
        "invariants", "--surface", "sphere-origin", "--param", "R=1e100", "--format", "json", "--grid", "3", "2",
    ],
    # one row skipped, the vertex on the grid: columns that mix numbers, None and text
    "invariants-paraboloid-vertex.csv": [
        "invariants", "--surface", "paraboloid", "--format", "csv", "--grid", "5", "5",
    ],
    "invariants-paraboloid-vertex.json": [
        "invariants", "--surface", "paraboloid", "--format", "json", "--grid", "5", "5",
    ],
    # a Minkowski-ambient surface: source and image read under its form
    "transform-check-minkowski-sphere.json": [
        "transform-check", "--surface", "minkowski-sphere",
        "--matrix", "1.5,0.2,0,0,1,0.3,0.1,0,0.8", "--format", "json", "--grid", "4", "3",
    ],
    # the summary block of two change variants
    "metric-check-disk-minkowski-sphere.json": [
        "metric-check", "--pair", "disk:minkowski-sphere", "--format", "json", "--grid", "3", "3",
    ],
    "help.txt": ["--help"],
}


# An all-skipped transform-check fails its check by design.
FAILING = "transform-check-plane-small.json"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_matches_golden_file(name, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps help text to
    assert main(GOLDEN[name]) == (1 if name == FAILING else 0)
    out, err = capsys.readouterr()
    assert err == ""
    assert out == golden_text(name)


def golden_text(name):
    with open(os.path.join(GOLDEN_DIR, name), newline="") as fh:
        return fh.read()


REPORTS = sorted(name for name in GOLDEN if not name.startswith("help"))


@pytest.mark.parametrize("name", [name for name in REPORTS if name.endswith(".json")])
def test_json_report_is_laid_out_as_json_dumps(name):
    text = golden_text(name)
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("name", [name for name in REPORTS if name.endswith(".json")])
def test_json_report_reruns_from_its_config(name, tmp_path, capsys):
    text = golden_text(name)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(json.loads(text)["config"]))
    assert main(["--config", str(config)]) == (1 if name == FAILING else 0)
    assert capsys.readouterr().out == text


NUMBER = re.compile(r"-?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")
KEY = re.compile(r"\s*[^\s:]+: ")  # a "key: value" line of a text report


def float_cells(name, text):
    """The text of each float in a report: each JSON number with a point or
    an exponent, and each CSV cell, text table cell or text "key: value"
    value that is such a number."""
    if name.endswith(".json"):
        cells = []
        json.loads(text, parse_float=cells.append)
        return cells
    if name.endswith(".csv"):
        cells = [cell for row in csv.reader(io.StringIO(text)) for cell in row]
    else:  # the cells of a table row are two or more spaces apart
        cells = [cell for line in text.splitlines()
                 for cell in (line.split(": ", 1)[1:] if KEY.match(line) else re.split(r"\s{2,}", line))]
    return [c for c in cells if NUMBER.fullmatch(c) and not c.lstrip("-").isdigit()]


@pytest.mark.parametrize("name", REPORTS)
def test_every_float_cell_is_its_repr(name):
    cells = float_cells(name, golden_text(name))
    assert cells or name == "catalog.txt"
    assert [c for c in cells if c != repr(float(c))] == []


def test_golden_directory_holds_exactly_the_pinned_files():
    assert sorted(os.listdir(GOLDEN_DIR)) == sorted(GOLDEN)


@pytest.mark.parametrize("command", ["catalog", "invariants", "classify", "transform-check", "metric-check"])
def test_each_command_help_is_the_help_page(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([command, "--help"]) == 0
    assert capsys.readouterr() == (golden_text("help.txt"), "")


def test_catalog_lists_every_metric_pair(capsys):
    # The --pair help points to the catalog, so that building the parser
    # imports no metrics; the catalog must name exactly the pairs check_pair accepts.
    assert main(["catalog", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert [name for kind, name, _, _ in rows if kind == "metric-pair"] == pair_names()
