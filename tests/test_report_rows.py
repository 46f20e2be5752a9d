"""Report rows: the JSON and CSV renderers write each row from text built
once per report, and must give the bytes of the general encoder.

The references below render every cell on its own: JSON as
``_json_object`` over ``_json_text`` of the row's cells, CSV as ``_fmt``
and the quoting rule.
"""

import json
import math
from json.encoder import encode_basestring_ascii as string

import pytest

from helpers import nan_metric_pair
from titeica import cli, metrics
from titeica.cli import RunConfig
from titeica.metrics import pair_names
from titeica.surfaces import catalog, catalog_entries

GRID = (4, 3)

# The transform-check matrices of tests/golden/; 1e-3 I skips every point.
MATRICES = (
    (1.3, 0.2, -0.4, 0.1, 0.9, 0.3, -0.2, 0.5, 1.1),
    (0.001, 0, 0, 0, 0.001, 0, 0, 0, 0.001),
    (0.7, -1.2, 0.3, 2.1, 0.4, -0.6, 0.05, 0.9, 1.7),
)


def reference_json(report):
    keys = [string(c) for c in report.columns]
    results = [
        cli._json_object([(k, cli._json_text(v, 3, string)) for k, v in zip(keys, row)], 2) for row in report.rows
    ]
    return cli._json_object([
        ('"command"', string(report.command)),
        ('"config"', cli._json_text(report.config, 1, string)),
        ('"results"', cli._json_array(results, 1)),
        ('"summary"', cli._json_text(report.summary, 1, string)),
    ], 0) + "\n"


def reference_csv(report):
    if not report.rows:
        return ""
    lines = [",".join(report.columns)]
    for row in report.rows:
        cells = [cli._fmt(v) for v in row]
        lines.append(",".join('"' + c.replace('"', '""') + '"' if "," in c or '"' in c else c for c in cells))
    return "\n".join(lines) + "\n"


def configs():
    yield RunConfig("catalog")
    for name, _, _ in catalog_entries():
        yield RunConfig("invariants", surface=name, grid=GRID)
        if catalog(name).ambient.name == "euclidean":
            for m in MATRICES:
                yield RunConfig("transform-check", surface=name, grid=GRID, matrix=m)
    # every point skipped with an underflowing K/d^4
    yield RunConfig("invariants", surface="sphere-origin", params={"R": 1e100}, grid=GRID)
    for name in pair_names():
        yield RunConfig("metric-check", pair=name, grid=GRID)


def check_rows(report):
    text = cli._render_json(report)
    assert text == reference_json(report)
    assert cli._render_csv(report) == reference_csv(report)
    results = json.loads(text)["results"]
    assert len(results) == len(report.rows)
    for row, obj in zip(report.rows, results):
        for column, v in zip(report.columns, row):
            if isinstance(v, float) and math.isfinite(v):
                assert float(obj[column]) == v


@pytest.mark.parametrize("config", configs(), ids=lambda c: " ".join(map(str, filter(None, c[:6]))))
def test_rows_match_the_general_encoder(config):
    check_rows(cli._HANDLERS[config.command](config))


def test_nan_rows_match_the_general_encoder(monkeypatch):
    monkeypatch.setitem(metrics._PAIRS, "flat:nan", nan_metric_pair())
    report = cli._HANDLERS["metric-check"](RunConfig("metric-check", pair="flat:nan", grid=GRID))
    assert any(isinstance(v, float) and math.isnan(v) for row in report.rows for v in row)
    check_rows(report)


def test_edge_cells():
    columns = ("nan", "inf", "-inf", "-0", "none", "text", "bool", "int", "float", "100%")
    row = (math.nan, math.inf, -math.inf, -0.0, None, 'say "x, y"', True, 3, 0.1, 2.5)
    report = cli._Report("invariants", {}, columns, [row], {})
    assert cli._render_json(report) == (
        '{\n'
        '  "command": "invariants",\n'
        '  "config": {},\n'
        '  "results": [\n'
        '    {\n'
        '      "nan": null,\n'
        '      "inf": null,\n'
        '      "-inf": null,\n'
        '      "-0": -0,\n'
        '      "none": null,\n'
        '      "text": "say \\"x, y\\"",\n'
        '      "bool": true,\n'
        '      "int": 3,\n'
        '      "float": 0.10000000000000001,\n'
        '      "100%": 2.5\n'
        '    }\n'
        '  ],\n'
        '  "summary": {}\n'
        '}\n'
    )
    assert cli._render_csv(report) == (
        'nan,inf,-inf,-0,none,text,bool,int,float,100%\n'
        'nan,inf,-inf,-0,,"say ""x, y""",true,3,0.10000000000000001,2.5\n'
    )


def test_empty_rows():
    report = cli._Report("invariants", {}, ("x", "y"), [], {})
    assert '\n  "results": [],\n' in cli._render_json(report)
    assert cli._render_csv(report) == ""
