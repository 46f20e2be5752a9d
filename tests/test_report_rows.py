"""Report rows: the JSON, CSV and text renderers stream each report in
chunks of ``cli._CHUNK`` rows, with each column encoding each distinct
cell once, and must give the bytes of the general encoders.

The references below render every cell on its own: JSON as
``json.dumps`` of the whole document with ``indent=2`` and each
non-finite float as None, CSV as ``_fmt`` and the quoting rule, text as
``_fmt`` right-aligned to its column's width: 22, or its header or its
longest cell where that is longer.
"""

import json
import math
import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import add_nan_pair
from titeica import cli
from titeica.cli import RunConfig
from titeica.metrics import pair_names
from titeica.surfaces import catalog_entries

GRID = (4, 3)

# The transform-check matrices of tests/golden/; 1e-3 I skips every point.
MATRICES = (
    (1.3, 0.2, -0.4, 0.1, 0.9, 0.3, -0.2, 0.5, 1.1),
    (0.001, 0, 0, 0, 0.001, 0, 0, 0, 0.001),
    (0.7, -1.2, 0.3, 2.1, 0.4, -0.6, 0.05, 0.9, 1.7),
)


def strict(value):
    """``value`` with each non-finite float, in a dict or list too, as None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [strict(v) for v in value]
    return value


def reference_json(report):
    document = {
        "config": report.config,
        "results": [dict(zip(report.columns, row)) for row in report.rows],
        "summary": report.summary,
    }
    return json.dumps(strict(document), indent=2) + "\n"


def reference_csv(report):
    if not report.rows:
        return ""
    lines = [",".join(report.columns)]
    for row in report.rows:
        cells = [cli._fmt(v) for v in row]
        lines.append(",".join('"' + c.replace('"', '""') + '"' if "," in c or '"' in c else c for c in cells))
    return "\n".join(lines) + "\n"


def reference_text(report):
    text = "".join(cli._render_text(report._replace(rows=[])))
    if not report.rows:
        return text
    widths = [max(22, len(c), *(len(cli._fmt(row[j])) for row in report.rows)) for j, c in enumerate(report.columns)]
    lines = ["  ".join(f"{c:>{w}}" for c, w in zip(report.columns, widths))]
    lines += ["  ".join(f"{cli._fmt(v):>{w}}" for v, w in zip(row, widths)) for row in report.rows]
    # Without rows the report goes from its config lines and a blank line
    # straight to the summary.
    return text.replace("\n\nsummary:\n", "\n\n" + "\n".join(lines) + "\n\nsummary:\n", 1)


def configs():
    yield RunConfig("catalog")
    for name, _, _ in catalog_entries():
        yield RunConfig("invariants", surface=name, grid=GRID)
        for m in MATRICES:
            yield RunConfig("transform-check", surface=name, grid=GRID, matrix=m)
    # every point skipped with an underflowing K/d^4
    yield RunConfig("invariants", surface="sphere-origin", params={"R": 1e100}, grid=GRID)
    for name in pair_names():
        yield RunConfig("metric-check", pair=name, grid=GRID)


def report_of(config):
    """The report ``run`` renders for ``config``: the fields its command
    takes, then the handler's columns, rows and summary."""
    command = cli._COMMANDS[config.command]
    echo = {k: list(v) if isinstance(v, tuple) else v for k, v in config._asdict().items() if k in command.fields}
    return cli._Report(echo, *command.handler(config))


def check_cells(report):
    """Every row cell is a float, None or a string: the cell model
    ``cli._cells`` relies on, in which 0.0 and -0.0 are the only cells
    that compare equal but encode apart."""
    assert {type(v) for row in report.rows for v in row} <= {float, type(None), str}


def check_rows(report):
    text = "".join(cli._render_json(report))
    assert text == reference_json(report)
    assert "".join(cli._render_csv(report)) == reference_csv(report)
    assert "".join(cli._render_text(report)) == reference_text(report)
    results = json.loads(text)["results"]
    assert len(results) == len(report.rows)
    for row, obj in zip(report.rows, results):
        for column, v in zip(report.columns, row):
            if isinstance(v, float) and math.isfinite(v):
                assert float(obj[column]) == v


@pytest.mark.parametrize("config", configs(), ids=lambda c: " ".join(map(str, filter(None, c[:6]))))
def test_rows_match_the_general_encoder(config):
    report = report_of(config)
    check_cells(report)
    check_rows(report)


def test_nan_rows_match_the_general_encoder(monkeypatch):
    add_nan_pair(monkeypatch)
    report = report_of(RunConfig("metric-check", pair="flat:nan", grid=GRID))
    assert any(isinstance(v, float) and math.isnan(v) for row in report.rows for v in row)
    check_cells(report)
    check_rows(report)


def test_edge_cells():
    columns = ("nan", "inf", "-inf", "-0", "none", "text", "bool", "int", "float", "100%")
    row = (math.nan, math.inf, -math.inf, -0.0, None, 'say "x, y"', True, 3, 0.1, 2.5)
    report = cli._Report({"command": "invariants"}, columns, [row], {})
    assert "".join(cli._render_json(report)) == (
        '{\n'
        '  "config": {\n'
        '    "command": "invariants"\n'
        '  },\n'
        '  "results": [\n'
        '    {\n'
        '      "nan": null,\n'
        '      "inf": null,\n'
        '      "-inf": null,\n'
        '      "-0": -0.0,\n'
        '      "none": null,\n'
        '      "text": "say \\"x, y\\"",\n'
        '      "bool": true,\n'
        '      "int": 3,\n'
        '      "float": 0.1,\n'
        '      "100%": 2.5\n'
        '    }\n'
        '  ],\n'
        '  "summary": {}\n'
        '}\n'
    )
    assert "".join(cli._render_csv(report)) == (
        'nan,inf,-inf,-0,none,text,bool,int,float,100%\n'
        'nan,inf,-inf,-0.0,,"say ""x, y""",true,3,0.1,2.5\n'
    )

    # Each column encodes each distinct cell once: 0.0 and -0.0 (one dict
    # key) next to each other in both orders, non-finite values, repeated
    # and unrepeated values, and a bool and an int equal to a float beside
    # it.
    coordinates = [
        (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (0.0, 0.0), (0.5, 0.0),
        (math.nan, math.inf), (-math.inf, math.nan), (0.25, 0.5), (0.5, 0.25),
        (1.0, True), (True, 1.0), (3, 2 / 3), (1e-300, -1e-300),
    ]
    xs = ["0.0", "-0.0", "-0.0", "0.0", "0.5", "nan", "-inf", "0.25", "0.5", "1.0", "true", "3", "1e-300"]
    ys = ["-0.0", "0.0", "-0.0", "0.0", "0.0", "inf", "nan", "0.5", "0.25", "true", "1.0", "0.6666666666666666",
          "-1e-300"]
    report = cli._Report({"command": "invariants"}, ("x", "y", "ratio"), [(x, y, 0.5) for x, y in coordinates], {})
    check_rows(report)
    csv = [line.split(",") for line in "".join(cli._render_csv(report)).splitlines()[1:]]
    assert csv == [[x, y, "0.5"] for x, y in zip(xs, ys)]
    text = "".join(cli._render_text(report)).splitlines()[3:-2]  # the row lines
    assert [[line[i:i + 22].strip() for i in (0, 24, 48)] for line in text] == [[x, y, "0.5"] for x, y in zip(xs, ys)]
    null = {"nan": "null", "inf": "null", "-inf": "null"}
    json_lines = "".join(cli._render_json(report)).splitlines()
    assert [v.split(": ")[1] for v in json_lines if v.startswith('      "x": ')] == [null.get(x, x) + "," for x in xs]
    assert [v.split(": ")[1] for v in json_lines if v.startswith('      "y": ')] == [null.get(y, y) + "," for y in ys]


# The cells that compare equal but encode apart (0.0 and -0.0, a numpy zero
# of either sign), non-finite floats, None, and strings holding the CSV and
# "%" specials and non-ASCII characters.  A report cell is a float, None or
# a string (see ``check_cells``), so no bool or int is drawn.
FLOATS = st.sampled_from([0.0, -0.0, 1.0, 0.5, math.inf, -math.inf, math.nan]) | st.floats()
KINDS = (
    FLOATS,
    FLOATS.map(np.float64),
    st.sampled_from([0.0, -0.0, np.float64(0.0), np.float64(-0.0), 1.0, None]),
    st.text(st.sampled_from('%s,"é€ x0'), max_size=4),
)
CELLS = st.one_of(*KINDS)

ENCODERS = {
    # the JSON renderer's rule: json's text, with a non-finite float as null
    "json": lambda v: json.dumps(strict(v)),
    "csv": cli._csv_cell,
    "text": cli._fmt,
}


@st.composite
def tables(draw):
    """Rows of 1 to 4 columns, each column drawn from one kind of cell or
    from all of them."""
    n = draw(st.integers(1, 8))
    kinds = draw(st.lists(st.sampled_from(KINDS + (CELLS,)), min_size=1, max_size=4))
    return list(zip(*(draw(st.lists(kind, min_size=n, max_size=n)) for kind in kinds)))


# For a failing example Hypothesis imports libcst to print a patch; a libcst
# that warns on import would turn the failure into an internal error of the
# whole pytest run under ``filterwarnings = error``.
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@pytest.mark.parametrize("format", ENCODERS)
@settings(derandomize=True, database=None, deadline=None)
@given(rows=tables())
def test_fill_matches_a_per_cell_encoder(format, rows):
    encode = ENCODERS[format]
    report = cli._Report({"command": "invariants"}, tuple(f"c{i}" for i in range(len(rows[0]))), rows, {})
    parts = ["<", *["|"] * (len(report.columns) - 1), ">"]
    filled = cli._fill(parts, "\n", cli._cells(report, encode), len(rows))
    assert "".join(filled) == "\n".join("<" + "|".join(map(encode, cells)) + ">" for cells in rows)


def test_equal_cells_of_a_column_share_one_string():
    report = report_of(RunConfig("classify", surface="sphere-origin", params={"R": 1.3}, grid=(50, 50)))
    columns = cli._cells(report, ENCODERS["json"])
    for name, column in zip(report.columns, columns):
        assert len(column) == 2500
        assert len(set(map(id, column))) == len(set(column)), name
    assert len(set(map(id, columns[report.columns.index("skipped")]))) == 1
    assert len(set(map(id, columns[report.columns.index("d")]))) <= 4


@pytest.mark.parametrize("format", ENCODERS)
def test_a_skipped_row_keeps_its_columns_sharing_one_string_per_cell(format):
    # An odd grid puts the paraboloid's vertex on the grid, and the vertex
    # is skipped: K, d and ratio mix None with floats, skipped None with text.
    report = report_of(RunConfig("invariants", surface="paraboloid", grid=(21, 21)))
    assert sum(r.skipped is not None for r in report.rows) == 1
    columns = cli._cells(report, ENCODERS[format])
    for name, column in zip(report.columns, columns):
        assert len(column) == 441
        assert len(set(map(id, column))) == len(set(column)) < 441, name


def test_empty_rows():
    report = cli._Report({"command": "invariants"}, ("x", "y"), [], {})
    assert '\n  "results": [],\n' in "".join(cli._render_json(report))
    assert "".join(cli._render_csv(report)) == ""


C = cli._CHUNK


def chunked_report(n):
    """``n`` rows that reach past chunk boundaries: a zero column that is
    0.0 in the first chunk and -0.0 after it, repeated and distinct floats,
    a CSV-quoted string and two columns of one value each."""
    rows = [((i % 7) * 0.5 - 1.0, i / 3, 0.0 if i < C else -0.0, 2.5, None, 'a,"b"' if i % 5 else "c")
            for i in range(n)]
    return cli._Report({"command": "invariants"}, ("x", "y", "zero", "same", "skipped", "text"), rows, {"n": n})


def constant_report(n):
    """``n`` rows in which every column holds one value."""
    return cli._Report({"command": "invariants"}, ("x", "skipped", "text"), [(0.5, None, "x")] * n, {})


def row_chunks(format, n):
    """Where the chunks that hold rows sit among all the chunks of a
    streamed ``format`` report of ``n`` rows, how many rows each holds,
    and how many chunks there are in all."""
    sizes = [C] * (n // C) + [n % C] * (n % C > 0)
    if format == "csv":  # the header, then the rows
        return slice(1, None), sizes, len(sizes) + 1 if n else 0
    if format == "text":  # the config, the header, the rows and the summary
        return slice(2, -1) if n else slice(1, 1), sizes, len(sizes) + 3 if n else 2
    # JSON: the config, the rows, the line that closes them and the summary
    return slice(1, -2) if n else slice(1, 1), sizes, len(sizes) + 3 if n else 2


@pytest.mark.parametrize("n", [0, 1, C - 1, C, C + 1, 2 * C + 1])
@pytest.mark.parametrize("make", [chunked_report, constant_report])
def test_chunk_boundaries_match_the_general_encoder(make, n):
    report = make(n)
    for format, render, reference, marker in (("json", cli._render_json, reference_json, "\n    {"),
                                              ("csv", cli._render_csv, reference_csv, "\n"),
                                              ("text", cli._render_text, reference_text, "\n")):
        where, sizes, count = row_chunks(format, n)
        # A stream that never ends gives more chunks than this bound, rather
        # than a hang.
        chunks = list(islice(render(report), count + 1))
        assert "".join(chunks) == reference(report), format
        assert len(chunks) == count, format
        assert [c.count(marker) for c in chunks[where]] == sizes, format


def test_a_text_report_is_never_held_whole():
    # A renderer whose chunks are dropped as they come holds one chunk of
    # rows and each column's distinct texts, never the whole report: text
    # pads each distinct text once and peaks near CSV.
    report = report_of(RunConfig("invariants", surface="paraboloid", grid=(101, 101)))
    peaks = {}
    for format, render in (("csv", cli._render_csv), ("text", cli._render_text)):
        tracemalloc.start()
        for _ in render(report):
            pass
        peaks[format] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks["text"] <= 2 * peaks["csv"], peaks
