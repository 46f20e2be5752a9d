"""Command-line driver: parses a run configuration, dispatches it to the
library and renders the report.

Commands
--------
catalog          list built-in surfaces, metrics and metric pairs
invariants       per-point K, d and K/d^4 table for a surface
classify         constant-ratio verdict for a surface over its grid
transform-check  scaling law under a centro-affine matrix
metric-check     pullback equality for a named metric pair

Reports are emitted as text, JSON or CSV.  File output is atomic (write
to a temporary file, then rename) and byte-deterministic for identical
configurations: the grid enumeration order is fixed and every float is
formatted with 17 significant digits.

Exit status: 0 on success or a passing check, 1 on a verification
failure or an inconclusive classification, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from typing import NamedTuple, Optional

from .centroaffine import CentroAffineMap, ScalingPoint, verify_scaling
from .errors import CatalogError, GeometryError, InconclusiveError, UsageError
from .invariants import DEFAULT_GRID, DEFAULT_TOL, PointRecord, classify, scan_grid
from .metrics import AgreePoint, check_pair, metric_entries, metric_pair, pair_names
from .surfaces import catalog, catalog_entries, grid_points

__all__ = ["RunConfig", "run", "main"]

# --------------------------------------------------------------------------
# Run configuration


def _float(value) -> float:
    # float(True) is 1.0: a JSON true or false in a config file is no number.
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value}")
    return float(value)


def _grid(value) -> tuple[int, int]:
    # A flag value is a list of two strings; a config-file string such as
    # "34" would otherwise be read digit by digit, and a true as 1.
    if isinstance(value, str):
        raise ValueError(f"expected two integers, got {value!r}")
    grid = tuple(int(v) for v in value)
    if len(grid) != 2 or any(
        isinstance(v, bool) or g != v for g, v in zip(grid, value) if not isinstance(v, str)
    ):
        raise ValueError(f"expected two integers, got {value}")
    return grid


def _matrix(value) -> tuple[float, ...]:
    if isinstance(value, str):
        value = [tok for tok in value.replace(" ", "").split(",") if tok]
    return tuple(_float(v) for v in value)


def _str(value) -> str:
    # str() would take any JSON value: a list as an output path, 5 as a name.
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value}")
    return value


def _params(value) -> dict:
    return {str(k): _float(v) for k, v in dict(value).items()}


class _RunFields(NamedTuple):
    command: str
    surface: Optional[str] = None
    params: Optional[dict] = None  # a fresh {} in every RunConfig
    pair: Optional[str] = None
    grid: tuple[int, int] = DEFAULT_GRID
    matrix: Optional[tuple[float, ...]] = None
    tolerance: float = DEFAULT_TOL
    format: str = "text"
    output: Optional[str] = None


class RunConfig(_RunFields):
    """One run.  Each field is a config-file key and the argparse dest of
    its flag; its entry in ``_CONVERTERS`` turns a flag string or a JSON
    value into the field's type."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "RunConfig":
        config = super().__new__(cls, *args, **kwargs)
        return config if config.params is not None else config._replace(params={})


_CONVERTERS = dict(
    command=_str, surface=_str, params=_params, pair=_str, grid=_grid,
    matrix=_matrix, tolerance=_float, format=_str, output=_str,
)


def _validate(config: RunConfig) -> None:
    if config.command not in _HANDLERS:
        raise UsageError(f"command: unknown command '{config.command}'")
    nx, ny = config.grid
    if nx < 2 or ny < 2:
        raise UsageError(f"grid: both axes need at least 2 points, got {nx} x {ny}")
    if not 0.0 < config.tolerance < math.inf:
        raise UsageError(f"tolerance: must be positive and finite, got {config.tolerance}")
    if config.format not in _RENDERERS:
        raise UsageError(f"format: expected text, json or csv, got '{config.format}'")
    if config.command in ("invariants", "classify", "transform-check") and not config.surface:
        raise UsageError(f"surface: required for the {config.command} command")
    if config.command == "transform-check":
        if config.matrix is None:
            raise UsageError("matrix: required for the transform-check command")
        if len(config.matrix) != 9:
            raise UsageError(f"matrix: expected 9 row-major entries, got {len(config.matrix)}")
    if config.command == "metric-check" and not config.pair:
        raise UsageError("pair: required for the metric-check command")


# --------------------------------------------------------------------------
# Command handlers: each returns its report


class _Report(NamedTuple):
    """A report: every row is a tuple under the one header ``columns``."""

    command: str
    config: dict
    columns: tuple[str, ...]
    rows: list
    summary: dict


def _cmd_catalog(config: RunConfig):
    rows = []
    for name, description, defaults in catalog_entries():
        params = ", ".join(f"{k}={v:g}" for k, v in sorted(defaults.items())) or "-"
        rows.append(("surface", name, params, description))
    for name, description in metric_entries():
        rows.append(("metric", name, "-", description))
    for name in pair_names():
        rows.append(("metric-pair", name, "-", "pullback equality check"))
    summary = {"entries": len(rows)}
    return _report(config, ("kind", "name", "parameters", "description"), rows, summary)


def _cmd_invariants(config: RunConfig):
    records = scan_grid(catalog(config.surface, **config.params), config.grid)
    ratios = [r.ratio for r in records if r.skipped is None]
    summary = {
        "points_evaluated": len(ratios),
        "points_skipped": len(records) - len(ratios),
        "ratio_min": min(ratios, default=None),
        "ratio_max": max(ratios, default=None),
    }
    return _report(config, PointRecord._fields, records, summary)


def _cmd_classify(config: RunConfig):
    verdict = classify(catalog(config.surface, **config.params), config.grid, config.tolerance)
    return _report(config, *_split(verdict, PointRecord))


def _cmd_transform_check(config: RunConfig):
    s = catalog(config.surface, **config.params)
    try:
        a = CentroAffineMap.of([config.matrix[i:i + 3] for i in (0, 3, 6)])
    except ValueError as exc:
        raise UsageError(f"matrix: {exc}") from exc
    report = verify_scaling(s, a, grid_points(s.domain, *config.grid), config.tolerance)
    return _report(config, *_split(report, ScalingPoint))


def _cmd_metric_check(config: RunConfig):
    variants = check_pair(metric_pair(config.pair), *config.grid, config.tolerance)
    matching = [label for label, rep in variants if rep.passed]
    rows = [(label, *p) for label, rep in variants for p in rep.points]
    summary = {
        "pair": config.pair,
        "variants": {label: {"max_diff": rep.max_diff, "passed": rep.passed} for label, rep in variants},
        "matching_variant": matching[0] if matching else None,
        "tolerance": config.tolerance,
        "passed": bool(matching),
    }
    return _report(config, ("variant", *AgreePoint._fields), rows, summary)


def _split(report, record):
    """A report's ``points`` as rows under ``record``'s fields, and the
    fields before them as the summary."""
    *head, points = report
    return record._fields, points, dict(zip(report._fields, head))


def _report(config: RunConfig, columns, rows, summary) -> _Report:
    settings = {k: list(v) if isinstance(v, tuple) else v for k, v in zip(config._fields, config)}
    return _Report(config.command, settings, columns, rows, summary)


_HANDLERS = {
    "catalog": _cmd_catalog,
    "invariants": _cmd_invariants,
    "classify": _cmd_classify,
    "transform-check": _cmd_transform_check,
    "metric-check": _cmd_metric_check,
}


# --------------------------------------------------------------------------
# Rendering


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _json_text(value, indent: int, string) -> str:
    # json.dumps writes floats with repr() and inf/nan as bare tokens; the report
    # contract is 17 significant digits and strict JSON, so emit the document by hand.
    # ``string`` is json's own string encoder.
    if isinstance(value, float):
        return format(value, ".17g") if math.isfinite(value) else "null"
    if isinstance(value, dict):
        return _json_object(
            [(string(str(k)), _json_text(v, indent + 1, string)) for k, v in value.items()], indent
        )
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return string(value)
    if isinstance(value, (list, tuple)):
        return _json_array([_json_text(v, indent + 1, string) for v in value], indent)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _json_object(members, indent: int) -> str:
    """An object from (encoded key, encoded value) pairs."""
    if not members:
        return "{}"
    pad = "  " * indent
    return "{\n" + ",\n".join(f"{pad}  {k}: {v}" for k, v in members) + "\n" + pad + "}"


def _json_array(items, indent: int) -> str:
    """An array from encoded items."""
    if not items:
        return "[]"
    pad = "  " * indent
    return "[\n" + ",\n".join(f"{pad}  {v}" for v in items) + "\n" + pad + "]"


def _render_json(report: _Report) -> str:
    # json is imported by the runs that write or read it, not by every run.
    from json.encoder import encode_basestring_ascii as string  # what json.dumps(str) returns

    # The results array is one "%" template, built once per report from the
    # key lines every row shares, and filled with all the cells at once.  A
    # finite float cell is written inline; any other cell (None, str, bool,
    # int, nan, inf, a float subclass) goes through _json_text, which keeps
    # the null and escaping rules.
    keys = [string(c).replace("%", "%%") for c in report.columns]
    row = "    {\n" + ",\n".join(f"      {k}: %s" for k in keys) + "\n    }"
    cells = [
        f"{v:.17g}" if type(v) is float and v - v == 0.0 else _json_text(v, 3, string)
        for r in report.rows for v in r
    ]
    results = "[\n" + ",\n".join([row] * len(report.rows)) % tuple(cells) + "\n  ]" if report.rows else "[]"
    return _json_object([
        ('"command"', string(report.command)),
        ('"config"', _json_text(report.config, 1, string)),
        ('"results"', results),
        ('"summary"', _json_text(report.summary, 1, string)),
    ], 0) + "\n"


def _csv_cell(v) -> str:
    cell = _fmt(v)
    if "," in cell or '"' in cell:
        cell = '"' + cell.replace('"', '""') + '"'
    return cell


def _render_csv(report: _Report) -> str:
    if not report.rows:
        return ""
    lines = [",".join(report.columns)]
    # A float's .17g text holds no "," or '"', so it needs no quoting test.
    for row in report.rows:
        lines.append(",".join([f"{v:.17g}" if type(v) is float else _csv_cell(v) for v in row]))
    return "\n".join(lines) + "\n"


def _render_text(report: _Report) -> str:
    lines = [f"command: {report.command}"]
    cfg = report.config
    for key in ("surface", "params", "pair", "grid", "matrix", "tolerance"):
        if cfg.get(key) not in (None, {}, []):
            lines.append(f"{key}: {cfg[key]}")
    if report.rows:
        lines.append("")
        lines.append("  ".join(f"{c:>22}" for c in report.columns))
        for row in report.rows:
            lines.append("  ".join(f"{_fmt(v):>22}" for v in row))
    lines.append("")
    lines.append("summary:")

    def emit(key, value, depth):
        pad = "  " * depth
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            for kk, vv in value.items():
                emit(kk, vv, depth + 1)
        else:
            lines.append(f"{pad}{key}: {_fmt(value)}")

    for k, v in report.summary.items():
        emit(k, v, 1)
    return "\n".join(lines) + "\n"


_RENDERERS = {"text": _render_text, "json": _render_json, "csv": _render_csv}


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(output))
    tmp_path = None
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".titeica-", suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        # mkstemp makes the file 0600; open(output, "w") would honour the umask.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_path, 0o666 & ~umask)
        os.replace(tmp_path, output)
    except OSError as exc:
        if tmp_path is not None and os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise UsageError(f"output: cannot write report to '{output}': {exc}") from exc


def run(config: RunConfig) -> int:
    """Execute one command and emit its report.  Returns the exit status."""
    try:
        _validate(config)
        report = _HANDLERS[config.command](config)
        text = _RENDERERS[config.format](report)
        _emit(text, config.output)
        if config.output is not None:
            status = report.summary.get("passed")
            print(f"wrote {config.format} report to {config.output}"
                  + ("" if status is None else f" ({'PASS' if status else 'FAIL'})"))
        return 0 if report.summary.get("passed", True) else 1
    except (UsageError, CatalogError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 1
    except GeometryError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 1


# --------------------------------------------------------------------------
# Argument parsing


def _key_value(item: str) -> tuple[str, str]:
    key, sep, value = item.partition("=")
    if not sep or not key:
        raise UsageError(f"params: expected KEY=VALUE, got '{item}'")
    return key, value


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON config file; flags override file values")
    common.add_argument("--grid", nargs=2, metavar=("NX", "NY"),
                        default=argparse.SUPPRESS, help="sample grid size (default 20 20)")
    common.add_argument("--tol", dest="tolerance", metavar="TOL", default=argparse.SUPPRESS,
                        help="tolerance (default 1e-8)")
    common.add_argument("--format", choices=tuple(_RENDERERS),
                        default=argparse.SUPPRESS, help="report format (default text)")
    common.add_argument("--output", default=argparse.SUPPRESS,
                        help="write the report to this path (atomic)")

    parser = argparse.ArgumentParser(
        prog="titeica",
        description="Surface invariant K/d^4: classification, scaling-law and metric checks.",
        parents=[common],
    )

    surface = argparse.ArgumentParser(add_help=False)
    surface.add_argument("--surface", default=argparse.SUPPRESS, help="catalog surface name")
    surface.add_argument("--param", dest="params", action="append", default=argparse.SUPPRESS,
                         metavar="KEY=VALUE", help="surface parameter (repeatable)")

    sub = parser.add_subparsers(dest="command")
    sub.add_parser("catalog", parents=[common],
                   help="list built-in surfaces, metrics and metric pairs")
    sub.add_parser("invariants", parents=[common, surface],
                   help="per-point K, d, K/d^4 table for a surface")
    sub.add_parser("classify", parents=[common, surface],
                   help="constant-ratio verdict for a surface")
    tc = sub.add_parser("transform-check", parents=[common, surface],
                        help="verify the det^-2 scaling law under a matrix")
    tc.add_argument("--matrix", default=argparse.SUPPRESS,
                    help="9 row-major entries, comma separated")
    mc = sub.add_parser("metric-check", parents=[common],
                        help="pullback equality for a metric pair")
    mc.add_argument("--pair", default=argparse.SUPPRESS,
                    help=f"one of: {', '.join(pair_names())}")
    return parser


def _load_config_file(path: str) -> dict:
    import json  # only a run with --config reads JSON

    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"config: cannot read '{path}': {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config: '{path}' is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config: '{path}' must hold a JSON object")
    unknown = set(data) - set(_CONVERTERS)
    if unknown:
        raise UsageError(f"config: unknown field(s) {sorted(unknown)} in '{path}'")
    return data


def parse_config(argv=None) -> RunConfig:
    """Merge the given flags over the config file's object and convert
    every value with its field's converter.  A null or absent value takes
    the field's default; ``--param`` items merge key by key over the
    file's ``params``."""
    flags = vars(_build_parser().parse_args(argv))
    if "params" in flags:
        flags["params"] = dict(map(_key_value, flags["params"]))
    file_values = _load_config_file(flags.pop("config")) if "config" in flags else {}
    values = {}
    for source in (file_values, flags):
        for name, value in source.items():
            if value is None:
                continue
            try:
                value = _CONVERTERS[name](value)
            except (TypeError, ValueError) as exc:
                raise UsageError(f"{name}: {exc}") from exc
            values[name] = {**values.get("params", {}), **value} if name == "params" else value
    if "command" not in values:
        raise UsageError("command: no command given (on the command line or in the config file)")
    return RunConfig(**values)


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help or syntax errors
        return int(exc.code or 0)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
