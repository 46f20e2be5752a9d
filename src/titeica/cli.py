"""Command-line driver and grid-level classification.

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
import json
import math
import os
import statistics
import sys
import tempfile
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii as _json_string  # what json.dumps(str) returns
from typing import Optional

from .centroaffine import CentroAffineMap, verify_scaling
from .errors import (
    CatalogError,
    GeometryError,
    InconclusiveError,
    RegularityError,
    SignatureError,
    SingularPointError,
    UsageError,
)
from .invariants import point_invariants
from .metrics import check_pair, metric_entries, metric_pair, pair_names
from .surfaces import SurfaceDef, catalog, catalog_entries, eval_surface, grid_points

__all__ = ["PointRecord", "ClassifyVerdict", "RunConfig", "scan_grid", "classify", "run", "main"]

DEFAULT_GRID = (20, 20)
DEFAULT_TOL = 1e-8


@dataclass
class PointRecord:
    x: float
    y: float
    K: Optional[float] = None
    d: Optional[float] = None
    ratio: Optional[float] = None
    skipped: Optional[str] = None


@dataclass(frozen=True)
class ClassifyVerdict:
    surface: str
    is_titeica: bool
    ratio_constant: float
    spread: float
    points_evaluated: int
    points_skipped: int
    tolerance: float


def scan_grid(s: SurfaceDef, grid: tuple[int, int] = DEFAULT_GRID) -> list[PointRecord]:
    """Evaluate K, d and K/d^4 over the surface's domain grid, recording
    singular points as skipped with their reason."""
    nx, ny = grid
    records = []
    for x, y in grid_points(s.domain, nx, ny):
        try:
            inv = point_invariants(eval_surface(s, x, y), s.ambient)
        except (SingularPointError, RegularityError, SignatureError) as exc:
            records.append(PointRecord(x, y, skipped=str(exc)))
            continue
        records.append(PointRecord(x, y, inv.K, inv.d, inv.ratio))
    return records


def classify(
    s: SurfaceDef,
    grid: tuple[int, int] = DEFAULT_GRID,
    tol: float = DEFAULT_TOL,
) -> ClassifyVerdict:
    """Decide whether K/d^4 is constant over the grid.

    The verdict compares the relative spread around the median ratio with
    tol.  If more than 25% of the grid is singular the verdict is
    withheld via :class:`InconclusiveError`.
    """
    records = scan_grid(s, grid)
    return _verdict_from_records(s.name, records, grid, tol)


def _verdict_from_records(name, records, grid, tol) -> ClassifyVerdict:
    ratios = [r.ratio for r in records if r.skipped is None]
    total = grid[0] * grid[1]
    skipped = total - len(ratios)
    if skipped > 0.25 * total:
        raise InconclusiveError(
            f"{skipped}/{total} grid points of '{name}' were singular; verdict withheld"
        )
    # Spread relative to the median ratio, so the verdict does not change
    # when the ratio is rescaled (a centro-affine map scales it by 1/det^2).
    # A zero median has spread 0 if every ratio is 0 and inf otherwise.
    median = statistics.median(ratios)
    deviation = max(abs(r - median) for r in ratios)
    spread = deviation / abs(median) if median else (math.inf if deviation else 0.0)
    return ClassifyVerdict(
        surface=name,
        is_titeica=spread <= tol,
        ratio_constant=median,
        spread=spread,
        points_evaluated=len(ratios),
        points_skipped=skipped,
        tolerance=tol,
    )


# --------------------------------------------------------------------------
# Run configuration


def _grid(value) -> tuple[int, int]:
    # A flag value is a list of two strings; a config-file string such as
    # "34" would otherwise be read digit by digit.
    if isinstance(value, str):
        raise ValueError(f"expected two integers, got {value!r}")
    grid = tuple(int(v) for v in value)
    if len(grid) != 2 or any(g != v for g, v in zip(grid, value) if not isinstance(v, str)):
        raise ValueError(f"expected two integers, got {value}")
    return grid


def _matrix(value) -> tuple[float, ...]:
    if isinstance(value, str):
        value = [tok for tok in value.replace(" ", "").split(",") if tok]
    return tuple(float(v) for v in value)


def _params(value) -> dict:
    return {str(k): float(v) for k, v in dict(value).items()}


def _field(convert, **default):
    return field(metadata={"convert": convert}, **default)


@dataclass
class RunConfig:
    """One run.  Each field is a config-file key and the argparse dest of
    its flag; its ``convert`` turns a flag string or a JSON value into the
    field's type."""

    command: str = _field(str)
    surface: Optional[str] = _field(str, default=None)
    params: dict = _field(_params, default_factory=dict)
    pair: Optional[str] = _field(str, default=None)
    grid: tuple[int, int] = _field(_grid, default=DEFAULT_GRID)
    matrix: Optional[tuple[float, ...]] = _field(_matrix, default=None)
    tolerance: float = _field(float, default=DEFAULT_TOL)
    format: str = _field(str, default="text")
    output: Optional[str] = _field(str, default=None)


_CONVERTERS = {f.name: f.metadata["convert"] for f in fields(RunConfig)}


_COMMANDS = ("catalog", "invariants", "classify", "transform-check", "metric-check")


def _validate(config: RunConfig) -> None:
    if config.command not in _COMMANDS:
        raise UsageError(f"command: unknown command '{config.command}'")
    nx, ny = config.grid
    if nx < 2 or ny < 2:
        raise UsageError(f"grid: both axes need at least 2 points, got {nx} x {ny}")
    if not 0.0 < config.tolerance < math.inf:
        raise UsageError(f"tolerance: must be positive and finite, got {config.tolerance}")
    if config.format not in ("text", "json", "csv"):
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
# Command handlers: each returns (exit_code, report dict)


def _cmd_catalog(config: RunConfig):
    results = []
    for name, description, defaults in catalog_entries():
        params = ", ".join(f"{k}={v:g}" for k, v in sorted(defaults.items())) or "-"
        results.append(
            {"kind": "surface", "name": name, "parameters": params, "description": description}
        )
    for name, description in metric_entries():
        results.append(
            {"kind": "metric", "name": name, "parameters": "-", "description": description}
        )
    for name in pair_names():
        results.append(
            {"kind": "metric-pair", "name": name, "parameters": "-", "description": "pullback equality check"}
        )
    summary = {"entries": len(results)}
    return 0, _report(config, results, summary)


def _cmd_invariants(config: RunConfig):
    records = scan_grid(catalog(config.surface, **config.params), config.grid)
    ratios = [r.ratio for r in records if r.skipped is None]
    summary = {
        "points_evaluated": len(ratios),
        "points_skipped": len(records) - len(ratios),
        "ratio_min": min(ratios, default=None),
        "ratio_max": max(ratios, default=None),
    }
    return 0, _report(config, [vars(r) for r in records], summary)


def _cmd_classify(config: RunConfig):
    s = catalog(config.surface, **config.params)
    records = scan_grid(s, config.grid)
    verdict = _verdict_from_records(s.name, records, config.grid, config.tolerance)
    return 0, _report(config, [vars(r) for r in records], vars(verdict))


def _cmd_transform_check(config: RunConfig):
    s = catalog(config.surface, **config.params)
    try:
        a = CentroAffineMap.of([config.matrix[i:i + 3] for i in (0, 3, 6)])
    except ValueError as exc:
        raise UsageError(f"matrix: {exc}") from exc
    nx, ny = config.grid
    report = verify_scaling(s, a, grid_points(s.domain, nx, ny), config.tolerance)
    summary = dict(vars(report))
    points = summary.pop("points")
    return (0 if report.passed else 1), _report(config, [vars(p) for p in points], summary)


def _cmd_metric_check(config: RunConfig):
    pair = metric_pair(config.pair)
    nx, ny = config.grid
    check = check_pair(pair, nx, ny, config.tolerance)
    rows = [{"variant": label, **vars(p)} for label, rep in check.variants for p in rep.points]
    summary = {
        "pair": check.pair,
        "variants": {label: {"max_diff": rep.max_diff, "passed": rep.passed} for label, rep in check.variants},
        "matching_variant": check.matching[0] if check.matching else None,
        "tolerance": check.tol,
        "passed": check.passed,
    }
    return (0 if check.passed else 1), _report(config, rows, summary)


def _report(config: RunConfig, results, summary) -> dict:
    return {
        "command": config.command,
        "config": {k: list(v) if isinstance(v, tuple) else v for k, v in vars(config).items()},
        "results": results,
        "summary": summary,
    }


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


def _json_text(value, indent: int = 0) -> str:
    # json.dumps writes floats with repr() and inf/nan as bare tokens; the report
    # contract is 17 significant digits and strict JSON, so emit the document by hand.
    # The tests run from the most frequent type (a float cell) down.
    if isinstance(value, float):
        return format(value, ".17g") if math.isfinite(value) else "null"
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {_json_string(str(k))}: {_json_text(v, indent + 1)}" for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = ",\n".join(f"{pad}  {_json_text(v, indent + 1)}" for v in value)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _render_json(report: dict) -> str:
    return _json_text(report) + "\n"


def _render_csv(report: dict) -> str:
    rows = report["results"]
    if not rows:
        return ""
    columns = list(rows[0].keys())
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for c in columns:
            cell = _fmt(row.get(c))
            if "," in cell or '"' in cell:
                cell = '"' + cell.replace('"', '""') + '"'
            cells.append(cell)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _render_text(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    cfg = report["config"]
    for key in ("surface", "params", "pair", "grid", "matrix", "tolerance"):
        if cfg.get(key) not in (None, {}, []):
            lines.append(f"{key}: {cfg[key]}")
    rows = report["results"]
    if rows:
        columns = list(rows[0].keys())
        lines.append("")
        lines.append("  ".join(f"{c:>22}" for c in columns))
        for row in rows:
            lines.append("  ".join(f"{_fmt(row.get(c)):>22}" for c in columns))
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

    for k, v in report["summary"].items():
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
        os.replace(tmp_path, output)
    except OSError as exc:
        if tmp_path is not None and os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise UsageError(f"output: cannot write report to '{output}': {exc}") from exc


def run(config: RunConfig) -> int:
    """Execute one command and emit its report.  Returns the exit status."""
    try:
        _validate(config)
        exit_code, report = _HANDLERS[config.command](config)
        text = _RENDERERS[config.format](report)
        _emit(text, config.output)
        if config.output is not None:
            status = report["summary"].get("passed")
            print(f"wrote {config.format} report to {config.output}"
                  + ("" if status is None else f" ({'PASS' if status else 'FAIL'})"))
        return exit_code
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
    common.add_argument("--format", choices=("text", "json", "csv"),
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
