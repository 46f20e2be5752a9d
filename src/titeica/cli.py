"""Command-line driver: parses a run configuration, dispatches it to the
library and renders the report.

Commands, and the flags each takes besides --config, --format and --output
--------------------------------------------------------------------------
catalog          list built-in surfaces, metrics and metric pairs
invariants       per-point K, d, K/d^4 table: --surface --param --grid
classify         constant-ratio verdict: --surface --param --grid --tol
transform-check  det^-2 scaling law: --surface --param --grid --matrix --tol
metric-check     pullback equality for a metric pair: --pair --grid --tol

Reports are emitted as text, JSON or CSV, and echo under ``config`` only
the fields their command takes.  Output to a new or regular file is
atomic (write to a temporary file, then rename); this process's own
stdout, a device or a FIFO is written in place.  Reports are
byte-deterministic for identical configurations: the grid enumeration
order is fixed and every float is written as its shortest round-trip repr.

Exit status: 0 on success or a passing check, 1 on a verification
failure, an inconclusive classification or a stdout whose reader has
gone, 2 on configuration errors, a field the command does not take
(as a flag or in a config file) among them.
"""

import argparse
import math
import os
import sys
from functools import cache
from itertools import chain
from typing import Callable, NamedTuple, Optional

from .errors import CatalogError, GeometryError, InconclusiveError, UsageError
from .surfaces import DEFAULT_GRID, DEFAULT_TOL, catalog, catalog_entries

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
        value = value.split(",")
    return tuple(_float(v) for v in value)


def _str(value) -> str:
    # str() would take any JSON value: a list as an output path, 5 as a name.
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value}")
    return value


def _params(value) -> dict:
    # dict() would take any iterable of pairs: ["R2"] as {"R": "2"}.
    if not isinstance(value, dict):
        raise ValueError(f"expected an object, got {value}")
    return {str(k): _float(v) for k, v in value.items()}


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
    its flag; its entry in ``_FIELDS`` turns a flag string or a JSON value
    into the field's type."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "RunConfig":
        config = super().__new__(cls, *args, **kwargs)
        return config if config.params is not None else config._replace(params={})


def _validate(config: RunConfig) -> None:
    if config.command not in _COMMANDS:
        raise UsageError(f"command: unknown command '{config.command}'")
    nx, ny = config.grid
    if nx < 2 or ny < 2:
        raise UsageError(f"grid: both axes need at least 2 points, got {nx} x {ny}")
    if not 0.0 < config.tolerance < math.inf:
        raise UsageError(f"tolerance: must be positive and finite, got {config.tolerance}")
    if config.format not in _RENDERERS:
        raise UsageError(f"format: expected text, json or csv, got '{config.format}'")
    taken = _COMMANDS[config.command].fields
    for name in ("surface", "matrix", "pair"):
        if name in taken and getattr(config, name) in (None, ""):
            raise UsageError(f"{name}: required for the {config.command} command")
    if "matrix" in taken and len(config.matrix) != 9:
        raise UsageError(f"matrix: expected 9 row-major entries, got {len(config.matrix)}")
    if config.output == "":
        raise UsageError("output: the path is empty")
    for name, value, default in zip(config._fields, config, RunConfig(config.command)):
        if name not in taken and value != default:  # a field is set when it differs from its default
            raise UsageError(f"{name}: not taken by the {config.command} command")


# --------------------------------------------------------------------------
# Command handlers: each returns its report, and imports the modules it
# runs, so that a process compiles only those


class _Report(NamedTuple):
    """A report: every row is a tuple under the one header ``columns``."""

    command: str
    config: dict
    columns: tuple[str, ...]
    rows: list
    summary: dict


def _cmd_catalog(config: RunConfig):
    from .metrics import metric_entries, pair_names

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
    from .invariants import PointRecord, scan_grid

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
    from .invariants import PointRecord, classify

    verdict = classify(catalog(config.surface, **config.params), config.grid, config.tolerance)
    return _report(config, *_split(verdict, PointRecord))


def _cmd_transform_check(config: RunConfig):
    from .centroaffine import CentroAffineMap, ScalingPoint, verify_scaling

    s = catalog(config.surface, **config.params)
    try:
        a = CentroAffineMap.of([config.matrix[i:i + 3] for i in (0, 3, 6)])
    except ValueError as exc:
        raise UsageError(f"matrix: {exc}") from exc
    report = verify_scaling(s, a, config.grid, config.tolerance)
    return _report(config, *_split(report, ScalingPoint))


def _cmd_metric_check(config: RunConfig):
    from .metrics import AgreePoint, check_pair

    variants = check_pair(config.pair, *config.grid, config.tolerance)
    matching = [label for label, _, _, passed in variants if passed]
    rows = [(label, *p) for label, points, _, _ in variants for p in points]
    summary = {
        "pair": config.pair,
        "variants": {label: {"max_diff": worst, "passed": passed} for label, _, worst, passed in variants},
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
    taken = _COMMANDS[config.command].fields
    settings = {k: list(v) if isinstance(v, tuple) else v for k, v in zip(config._fields, config) if k in taken}
    return _Report(config.command, settings, columns, rows, summary)


class _Command(NamedTuple):
    handler: Callable[[RunConfig], _Report]
    help: str
    fields: tuple[str, ...]  # the RunConfig fields it takes


_COMMON = ("command", "format", "output")  # what every command takes: its name, how its report is written

_COMMANDS = {
    "catalog": _Command(_cmd_catalog, "list built-in surfaces, metrics and metric pairs", _COMMON),
    "invariants": _Command(_cmd_invariants, "per-point K, d, K/d^4 table for a surface",
                           (*_COMMON, "surface", "params", "grid")),
    "classify": _Command(_cmd_classify, "constant-ratio verdict for a surface",
                         (*_COMMON, "surface", "params", "grid", "tolerance")),
    "transform-check": _Command(_cmd_transform_check, "verify the det^-2 scaling law under a matrix",
                                (*_COMMON, "surface", "params", "grid", "matrix", "tolerance")),
    "metric-check": _Command(_cmd_metric_check, "pullback equality for a metric pair",
                             (*_COMMON, "pair", "grid", "tolerance")),
}


# --------------------------------------------------------------------------
# Rendering


def _fmt(v) -> str:
    if isinstance(v, float):
        return float.__repr__(v)  # a numpy float's repr is np.float64(...)
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _cells(report: _Report, encode) -> tuple:
    """The encoded cells of every row, row by row, for one "%" template.

    Each column encodes each distinct cell once, in a dict that lives for
    this call, so equal cells share one string; a finite float is its
    shortest round-trip repr in every format.  A float zero is keyed by its
    repr and a column of mixed types by position, so cells that encode
    apart share no key.
    """
    columns = []
    for column in zip(*report.rows):
        keys = column
        if len(set(map(type, column))) > 1:  # True, 1 and 1.0 are one dict key
            keys = range(len(column))
        elif isinstance(column[0], float) and 0.0 in column:  # and so are 0.0 and -0.0
            keys = [v or repr(v) for v in column]
        cells = dict(zip(keys, column))  # one cell per key, in column order
        texts = [repr(v) if type(v) is float and v - v == 0.0 else encode(v) for v in cells.values()]
        columns.append(texts if len(cells) == len(column) else map(dict(zip(cells, texts)).__getitem__, keys))
    return tuple(chain.from_iterable(zip(*columns)))


def _fill(row: str, separator: str, report: _Report, encode) -> str:
    """The report's rows, each the "%" template ``row`` filled with its
    cells, joined by ``separator``."""
    return separator.join([row] * len(report.rows)) % _cells(report, encode)


def _finite(value):
    """``value`` with each float that is not finite, in a dict too, as
    None: strict JSON has no inf or nan."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    return value


def _render_json(report: _Report) -> str:
    # json is imported by the runs that write or read it, not by every run.
    from json import JSONEncoder

    # Two encoders per report (json.dumps with arguments builds one per
    # call); allow_nan=False makes a missed inf or nan an error.
    value = JSONEncoder(allow_nan=False).encode
    block = JSONEncoder(indent=2, allow_nan=False).encode
    # One row template per report, from the key lines every row shares.
    keys = [value(c).replace("%", "%%") for c in report.columns]
    row = "    {\n" + ",\n".join(f"      {k}: %s" for k in keys) + "\n    }"
    cells = _fill(row, ",\n", report, lambda v: value(_finite(v)))
    results = f"[\n{cells}\n  ]" if report.rows else "[]"
    config, summary = (block(_finite(d)).replace("\n", "\n  ") for d in (report.config, report.summary))
    return (f'{{\n  "command": {value(report.command)},\n  "config": {config},\n'
            f'  "results": {results},\n  "summary": {summary}\n}}\n')


def _csv_cell(v) -> str:
    cell = _fmt(v)
    if "," in cell or '"' in cell:
        cell = '"' + cell.replace('"', '""') + '"'
    return cell


def _render_csv(report: _Report) -> str:
    if not report.rows:
        return ""
    header = ",".join(report.columns)
    return header + "\n" + _fill(",".join(["%s"] * len(report.columns)), "\n", report, _csv_cell) + "\n"


def _render_text(report: _Report) -> str:
    lines = [f"command: {report.command}"]
    for key, value in report.config.items():
        if key not in _COMMON and value not in (None, {}, []):
            lines.append(f"{key}: {value}")
    if report.rows:
        k, cells = len(report.columns), _cells(report, _fmt)
        # A column is as wide as its header and its longest cell, and at least
        # 22, so no cell pushes a later column right.
        widths = [max(22, len(c), *map(len, cells[j::k])) for j, c in enumerate(report.columns)]
        row = "  ".join(f"%{w}s" for w in widths)
        lines += ["", "  ".join(map(str.rjust, report.columns, widths)), "\n".join([row] * len(report.rows)) % cells]
    lines += ["", "summary:"]

    def emit(items, pad):
        for key, value in items:
            if isinstance(value, dict):
                lines.append(f"{pad}{key}:")
                emit(value.items(), pad + "  ")
            else:
                lines.append(f"{pad}{key}: {_fmt(value)}")

    emit(report.summary.items(), "  ")
    return "\n".join(lines) + "\n"


_RENDERERS = {"text": _render_text, "json": _render_json, "csv": _render_csv}


def _emit(text: str, output: Optional[str]) -> None:
    try:  # a path to this process's own stdout, such as /dev/stdout under a redirect
        own = output is not None and os.path.samestat(os.stat(output), os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError):  # no such path, or a stdout with no descriptor
        own = False
    if output is None or own:
        sys.stdout.write(text)
        return
    tmp_path = None
    try:
        if os.path.exists(output) and not os.path.isfile(output):
            # A device or FIFO is written in place (a rename would replace
            # it); a directory fails to open.
            with open(output, "w") as fh:
                fh.write(text)
            return
        target = os.path.realpath(output)  # a link survives; its target gets the report
        path = os.path.join(os.path.dirname(target), f".titeica-{os.urandom(8).hex()}.tmp")
        # Mode 0666 less the umask, as open(output, "w") would create it.
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp_path = path  # ours to remove from here on
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp_path, target)
    except OSError as exc:
        if tmp_path is not None and os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise UsageError(f"output: cannot write report to '{output}': {exc}") from exc


def run(config: RunConfig) -> int:
    """Execute one command and emit its report.  Returns the exit status."""
    try:
        _validate(config)
        report = _COMMANDS[config.command].handler(config)
        text = _RENDERERS[config.format](report)
        _emit(text, config.output)
        if config.output is not None:
            status = report.summary.get("passed")
            print(f"wrote {config.format} report to {config.output}"
                  + ("" if status is None else f" ({'PASS' if status else 'FAIL'})"))
        return 0 if report.summary.get("passed", True) else 1
    except (CatalogError, ValueError) as exc:  # UsageError and DomainError are ValueErrors
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


class _Parser(argparse.ArgumentParser):
    """Lets the OSError of writing help or a usage error through, as
    argparse did before 3.11, so a closed stdout reaches :func:`main`."""

    def _print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)


# Each RunConfig field: (converter, flag or None, the flag's argparse
# settings), in --help order.  The command is the subcommand, not a flag.
_FIELDS = {
    "grid": (_grid, "--grid", dict(nargs=2, metavar=("NX", "NY"), help="sample grid size (default 20 20)")),
    "tolerance": (_float, "--tol", dict(metavar="TOL", help="tolerance (default 1e-8)")),
    "format": (_str, "--format", dict(choices=tuple(_RENDERERS), help="report format (default text)")),
    "output": (_str, "--output", dict(help="write the report to this path (atomically if it is a new or "
                                           "regular file other than stdout)")),
    "surface": (_str, "--surface", dict(help="catalog surface name")),
    "params": (_params, "--param", dict(action="append", metavar="KEY=VALUE", help="surface parameter (repeatable)")),
    "matrix": (_matrix, "--matrix", dict(help="9 row-major entries, comma separated")),
    # metrics.pair_names(), written out so that the parser imports no metrics
    "pair": (_str, "--pair", dict(help="one of: disk:minkowski-sphere, half-plane:disk, pseudosphere:half-plane")),
    "command": (_str, None, {}),
}


@cache  # one parser per process: parsing never mutates it
def _build_parser() -> argparse.ArgumentParser:
    description = "Surface invariant K/d^4: classification, scaling-law and metric checks."
    parser = _Parser(prog="titeica", description=description)
    sub = parser.add_subparsers(dest="command")
    takes = [(parser, ("grid", "tolerance", *_COMMON))]  # the flags accepted before the command
    takes += [(sub.add_parser(name, help=c.help), c.fields) for name, c in _COMMANDS.items()]
    for p, fields in takes:  # --config, then the flag of each field taken, in --help order
        p.add_argument("--config", default=argparse.SUPPRESS, help="JSON config file; flags override file values")
        for name, (_, flag, settings) in _FIELDS.items():
            if flag and name in fields:
                p.add_argument(flag, dest=name, default=argparse.SUPPRESS, **settings)
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
    unknown = set(data) - set(_FIELDS)
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
                value = _FIELDS[name][0](value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise UsageError(f"{name}: {exc}") from exc
            values[name] = {**values.get("params", {}), **value} if name == "params" else value
    if "command" not in values:
        raise UsageError("command: no command given (on the command line or in the config file)")
    return RunConfig(**values)


def main(argv=None) -> int:
    try:
        try:
            status = run(parse_config(argv))
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 2
        except SystemExit as exc:  # argparse --help or syntax errors
            status = int(exc.code or 0)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout is gone (``titeica ... | head -1``).  Stdout
        # now points at the null device, so the flush at exit cannot raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
