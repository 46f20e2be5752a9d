"""Command-line driver: reads a run configuration from argv, with its own
reader, dispatches it to the library and renders the report.  ``titeica
--help`` lists the commands and their flags; only it imports argparse.

Reports are emitted as text, JSON or CSV; ``config`` echoes only the
fields the command takes, the command among them, and ``summary`` holds
results alone.  A JSON report is ``{"config", "results", "summary"}``,
and its ``config`` is a --config file that reruns it.  Every report
streams out in chunks of rows, none held whole.  Output to a
new or regular file is atomic (write to a temporary file, then rename; a
failed run removes that file and leaves the target as it was); this
process's own stdout, a device or a FIFO is written in place, and a run
that fails there may leave part of a report.  Reports are
byte-deterministic for identical configurations: the grid enumeration
order is fixed and every float is written as its shortest round-trip repr.

Exit status: 0 on success or a passing check, 1 on a verification
failure, an inconclusive classification or a stdout whose reader has
gone, 2 on configuration errors, a field the command does not take
(as a flag anywhere on the line or in a config file) among them.
"""

import gc
import math
import os
import sys
from itertools import chain, filterfalse, islice, repeat
from typing import Callable, NamedTuple, Optional

from . import DEFAULT_GRID, DEFAULT_TOL, CatalogError, GeometryError, InconclusiveError, UsageError

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
    """One run.  Each field is a config-file key and the field its flag
    sets; its entry in ``_FIELDS`` turns a flag's words or a JSON value
    into the field's type."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "RunConfig":
        config = super().__new__(cls, *args, **kwargs)
        return config if config.params is not None else config._replace(params={})


def _validate(config: RunConfig) -> None:
    if config.command not in _COMMANDS:
        raise UsageError(f"command: unknown command '{config.command}'; available: {', '.join(_COMMANDS)}")
    taken = _COMMANDS[config.command].fields
    for name, value, default in zip(config._fields, config, RunConfig(config.command)):
        if name not in taken and value != default:  # a field is set when it differs from its default
            raise UsageError(f"{name}: not taken by the {config.command} command")
    if not 0.0 < config.tolerance < math.inf:
        raise UsageError(f"tolerance: must be positive and finite, got {config.tolerance}")
    if config.format not in _RENDERERS:
        raise UsageError(f"format: expected text, json or csv, got '{config.format}'")
    for name in ("surface", "matrix", "pair"):
        if name in taken and getattr(config, name) in (None, ""):
            raise UsageError(f"{name}: required for the {config.command} command")
    if "matrix" in taken and len(config.matrix) != 9:
        raise UsageError(f"matrix: expected 9 row-major entries, got {len(config.matrix)}")
    if config.output == "":
        raise UsageError("output: the path is empty")


# --------------------------------------------------------------------------
# Command handlers: each returns its report's columns, rows and summary,
# and imports the modules it runs, so that a process compiles only those


class _Report(NamedTuple):
    """A report: the run's config echo, then every row a tuple under the
    one header ``columns``."""

    config: dict
    columns: tuple[str, ...]
    rows: list
    summary: dict


def _cmd_catalog(config: RunConfig):
    from .metrics import metric_entries, pair_names
    from .surfaces import catalog_entries

    rows = []
    for name, description, defaults in catalog_entries():
        params = ", ".join(f"{k}={v:g}" for k, v in sorted(defaults.items())) or "-"
        rows.append(("surface", name, params, description))
    for name, description in metric_entries():
        rows.append(("metric", name, "-", description))
    for name in pair_names():
        rows.append(("metric-pair", name, "-", "pullback equality check"))
    summary = {"entries": len(rows)}
    return ("kind", "name", "parameters", "description"), rows, summary


def _cmd_invariants(config: RunConfig):
    from .invariants import PointRecord, scan_grid
    from .surfaces import catalog

    records = scan_grid(catalog(config.surface, **config.params), config.grid)
    ratios = [r.ratio for r in records if r.skipped is None]
    summary = {
        "points_evaluated": len(ratios),
        "points_skipped": len(records) - len(ratios),
        "ratio_min": min(ratios, default=None),
        "ratio_max": max(ratios, default=None),
    }
    return PointRecord._fields, records, summary


def _cmd_classify(config: RunConfig):
    from .invariants import PointRecord, classify
    from .surfaces import catalog

    verdict = classify(catalog(config.surface, **config.params), config.grid, config.tolerance)
    return _split(verdict, PointRecord)


def _cmd_transform_check(config: RunConfig):
    from .centroaffine import CentroAffineMap, ScalingPoint, verify_scaling
    from .surfaces import catalog

    s = catalog(config.surface, **config.params)
    try:
        a = CentroAffineMap.of([config.matrix[i:i + 3] for i in (0, 3, 6)])
    except ValueError as exc:
        raise UsageError(f"matrix: {exc}") from exc
    report = verify_scaling(s, a, config.grid, config.tolerance)
    return _split(report, ScalingPoint)


def _cmd_metric_check(config: RunConfig):
    from .metrics import AgreePoint, check_pair

    variants = check_pair(config.pair, config.grid, config.tolerance)
    matching = [label for label, _, _, passed in variants if passed]
    rows = [(label, *p) for label, points, _, _ in variants for p in points]
    summary = {
        "variants": {label: {"max_diff": worst, "passed": passed} for label, _, worst, passed in variants},
        "matching_variant": matching[0] if matching else None,
        "passed": bool(matching),
    }
    return ("variant", *AgreePoint._fields), rows, summary


def _split(report, record):
    """A report's ``points`` as rows under ``record``'s fields, and the
    fields before them as the summary."""
    *head, points = report
    return record._fields, points, dict(zip(report._fields, head))


class _Command(NamedTuple):
    handler: Callable[[RunConfig], tuple]  # (columns, rows, summary)
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

_CHUNK = 2048  # rows per written piece of a report


def _fmt(v) -> str:
    if isinstance(v, float):
        return float.__repr__(v)  # a numpy float's repr is np.float64(...)
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


class _Texts(dict):
    """A column's text of each distinct cell, made at its first lookup."""

    def __init__(self, encode):
        self.encode = encode

    def __missing__(self, cell):  # a finite float is its shortest round-trip repr in every format
        text = self[cell] = repr(cell) if type(cell) is float and cell - cell == 0.0 else self.encode(cell)
        return text


def _cells(report: _Report, encode) -> list:
    """Each column's cell texts, mapped through one dict of distinct texts
    in one pass.  A cell is a float, None or a reason, so 0.0 and -0.0 are
    the only cells that compare equal but encode apart: a column that holds
    both is encoded cell by cell."""
    columns = []
    for column in zip(*report.rows):
        texts = _Texts(encode)
        cells = list(map(texts.__getitem__, column))
        if 0.0 in texts:
            zeros = filter({0.0}.__contains__, filterfalse(None, column))  # its zeros, among its falsy cells
            if len(set(map(math.copysign, repeat(1.0), zeros))) > 1:
                cells = list(map(texts.__missing__, column))
        columns.append(cells)
    return columns


def _fill(parts: list, separator: str, columns: list, n: int):
    """The ``n`` rows in chunks of ``_CHUNK``: row i is ``parts[0]``, each column's i-th text and
    the next part, then ``separator`` but on the last row."""
    streams = [s for column, part in zip(columns, parts) for s in (repeat(part, n), column)]
    streams.append(chain(repeat(parts[-1] + separator, n - 1), parts[-1:]))
    rows = zip(*streams)
    for _ in range(0, n, _CHUNK):
        yield "".join(chain.from_iterable(islice(rows, _CHUNK)))


def _finite(value):
    """``value`` with each float that is not finite, in a dict too, as
    None: strict JSON has no inf or nan."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    return value


def _render_json(report: _Report):
    # json is imported by the runs that write or read it, not by every run.
    from json import JSONEncoder

    # Two encoders per report (json.dumps with arguments builds one per
    # call); allow_nan=False makes a missed inf or nan an error.
    value = JSONEncoder(allow_nan=False).encode
    block = JSONEncoder(indent=2, allow_nan=False).encode
    config, summary = (block(_finite(d)).replace("\n", "\n  ") for d in (report.config, report.summary))
    yield f'{{\n  "config": {config},\n  "results": ['
    if report.rows:
        keys = [f"      {value(c)}: " for c in report.columns]
        parts = ["\n    {\n" + keys[0], *[",\n" + k for k in keys[1:]], "\n    }"]
        yield from _fill(parts, ",", _cells(report, lambda v: value(_finite(v))), len(report.rows))
        yield "\n  "
    yield f'],\n  "summary": {summary}\n}}\n'


def _csv_cell(v) -> str:
    cell = _fmt(v)
    if "," in cell or '"' in cell:
        cell = '"' + cell.replace('"', '""') + '"'
    return cell


def _render_csv(report: _Report):
    if report.rows:
        yield ",".join(report.columns) + "\n"
        yield from _fill(["", *[","] * (len(report.columns) - 1), "\n"], "", _cells(report, _csv_cell), len(report.rows))


def _render_text(report: _Report):
    yield "".join(f"{key}: {value}\n" for key, value in report.config.items()
                  if key not in ("format", "output") and value not in (None, {}, []))
    if report.rows:
        columns = _cells(report, _fmt)
        # A column is as wide as its header and its longest cell, and at least
        # 22, so no cell pushes a later column right.
        widths = [max(22, len(c), *map(len, t)) for c, t in zip(report.columns, columns)]
        yield "\n" + "  ".join(map(str.rjust, report.columns, widths)) + "\n"
        # Each distinct text is padded once, in the column's own dict: no padded column is held.
        cells = [map(_Texts(lambda text, w=w: text.rjust(w)).__getitem__, t) for t, w in zip(columns, widths)]
        yield from _fill(["", *["  "] * (len(widths) - 1), "\n"], "", cells, len(report.rows))

    def emit(items, pad):
        for key, value in items:
            if isinstance(value, dict):
                yield f"{pad}{key}:\n"
                yield from emit(value.items(), pad + "  ")
            else:
                yield f"{pad}{key}: {_fmt(value)}\n"

    yield "\nsummary:\n" + "".join(emit(report.summary.items(), "  "))


_RENDERERS = {"text": _render_text, "json": _render_json, "csv": _render_csv}


def _emit(text: str, fh) -> None:  # every chunk of a report is written here (perfbench's tracer counts it)
    fh.write(text)


def _write(chunks, output: Optional[str]) -> None:
    """Write a report's chunks, each as it comes, to ``output``, or to stdout."""
    try:  # a path to this process's own stdout, such as /dev/stdout under a redirect
        own = output is not None and os.path.samestat(os.stat(output), os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError):  # no such path, or a stdout with no descriptor
        own = False
    if output is None or own:
        for chunk in chunks:
            _emit(chunk, sys.stdout)
        return
    tmp_path = None
    try:
        if os.path.exists(output) and not os.path.isfile(output):
            # A device or FIFO is written in place (a rename would replace
            # it); a directory fails to open.
            fh = open(output, "w")
        else:
            target = os.path.realpath(output)  # a link survives; its target gets the report
            path = os.path.join(os.path.dirname(target), f".titeica-{os.urandom(8).hex()}.tmp")
            # Mode 0666 less the umask, as open(output, "w") would create it.
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            tmp_path = path  # ours to remove from here on
            fh = os.fdopen(fd, "w")
        with fh:
            for chunk in chunks:
                _emit(chunk, fh)
        if tmp_path is not None:
            os.replace(tmp_path, target)
    except OSError as exc:
        # strerror, not the exception: its text names the temporary file.
        raise UsageError(f"output: cannot write report to '{output}': {exc.strerror or exc}") from exc
    finally:  # a failed write or render leaves the target as it was; a rename took the file away
        if tmp_path is not None and os.path.exists(tmp_path):
            os.unlink(tmp_path)


def run(config: RunConfig) -> int:
    """Execute one command and emit its report.  Returns the exit status."""
    try:
        _validate(config)
        command = _COMMANDS[config.command]
        # The config echo, the fields the command takes: a JSON report's
        # config is the --config file that reruns it.
        echo = {k: list(v) if isinstance(v, tuple) else v
                for k, v in zip(config._fields, config) if k in command.fields}
        report = _Report(echo, *command.handler(config))
        _write(_RENDERERS[config.format](report), config.output)
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


# Each RunConfig field: (converter, flag or None, the flag's argparse
# settings), in --help order.  The command is the positional, not a flag.
_FIELDS = {
    "grid": (_grid, "--grid", dict(nargs=2, metavar=("NX", "NY"), help="sample grid size (default 20 20)")),
    "tolerance": (_float, "--tol", dict(metavar="TOL", help="tolerance (default 1e-8)")),
    "format": (_str, "--format", dict(help="report format: text, json or csv (default text)")),
    "output": (_str, "--output", dict(help="write the report to this path (atomically if it is a new or "
                                           "regular file other than stdout)")),
    "surface": (_str, "--surface", dict(help="catalog surface name")),
    "params": (_params, "--param", dict(action="append", metavar="KEY=VALUE", help="surface parameter (repeatable)")),
    "matrix": (_matrix, "--matrix", dict(help="9 row-major entries, comma separated")),
    "pair": (_str, "--pair", dict(help="metric pair, as listed by titeica catalog")),
    "command": (_str, None, {}),
}
_FLAGS = {"--config": ("config", dict(help="JSON config file; flags override file values")),  # flag: (dest, settings)
          **{flag: (name, settings) for name, (_, flag, settings) in _FIELDS.items() if flag}}


def _read_argv(argv) -> dict:
    """``argv``'s values by dest, --param's as a dict: a word that starts with -- names a flag whole, as
    --flag=value, or by a unique prefix; any other word is the value of the flag before it, or the command."""
    values, words = {}, iter(argv)
    for word in words:
        if not word.startswith("--"):
            if "command" in values:
                raise UsageError(f"command: a second command '{word}' after '{values['command']}'")
            values["command"] = word
            continue
        flag, given, value = word.partition("=")
        found = [flag] if flag in _FLAGS else [f for f in _FLAGS if f.startswith(flag) and len(flag) > 2]
        if len(found) != 1:
            raise UsageError(f"{flag}: " + (f"ambiguous flag: {' or '.join(found)}" if found else "unknown flag"))
        name, settings = _FLAGS[found[0]]
        n = settings.get("nargs", 1)  # --grid takes two words, the others one
        got = [value] * len(given) + list(islice(words, n - len(given)))
        if len(got) < n or any(w.startswith("--") for w in got[len(given):]):
            raise UsageError(f"{found[0]}: expected {'a value' if n == 1 else f'{n} values'}")
        values[name] = ({**values.get(name, {}), **dict(map(_key_value, got))} if "action" in settings
                        else got if n > 1 else got[0])  # --param words merge key by key; elsewhere the last wins
    return values


def _help() -> str:
    import argparse  # only the --help page is laid out by argparse

    table = "".join(f"\n  {name:<17}{c.help}\n  {'':<17}{' '.join(f for f, (n, _) in _FLAGS.items() if n in c.fields)}"
                    for name, c in _COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="titeica", description="Surface invariant K/d^4: classification, scaling-law and metric checks.",
        epilog="commands, and the flags each takes besides --config:" + table,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", nargs="?", help="one of the commands below")
    for flag, (name, settings) in _FLAGS.items():
        parser.add_argument(flag, dest=name, **settings)
    return parser.format_help()


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


def parse_config(argv=None) -> Optional[RunConfig]:
    """Merge the given flags over the config file's object and convert
    every value with its field's converter.  A null or absent value takes
    the field's default; ``--param`` items merge key by key over the
    file's ``params``.  -h or --help anywhere prints help and gives None."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if any(w == "-h" or len(w) > 2 and "--help".startswith(w) for w in argv):  # --h, --he and --hel too
        sys.stdout.write(_help())
        return None
    flags = _read_argv(argv)
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
        try:  # a line that asks for help has had its page: status 0
            status = 0 if (config := parse_config(argv)) is None else run(config)
        except UsageError as exc:  # a syntax error or a bad value: one line, no usage banner
            print(f"error: {exc}", file=sys.stderr)
            status = 2
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout is gone (``titeica ... | head -1``).  Stdout
        # now points at the null device, so the flush at exit cannot raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return status


def _entry() -> None:
    """The process entry: ``main()``, then ``gc.freeze()``, so that the exit-time collections skip the heap."""
    status = main()
    gc.freeze()  # not in main(): a library call must not freeze its caller's heap
    sys.exit(status)


if __name__ == "__main__":
    _entry()
