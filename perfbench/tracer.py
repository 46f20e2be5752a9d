"""In-memory spans and the wrappers that put them around the package's layers.

A span is (name, start, end, parent, op): wall-clock nanoseconds from
``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux, so spans recorded in a
child process line up with the parent's), the index of the enclosing span
(-1 for a root) and the id of the benchmark operation it belongs to.

:func:`install` replaces the public functions at the module attributes
where each layer is called (``titeica.cli.point_invariants``,
``titeica.centroaffine.titeica_ratio``, ...) with wrappers that open and
close a span, and returns a function that puts the originals back.
Nothing inside the package is edited.

This module must not import numpy at load time: the cli-small child
bootstrap times ``import numpy`` after importing it.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array

ROOT = "op"

# (module, attribute, span name) of every plain function wrapper.
FUNCTION_HOOKS = (
    ("titeica.cli", "parse_config", "cli.parse"),
    ("titeica.cli", "run", "cli.run"),
    ("titeica.cli", "scan_grid", "cli.scan"),
    ("titeica.cli", "eval_surface", "surfaces.eval"),
    ("titeica.cli", "point_invariants", "invariants.point"),
    ("titeica.cli", "_verdict_from_records", "cli.verdict"),
    ("titeica.cli", "verify_scaling", "centroaffine.verify"),
    ("titeica.centroaffine", "titeica_ratio", "invariants.ratio"),
    ("titeica.centroaffine", "oriented_volumes", "invariants.volumes"),
    ("titeica.metrics", "metrics_agree", "metrics.agree"),
    ("titeica.metrics", "pullback", "metrics.pullback"),
    ("titeica.metrics", "metric_values", "metrics.values"),
)

# (module, attribute of a name -> function dict, span name).
TABLE_HOOKS = (
    ("titeica.cli", "_HANDLERS", "cli.handler"),
    ("titeica.cli", "_RENDERERS", "cli.render"),
)

# Counters recorded beside the spans.
CROSS = "np.cross"
REPORT_BYTES = "report_bytes"


class Tracer:
    """Spans and per-operation counters, kept in typed arrays."""

    def __init__(self, op: int = -1):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.counts: dict[int, dict[str, int]] = {}
        self.op_id = op
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def add(self, name: str, start: int, end: int, parent: int, op: int) -> int:
        i = len(self.start)
        self.name.append(self._name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(op)
        return i

    def open(self, name: str, start: int | None = None) -> int:
        now = time.perf_counter_ns() if start is None else start
        i = self.add(name, now, 0, self._stack[-1], self.op_id)
        self._stack.append(i)
        return i

    def close(self, i: int, end: int | None = None) -> None:
        self.end[i] = time.perf_counter_ns() if end is None else end
        self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        per_op = self.counts.setdefault(self.op_id, {})
        per_op[key] = per_op.get(key, 0) + n

    def __len__(self) -> int:
        return len(self.start)

    def spans(self):
        """(name, start, end, parent, op) tuples in recording order."""
        for i in range(len(self.start)):
            yield (self.names[self.name[i]], self.start[i], self.end[i], self.parent[i], self.op[i])

    def merge(self, data: dict, parent: int, op: int) -> None:
        """Append spans dumped by a child process under the span ``parent``,
        as operation ``op``."""
        base = len(self.start)
        for name, start, end, par, _ in data["spans"]:
            self.add(name, start, end, parent if par < 0 else base + par, op)
        per_op = self.counts.setdefault(op, {})
        for counts in data["counts"].values():
            for key, n in counts.items():
                per_op[key] = per_op.get(key, 0) + n

    def dump(self, path: str) -> None:
        """Write every span and counter as one JSON document, gzip-compressed
        when ``path`` ends in ``.gz``."""
        doc = {"spans": list(self.spans()), "counts": {str(k): v for k, v in self.counts.items()}}
        if path.endswith(".gz"):
            fh = gzip.open(path, "wt", compresslevel=1)
        else:
            fh = open(path, "w")
        with fh:
            json.dump(doc, fh)


def _spanned(tracer: Tracer, name, fn):
    def wrapper(*args, **kwargs):
        i = tracer.open(name(args) if callable(name) else name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)

    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer: Tracer):
    """Wrap every layer boundary that exists in the loaded package.

    Returns ``(undo, missing)``: a function restoring the originals, and
    the hooks whose attribute was not found (reported, never fatal).
    """
    import importlib

    import numpy

    undo: list = []
    missing: list[str] = []

    def patch(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def module(name):
        try:
            return importlib.import_module(name)
        except ImportError:
            return None

    for mod_name, attr, span in FUNCTION_HOOKS:
        mod = module(mod_name)
        if mod is None or not callable(getattr(mod, attr, None)):
            missing.append(f"{mod_name}.{attr}")
            continue
        patch(mod, attr, _spanned(tracer, span, getattr(mod, attr)))

    for mod_name, attr, span in TABLE_HOOKS:
        table = getattr(module(mod_name), attr, None)
        if not isinstance(table, dict):
            missing.append(f"{mod_name}.{attr}")
            continue
        for key, fn in list(table.items()):
            undo.append((table, key, fn))
            table[key] = _spanned(tracer, span, fn)

    # The scaling check evaluates the original surface and its image
    # under the map through the same function; tell them apart by the
    # identity of the surfaces apply_map returned.
    cen = module("titeica.centroaffine")
    if cen is not None and callable(getattr(cen, "apply_map", None)) \
            and callable(getattr(cen, "eval_surface", None)):
        mapped: list = []
        apply_map = cen.apply_map

        def recording_apply_map(*args, **kwargs):
            image = apply_map(*args, **kwargs)
            mapped.append(image)
            del mapped[:-8]
            return image

        def eval_name(args):
            if args and any(args[0] is m for m in mapped):
                return "centroaffine.mapped_eval"
            return "surfaces.eval"

        patch(cen, "apply_map", recording_apply_map)
        patch(cen, "eval_surface", _spanned(tracer, eval_name, cen.eval_surface))
    else:
        missing.append("titeica.centroaffine.apply_map/eval_surface")

    cli = module("titeica.cli")
    if cli is not None and callable(getattr(cli, "_emit", None)):
        emit = cli._emit

        def counted_emit(text, *args, **kwargs):
            tracer.count(REPORT_BYTES, len(text.encode()))
            return emit(text, *args, **kwargs)

        patch(cli, "_emit", _spanned(tracer, "cli.write", counted_emit))
    else:
        missing.append("titeica.cli._emit")

    cross = numpy.cross

    def counted_cross(*args, **kwargs):
        tracer.count(CROSS)
        return cross(*args, **kwargs)

    patch(numpy, "cross", counted_cross)

    def restore():
        for owner, key, original in reversed(undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    return restore, missing
