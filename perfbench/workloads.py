"""Seeded workloads and the per-operation correctness oracle.

An operation is one ``titeica`` command line.  The program only ever
receives the generated argv (and, for ``--config``, a generated file); the
oracle then checks the exit status and the verdict the paper predicts:

* sphere-origin (1/R^6), titeica-xyz (1/27) and minkowski-sphere (-1) are
  Titeica surfaces, with the ratio constant to ``RATIO_RTOL``;
  sphere-translated, pseudosphere and paraboloid are not;
* ``transform-check`` passes for every invertible matrix, because the ratio
  scales by exactly 1/det(A)^2;
* each ``metric-check`` reports its known ``matching_variant``.

A ``transform-check`` whose |det A| is at most ``SINGULAR_DET`` is marked
``singular`` when it is generated.  For those alone, a failure with every
grid point skipped as singular is the known defect of the absolute
``EPS_SINGULAR`` threshold: it counts as a failed operation but not as a
broken benchmark.  The same outcome on any other matrix is a problem.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import re
import statistics
from dataclasses import dataclass, field

import numpy as np

# grid-scan and verify-mix run at 50x50, so that a run holds at least five
# repeats of each command and the tail percentile sits well above the
# median.  Cost per point is flat in grid size.
GRID = 50
VERIFY_GRID = 50
DEFAULT_GRID = 20  # the CLI's default, used by cli-small
DEFAULT_TOL = 1e-8
RATIO_RTOL = 1e-9
DET_RTOL = 1e-12

REGULAR = (
    "sphere-origin",
    "sphere-translated",
    "titeica-xyz",
    "paraboloid",
    "pseudosphere",
    "minkowski-sphere",
)
PAIRS = {  # pair -> (number of change variants, expected matching variant)
    "pseudosphere:half-plane": (1, "standard"),
    "half-plane:disk": (1, "standard"),
    "disk:minkowski-sphere": (2, "radius"),
}
STRETCH = "2,0,0,0,1,0,0,0,1"
SMALL = "0.001,0,0,0,0.001,0,0,0,0.001"  # det 1e-9
# |det A| at or below which the absolute EPS_SINGULAR skips every grid point
# of a transform-check (ROADMAP item 4): the known defect.
SINGULAR_DET = 10.0**-8.5


@dataclass(frozen=True)
class Op:
    key: str  # unique within a workload and stable across rounds
    argv: tuple[str, ...]
    points: int  # grid points the command checks
    expect: dict
    output: str | None = None  # report file in the work directory, else stdout


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    in_process: bool
    # Scaled seconds of one round on the reference machine with the code as
    # first benchmarked.  A run does ceil(--seconds / round_s) rounds, so the
    # round count, and with it the tail percentile, does not depend on the
    # speed of the code under test.
    round_s: float
    files: dict = field(default_factory=dict)  # inputs written before the first op


@dataclass(frozen=True)
class Outcome:
    ok: bool
    known_defect: bool = False
    evaluated: int | None = None
    attempted: int | None = None
    why: str = ""


def expected_ratio(surface: str, params: dict):
    """The constant K/d^4 the paper gives, or None for a non-Titeica surface."""
    if surface == "sphere-origin":
        return params.get("R", 1.0) ** -6
    return {"titeica-xyz": 1.0 / 27.0, "minkowski-sphere": -1.0}.get(surface)


def _num(rng, lo, hi) -> float:
    return float(f"{rng.uniform(lo, hi):.6g}")


def _surface_op(command, surface, params, fmt, grid, output=None, key=None, **expect):
    argv = [command, "--surface", surface]
    for k, v in params.items():
        argv += ["--param", f"{k}={v!r}"]
    if grid != DEFAULT_GRID:
        argv += ["--grid", str(grid), str(grid)]
    if fmt != "text":
        argv += ["--format", fmt]
    if output:
        argv += ["--output", output]
    ratio = expected_ratio(surface, params)
    expect = {"kind": command, "format": fmt, "titeica": ratio is not None, "ratio": ratio,
              "tol": DEFAULT_TOL, **expect}
    return Op(key or f"{command}:{surface}", tuple(argv), grid * grid, expect, output)


def _transform_op(surface, params, label, matrix, fmt, grid, output=None, extra=()):
    det = _det(matrix)
    op = _surface_op("transform-check", surface, params, fmt, grid, output,
                     key=f"transform-check:{surface}:{label}", det=det,
                     singular=abs(det) <= SINGULAR_DET)
    return Op(op.key, op.argv[:3] + ("--matrix", matrix) + tuple(extra) + op.argv[3:],
              op.points, op.expect, op.output)


def _metric_op(pair, fmt, grid, output=None, extra=()):
    variants, matching = PAIRS[pair]
    argv = ["metric-check", "--pair", pair, *extra]
    if grid != DEFAULT_GRID:
        argv += ["--grid", str(grid), str(grid)]
    if fmt != "text":
        argv += ["--format", fmt]
    if output:
        argv += ["--output", output]
    expect = {"kind": "metric-check", "format": fmt, "variant": matching}
    return Op(f"metric-check:{pair}", tuple(argv), grid * grid * variants, expect, output)


def _det(matrix: str) -> float:
    return float(np.linalg.det(np.array([float(t) for t in matrix.split(",")]).reshape(3, 3)))


def seeded_matrix(rng, log10_det: float) -> str:
    """A well-conditioned matrix (I + 0.25 G, G Gaussian) rescaled to |det| = 10**log10_det."""
    g = np.eye(3) + 0.25 * np.array([[rng.gauss(0.0, 1.0) for _ in range(3)] for _ in range(3)])
    g *= (10.0**log10_det / abs(np.linalg.det(g))) ** (1.0 / 3.0)
    return ",".join(repr(float(v)) for v in g.ravel())


def grid_scan(rng) -> Workload:
    params = {
        "sphere-origin": {"R": _num(rng, 0.5, 2.0)},
        "sphere-translated": {"R": _num(rng, 0.5, 2.0), "c": _num(rng, 0.5, 2.0)},
    }
    ops = [_surface_op("classify", s, params.get(s, {}), "json", GRID, f"classify-{s}.json")
           for s in REGULAR]
    ops += [_surface_op("invariants", s, params.get(s, {}), "csv", GRID, f"invariants-{s}.csv")
            for s in ("sphere-origin", "minkowski-sphere")]
    return Workload("grid-scan", tuple(ops), in_process=True, round_s=2.9)


def verify_mix(rng) -> Workload:
    # One seeded matrix per surface, log10|det| spread over [-9, 3].  The
    # strata skip 10^-8.5 .. 10^-4, where the absolute EPS_SINGULAR skips
    # some points and not others, so that every seed has the same mix of
    # passing and known-defect operations: sphere-origin always gets a
    # matrix that trips the defect (|det| <= SINGULAR_DET), like 1e-3 I does.
    strata = {"sphere-origin": (-9.0, -8.5), "titeica-xyz": (-4.0, -2.0), "paraboloid": (1.0, 3.0)}
    params = {"sphere-origin": {"R": _num(rng, 0.5, 2.0)}}
    ops = []
    for surface, (lo, hi) in strata.items():
        matrices = {"stretch": STRETCH, "small": SMALL, "seeded": seeded_matrix(rng, rng.uniform(lo, hi))}
        for label, matrix in matrices.items():
            ops.append(_transform_op(surface, params.get(surface, {}), label, matrix, "json",
                                     VERIFY_GRID, f"transform-{surface}-{label}.json"))
    ops += [_metric_op(pair, "json", VERIFY_GRID, f"metric-{pair.replace(':', '-')}.json")
            for pair in PAIRS]
    return Workload("verify-mix", tuple(ops), in_process=True, round_s=5.1)


def cli_small(rng) -> Workload:
    """The README's command lines as fresh processes, plus two error paths."""
    r1, r2, c, r3 = (_num(rng, 0.5, 2.0) for _ in range(4))
    g = DEFAULT_GRID
    ops = [
        Op("catalog", ("catalog",), 0, {"kind": "catalog"}),
        _surface_op("classify", "sphere-origin", {"R": r1}, "text", g),
        _surface_op("classify", "sphere-translated", {"R": r2, "c": c}, "csv", g),
        _surface_op("classify", "titeica-xyz", {}, "json", g, "verdict.json"),
        _surface_op("invariants", "minkowski-sphere", {}, "csv", g),
        _transform_op("titeica-xyz", {}, "stretch", STRETCH, "text", g, extra=("--tol", "1e-8")),
        _metric_op("pseudosphere:half-plane", "text", g, extra=("--tol", "1e-9")),
        _metric_op("disk:minkowski-sphere", "text", g),
        Op("config", ("--config", "run.json"), g * g,
           {"kind": "classify", "format": "json", "titeica": True, "ratio": r3**-6, "tol": DEFAULT_TOL}),
        Op("classify:plane", ("classify", "--surface", "plane"), g * g,
           {"kind": "error", "exit": 1, "stderr": "inconclusive:"}),
        Op("tol-zero", ("classify", "--surface", "sphere-origin", "--tol", "0"), 0,
           {"kind": "error", "exit": 2, "stderr": "error: tolerance"}),
    ]
    config = {"command": "classify", "surface": "sphere-origin", "params": {"R": r3},
              "grid": [g, g], "format": "json"}
    return Workload("cli-small", tuple(ops), in_process=False, round_s=2.5,
                    files={"run.json": json.dumps(config)})


WORKLOADS = {"grid-scan": grid_scan, "verify-mix": verify_mix, "cli-small": cli_small}


def probe_ops() -> tuple[Op, ...]:
    """Small in-process ops that reach every layer; used to warm up, for the
    self-test, and for per-layer figures of layers a workload bypasses."""
    g = DEFAULT_GRID
    ops = (
        _surface_op("classify", "titeica-xyz", {}, "json", g, "probe-classify.json"),
        _transform_op("titeica-xyz", {}, "stretch", STRETCH, "json", g, "probe-transform.json"),
        _metric_op("disk:minkowski-sphere", "json", g, "probe-metric.json"),
    )
    return tuple(dataclasses.replace(op, key=f"probe:{op.key}") for op in ops)


# --------------------------------------------------------------------------
# Oracle


def check(op: Op, code: int, stdout: str, stderr: str, report: str) -> Outcome:
    """Compare one operation's exit status and report with the expectation."""
    try:
        return _CHECKS[op.expect["kind"]](op, code, stdout, stderr, report)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return Outcome(False, why=f"{op.key}: unreadable report ({type(exc).__name__}: {exc})")


def _fail(op, why, **kw) -> Outcome:
    return Outcome(False, why=f"{op.key}: {why}", **kw)


def _json(report: str) -> dict:
    # An all-skipped transform-check reports its maxima as a bare inf,
    # which strict JSON has no token for.
    return json.loads(re.sub(r"(?<=: )(-?)inf(?=,?$)", r"\1Infinity", report, flags=re.M))


def _summary(fmt: str, report: str) -> tuple[dict, int | None]:
    """The report's summary, and the number of per-point rows when the
    format makes them countable (JSON)."""
    if fmt == "json":
        doc = _json(report)
        return doc["summary"], len(doc["results"])
    lines = report.splitlines()
    out = {}
    for line in lines[lines.index("summary:") + 1:]:
        if line.startswith("  ") and not line.startswith("   "):
            key, _, value = line.strip().partition(": ")
            out[key.rstrip(":")] = value
    return out, None


def _rows(report: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(report)))


def _true(v) -> bool:
    return v is True or v == "true"


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _check_scan(op, code, stdout, stderr, report) -> Outcome:
    e = op.expect
    if code != 0:
        return _fail(op, f"exit {code}, expected 0 ({stderr.strip()[-200:]})")
    if e["format"] == "csv":
        rows = _rows(report)
        ratios = [float(r["ratio"]) for r in rows if r["skipped"] == ""]
        attempted, evaluated = len(rows), len(ratios)
        median = statistics.median(ratios)
        spread = max(abs(r - median) for r in ratios) / max(1e-12, abs(median))
        titeica = spread <= e["tol"]
        if e["kind"] == "invariants":
            if e["ratio"] is not None and any(_rel(r, e["ratio"]) > RATIO_RTOL for r in ratios):
                return _fail(op, "a point's ratio differs from the expected constant")
            for r in rows:
                if r["skipped"] == "" and _rel(float(r["K"]) / float(r["d"]) ** 4, float(r["ratio"])) > RATIO_RTOL:
                    return _fail(op, f"ratio is not K/d^4 at ({r['x']}, {r['y']})")
    else:
        s, rows = _summary(e["format"], report)
        titeica = _true(s["is_titeica"])
        median = float(s["ratio_constant"])
        evaluated = int(s["points_evaluated"])
        attempted = evaluated + int(s["points_skipped"])
        if rows not in (None, op.points):
            return _fail(op, "results do not cover the grid")
    if attempted != op.points:
        return _fail(op, f"{attempted} points reported, {op.points} expected")
    if titeica != e["titeica"]:
        return _fail(op, f"is_titeica {titeica}, expected {e['titeica']}", evaluated=evaluated, attempted=attempted)
    if e["ratio"] is not None and _rel(median, e["ratio"]) > RATIO_RTOL:
        return _fail(op, f"ratio constant {median!r}, expected {e['ratio']!r}")
    return Outcome(True, evaluated=evaluated, attempted=attempted)


def _check_transform(op, code, stdout, stderr, report) -> Outcome:
    s, rows = _summary(op.expect["format"], report)
    evaluated = int(s["points_evaluated"])
    attempted = evaluated + int(s["points_skipped"])
    if attempted != op.points or rows not in (None, op.points):
        return _fail(op, f"{attempted} points reported, {op.points} expected")
    if _rel(float(s["det"]), op.expect["det"]) > DET_RTOL:
        return _fail(op, f"det {s['det']}, expected {op.expect['det']!r}")
    if code == 0 and _true(s["passed"]):
        return Outcome(True, evaluated=evaluated, attempted=attempted)
    if op.expect["singular"] and code == 1 and not _true(s["passed"]) and evaluated == 0:
        return _fail(op, "every point skipped as singular (absolute EPS_SINGULAR)",
                     known_defect=True, evaluated=0, attempted=attempted)
    return _fail(op, f"exit {code}, passed {s['passed']}: the scaling law must hold",
                 evaluated=evaluated, attempted=attempted)


def _check_metric(op, code, stdout, stderr, report) -> Outcome:
    s, rows = _summary(op.expect["format"], report)
    if code != 0 or not _true(s["passed"]):
        return _fail(op, f"exit {code}, passed {s.get('passed')}")
    if s["matching_variant"] != op.expect["variant"]:
        return _fail(op, f"matching_variant {s['matching_variant']}, expected {op.expect['variant']}")
    if rows not in (None, op.points):
        return _fail(op, "results do not cover the grid and every variant")
    return Outcome(True)


def _check_catalog(op, code, stdout, stderr, report) -> Outcome:
    if code != 0:
        return _fail(op, f"exit {code}")
    names = set(REGULAR) | {"plane"} | set(PAIRS)
    listed = {line.split()[1] for line in report.splitlines() if len(line.split()) > 1}
    if not names <= listed:
        return _fail(op, f"catalog lacks {sorted(names - listed)}")
    return Outcome(True)


def _check_error(op, code, stdout, stderr, report) -> Outcome:
    e = op.expect
    if code != e["exit"] or stdout or e["stderr"] not in stderr:
        return _fail(op, f"exit {code} with stderr {stderr.strip()[-200:]!r}, expected exit {e['exit']}")
    m = re.search(r"(\d+)/(\d+) grid points", stderr)
    if m is None:
        return Outcome(True)
    skipped, total = int(m.group(1)), int(m.group(2))
    return Outcome(True, evaluated=total - skipped, attempted=total)


_CHECKS = {
    "classify": _check_scan,
    "invariants": _check_scan,
    "transform-check": _check_transform,
    "metric-check": _check_metric,
    "catalog": _check_catalog,
    "error": _check_error,
}
