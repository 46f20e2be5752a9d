"""End-to-end acceptance suite.

Each test checks one headline guarantee at its stated tolerance and
prints a single PASS/FAIL line (visible with ``pytest -s``).
"""

import json
import math

import numpy as np

import exprgen
import frame_reference as ref
from fdcheck import FDSettings, fd_jet
from helpers import brioschi_curvature, random_map, random_orthogonal, random_polynomial_patch, random_regular_point
from titeica import classify
from titeica.centroaffine import apply_map, verify_scaling
from titeica.cli import main
from titeica.invariants import identity_residual, point_invariants
from titeica.jet import seed_xy
from titeica.metrics import _METRICS, check_pair
from titeica.surfaces import EUCLIDEAN, MINKOWSKI, Box, catalog, eval_surface, grid_points


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name}: {detail}"


def run_classify_cli(tmp_path, surface, params=(), tol=None):
    out = tmp_path / f"{surface}.json"
    argv = ["classify", "--surface", surface, "--format", "json", "--output", str(out)]
    for p in params:
        argv += ["--param", p]
    if tol is not None:
        argv += ["--tol", str(tol)]
    code = main(argv)
    with open(out) as fh:
        return code, json.load(fh)["summary"]


def test_criterion_01_sphere_invariant(tmp_path):
    code1, s1 = run_classify_cli(tmp_path, "sphere-origin", ["R=1"])
    code2, s2 = run_classify_cli(tmp_path, "sphere-origin", ["R=2"])
    ok = (
        code1 == 0
        and s1["is_titeica"]
        and abs(s1["ratio_constant"] - 1.0) <= 1e-9
        and s1["spread"] <= 1e-9
        and code2 == 0
        and s2["is_titeica"]
        and abs(s2["ratio_constant"] - 1.0 / 64.0) <= 1e-9
        and s2["spread"] <= 1e-9
    )
    report(
        "criterion 1: sphere ratio is 1/R^6 with spread <= 1e-9",
        ok,
        f"R=1: {s1['ratio_constant']:.3g} spread {s1['spread']:.2e}; R=2: {s2['ratio_constant']:.6g}",
    )


def test_criterion_02_translated_sphere(tmp_path):
    code, s = run_classify_cli(tmp_path, "sphere-translated", ["R=1", "c=2"])
    ok = code == 0 and not s["is_titeica"] and s["spread"] > 0.1
    report(
        "criterion 2: translated sphere is not constant-ratio (spread > 0.1)",
        ok,
        f"spread {s['spread']:.3g}",
    )


def test_criterion_03_titeica_example(tmp_path):
    # independent oracle for u = 1/(xy): Vx Vy - Vxy^2 = 3/(x^4 y^4) and
    # V^4 = 81/(x^4 y^4), so the ratio is 1/27 everywhere
    code, s = run_classify_cli(tmp_path, "titeica-xyz")
    ok = (
        code == 0
        and s["is_titeica"]
        and abs(s["ratio_constant"] - 1.0 / 27.0) <= 1e-9
        and s["spread"] <= 1e-9
    )
    report(
        "criterion 3: u = 1/(xy) has constant ratio 1/27",
        ok,
        f"ratio {s['ratio_constant']:.12g} spread {s['spread']:.2e}",
    )


def test_criterion_04_and_05_scaling_law():
    rng = np.random.default_rng(101)
    worst_ratio = 0.0
    worst_volume = 0.0
    for name in ("paraboloid", "titeica-xyz", "minkowski-sphere"):
        s = catalog(name)
        for _ in range(20):
            a = random_map(rng)
            rep = verify_scaling(s, a, (5, 4), 1e-8)
            assert rep.points_skipped == 0
            worst_ratio = max(worst_ratio, rep.max_ratio_residual)
            worst_volume = max(worst_volume, rep.max_volume_residual)
    report(
        "criterion 4: ratio scales by det^-2 within 1e-8 (20 random maps x 3 surfaces)",
        worst_ratio <= 1e-8,
        f"max residual {worst_ratio:.2e}",
    )
    report(
        "criterion 5: position volume scales by det within 1e-10",
        worst_volume <= 1e-10,
        f"max residual {worst_volume:.2e}",
    )


def test_criterion_06_unimodular_preserves_constants():
    rng = np.random.default_rng(103)
    worst = 0.0
    for name, params in (("sphere-origin", {"R": 1.0}), ("titeica-xyz", {})):
        s = catalog(name, **params)
        base = classify(s, grid=(10, 10), tol=1e-8)
        for sign in (1.0, -1.0):
            image = apply_map(s, random_orthogonal(rng, det_sign=sign))
            verdict = classify(image, grid=(10, 10), tol=1e-8)
            assert verdict.is_titeica == base.is_titeica
            worst = max(
                worst,
                abs(verdict.ratio_constant - base.ratio_constant)
                / max(1.0, abs(base.ratio_constant)),
            )
    report(
        "criterion 6: orthogonal maps (det = +-1) preserve the constant within 1e-8",
        worst <= 1e-8,
        f"max constant drift {worst:.2e}",
    )


def test_criterion_07_identity_suite():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(500):
        s = random_polynomial_patch(rng)
        x, y = random_regular_point(rng, s)
        sj = eval_surface(s, x, y)
        ratio = point_invariants(sj, EUCLIDEAN).ratio()
        worst = max(worst, identity_residual(sj, EUCLIDEAN) / max(1.0, abs(ratio)))
    report(
        "criterion 7: |K/d^4 - (VxVy - Vxy^2)/V^4| <= 1e-9 max(1, |ratio|) on 500 random patches",
        worst <= 1e-9,
        f"max scaled residual {worst:.2e}",
    )


def test_criterion_08_pseudosphere(tmp_path):
    box = Box(0.1, 3.0, 0.3, 1.2)
    worst = max(abs(brioschi_curvature(_METRICS["pseudosphere"][0], *p) + 1.0) for p in grid_points(box, 10, 5))
    code, s = run_classify_cli(tmp_path, "pseudosphere")
    ok = worst <= 1e-7 and code == 0 and not s["is_titeica"]
    report(
        "criterion 8: pseudosphere metric has K = -1 intrinsically, yet is not constant-ratio",
        ok,
        f"max |K+1| {worst:.2e}, classify spread {s['spread']:.3g}",
    )


def test_criterion_09_metric_chain():
    worst = 0.0
    for name in ("pseudosphere:half-plane", "half-plane:disk"):
        [(_, _, max_diff, passed)] = check_pair(name, (10, 5), 1e-9)
        assert passed, name
        worst = max(worst, max_diff)
    report(
        "criterion 9: pseudosphere<->half-plane and half-plane<->disk pullbacks agree (tol 1e-9)",
        worst <= 1e-9,
        f"max component diff {worst:.2e}",
    )


def test_criterion_10_minkowski_sphere():
    s = catalog("minkowski-sphere")
    worst_metric = worst_d = worst_k = worst_ratio = 0.0
    for u1, u2 in grid_points(s.domain, 10, 10):
        sj = eval_surface(s, u1, u2)
        e, f, g, *_ = ref.fundamental_forms(sj, MINKOWSKI)
        worst_metric = max(worst_metric, abs(e - 1.0), abs(f), abs(g - math.sinh(u1) ** 2))
        p = point_invariants(sj, MINKOWSKI)
        worst_d = max(worst_d, abs(p.d - 1.0))
        worst_k = max(worst_k, abs(p.K + 1.0))
        worst_ratio = max(worst_ratio, abs(p.ratio() + 1.0))
    ok = worst_metric <= 1e-10 and worst_d <= 1e-10 and worst_k <= 1e-9 and worst_ratio <= 1e-9
    report(
        "criterion 10: Minkowski sphere has induced metric du1^2 + sinh^2(u1) du2^2, d = 1, K = -1, ratio -1",
        ok,
        f"metric {worst_metric:.1e}, d {worst_d:.1e}, K {worst_k:.1e}, ratio {worst_ratio:.1e}",
    )


def test_criterion_11_jet_oracle():
    rng = np.random.default_rng(20260810)
    settings = FDSettings(h1=1e-6, h2=1e-4)
    worst1 = worst2 = 0.0
    for expr, x, y in exprgen.sample_cases(rng, 1000):
        j = exprgen.eval_jet(expr, *seed_xy(x, y))
        fd = fd_jet(lambda a, b: exprgen.eval_float(expr, a, b), (x, y), settings)
        for got, want in ((fd.dx, j.dx), (fd.dy, j.dy)):
            worst1 = max(worst1, abs(got - want) / max(1.0, abs(want)))
        for got, want in ((fd.dxx, j.dxx), (fd.dxy, j.dxy), (fd.dyy, j.dyy)):
            worst2 = max(worst2, abs(got - want) / max(1.0, abs(want)))
    ok = worst1 <= 1e-8 and worst2 <= 1e-5
    report(
        "criterion 11: 1000 random compositions match the finite-difference oracle",
        ok,
        f"first derivatives {worst1:.2e} (tol 1e-8), second {worst2:.2e} (tol 1e-5)",
    )


def test_criterion_12_disk_change_discrepancy(tmp_path):
    out = tmp_path / "disk-pair.json"
    code = main([
        "metric-check", "--pair", "disk:minkowski-sphere",
        "--tol", "1e-8", "--format", "json", "--output", str(out),
    ])
    with open(out) as fh:
        summary = json.load(fh)["summary"]
    variants = summary["variants"]
    ok = (
        code == 0
        and summary["matching_variant"] == "radius"
        and variants["radius"]["passed"]
        and not variants["squared-radius"]["passed"]
    )
    report(
        "criterion 12: report identifies which disk->hyperboloid variant reproduces the disk metric",
        ok,
        f"radius diff {variants['radius']['max_diff']:.2e}, "
        f"squared-radius diff {variants['squared-radius']['max_diff']:.2e}",
    )
