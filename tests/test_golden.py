"""Report bytes pinned to golden files.

Each file under ``tests/golden/`` is the stdout of ``main(argv)`` for the
argv beside its name.  Eight of them use only arithmetic and ``sqrt``,
so their bytes do not depend on the platform's math library: the
catalog, classify and transform-check on titeica-xyz, invariants on
sphere-origin (at R = 2, and at R = 1e100 in CSV and JSON, where every
row is skipped with an underflowing K/d^4), transform-check on the
paraboloid and the half-plane to disk pullback.  The other five pin the
jet paths through ``sin``, ``cos``, ``sinh``, ``cosh``, ``tanh``,
``atan`` and ``atanh``: classify and transform-check on the
pseudosphere, invariants on the Minkowski sphere and the
disk-to-hyperboloid pullback in CSV and JSON.
Their last digits follow the C library's ``libm`` (they were written
with glibc on x86-64).  A deliberate change of report bytes rewrites the
file from the new output and says why in CHANGES.md.
"""

import os

import pytest

from titeica.cli import main

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
    "classify-pseudosphere.json": [
        "classify", "--surface", "pseudosphere", "--format", "json", "--grid", "5", "4",
    ],
    "invariants-minkowski-sphere.txt": [
        "invariants", "--surface", "minkowski-sphere", "--grid", "4", "3",
    ],
    "metric-check-disk-minkowski-sphere.csv": [
        "metric-check", "--pair", "disk:minkowski-sphere", "--format", "csv", "--grid", "3", "3",
    ],
    # every point skipped: null maxima
    "transform-check-titeica-xyz-small.json": [
        "transform-check", "--surface", "titeica-xyz",
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
    # the summary block of two change variants
    "metric-check-disk-minkowski-sphere.json": [
        "metric-check", "--pair", "disk:minkowski-sphere", "--format", "json", "--grid", "3", "3",
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_matches_golden_file(name, capsys):
    main(GOLDEN[name])
    with open(os.path.join(GOLDEN_DIR, name), newline="") as fh:
        assert capsys.readouterr().out == fh.read()
