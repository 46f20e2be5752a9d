"""Report bytes pinned to golden files.

Each file under ``tests/golden/`` is the stdout of ``main(argv)`` for the
argv beside its name.  The first five use only arithmetic and ``sqrt``,
so their bytes do not depend on the platform's math library.  The other
three pin the jet paths through ``sin``, ``cos``, ``sinh``, ``cosh``,
``tanh``, ``atan`` and ``atanh`` (pseudosphere, the Minkowski sphere and
the disk-to-hyperboloid pullback); their last digits follow the C
library's ``libm`` (they were written with glibc on x86-64).  A
deliberate change of report bytes rewrites the file from the new output
and says why in CHANGES.md.
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
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_matches_golden_file(name, capsys):
    main(GOLDEN[name])
    with open(os.path.join(GOLDEN_DIR, name), newline="") as fh:
        assert capsys.readouterr().out == fh.read()
