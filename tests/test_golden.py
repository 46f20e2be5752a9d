"""Report bytes pinned to golden files.

Each file under ``tests/golden/`` is the stdout of ``main(argv)`` for the
argv beside its name.  The surfaces and the pair use only arithmetic and
``sqrt``, so the bytes do not depend on the platform's ``sin``, ``cosh``
or ``atanh``.  A deliberate change of report bytes rewrites the file from
the new output and says why in CHANGES.md.
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
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_matches_golden_file(name, capsys):
    main(GOLDEN[name])
    with open(os.path.join(GOLDEN_DIR, name), newline="") as fh:
        assert capsys.readouterr().out == fh.read()
