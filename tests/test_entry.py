"""Every process entry to the CLI is ``main(argv)``: for each line of
``CASES``, ``python -m titeica.cli`` and the installed ``titeica`` (when
one is on PATH) give ``main(argv)``'s exit status and stdout and stderr
bytes, and leave the same files in their working directory.  What
``main`` gives is pinned in ``test_golden`` and ``test_cli``."""

import json
import re
import shutil
import sys

import pytest

from helpers import child
from test_golden import GOLDEN, golden_text
from titeica import cli
from titeica.cli import main

SCRIPT = shutil.which("titeica")
ENTRIES = [pytest.param([sys.executable, "-m", "titeica.cli"], id="module"),
           pytest.param([SCRIPT], id="script", marks=pytest.mark.skipif(not SCRIPT, reason="no titeica on PATH"))]
COLUMNS = {"COLUMNS": "80"}  # the width argparse wraps help text to
MATRIX = "transform-check --surface titeica-xyz --grid 3 3 --matrix"

# Each line's argv, the environment it adds and the files its working
# directory holds: the goldens at 80 columns, each JSON golden rerun from
# its config, each command's --help, refusals and spellings of a flag, and
# three reports longer than one chunk of rows, one in each format, to stdout
# and to a file, under two hash seeds.
CASES = {
    **{name: (argv, COLUMNS, {}) for name, argv in GOLDEN.items()},
    **{f"{name} --config": (["--config", "run.json"], {}, {"run.json": json.dumps(json.loads(golden_text(name))["config"])})
       for name in GOLDEN if name.endswith(".json")},
    **{f"{command} --help": ([command, "--help"], COLUMNS, {}) for command in cli._COMMANDS},
    **{line: (line.split(), {}, {}) for line in [
        "--tol 5 catalog", "catalog --tol 5", "catalog --tol 0", "--tol 0", "catalog --grid 3 3", "--grid 3 3 catalog",
        "catalog --format xml", "classify --surface titeica-xyz --grid 5 4 --format json",
        f"{MATRIX} -1,0,0,0,1,0,0,0,1", f"{MATRIX}=-1,0,0,0,1,0,0,0,1",
        "--surf titeica-xyz --gr 3 3 classify", "--surface titeica-xyz --grid 3 3 classify"]},
    "--config xml.json": (["--config", "xml.json"], {}, {"xml.json": '{"command": "catalog", "format": "xml"}'}),
    **{f"{line}{output} PYTHONHASHSEED={seed}": (f"{line}{output}".split(), {"PYTHONHASHSEED": seed}, {})
       for line in ["classify --surface titeica-xyz --grid 60 60 --format json",
                    "invariants --surface titeica-xyz --grid 60 60 --format csv",
                    "invariants --surface titeica-xyz --grid 60 60"]
       for output in ["", " --output report"] for seed in "01"},
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("entry", ENTRIES)
def test_each_entry_is_main(entry, case, tmp_path, monkeypatch, capsys):
    argv, env, files = CASES[case]
    for key, value in env.items():
        monkeypatch.setenv(key, value)

    def in_process(directory):
        monkeypatch.chdir(directory)
        return main(argv), *(text.encode() for text in capsys.readouterr())

    runs = []
    for name, run in [("main", in_process), ("child", lambda directory: child([*entry, *argv], directory, env))]:
        (tmp_path / name).mkdir()
        for file, text in files.items():
            (tmp_path / name / file).write_text(text)
        runs.append((*run(tmp_path / name), {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}))
    assert runs[1] == runs[0]


@pytest.mark.parametrize("argv, status", [(["--help"], 0), (["classify", "--surface", "titeica-xyz", "--tol", "0"], 2)],
                         ids=["help", "bad-tol"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_help_and_a_refused_value_load_no_library_module(entry, argv, status):
    # PYTHONPROFILEIMPORTTIME is -X importtime for the interpreter an entry
    # starts; python -m runs titeica.cli unimported, so the script alone lists it.
    code, _, err = child([*entry, *argv], env={**COLUMNS, "PYTHONPROFILEIMPORTTIME": "1"})
    loaded = set(re.findall(r"^import time:.*\| +(titeica[.\w]*)$", err.decode(), re.M))
    assert code == status and "titeica" in loaded and loaded <= {"titeica", "titeica.cli"}
