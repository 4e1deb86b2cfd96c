"""Every report, byte for byte, against the golden files in ``golden/``.

A report may change only on purpose.  Regenerate the affected file with the
same command, for example

    PYTHONPATH=src python -m bks33 verify --set peres --json > tests/golden/verify-peres.json

(without ``--json`` for the ``.txt`` text reports) and list the change in CHANGES.md.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from bks33 import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = GOLDEN.parent.parent / "src"

REPORTS = {
    **{f"catalog-{s}.json": ["catalog", "--set", s, "--format", "json"]
       for s in ("peres", "penrose", "family")},
    **{f"verify-{s}.json": ["verify", "--set", s, "--json"]
       for s in ("peres", "penrose", "family")},
    "prove.json": ["prove", "--json"],
    "critical.json": ["critical", "--json"],
    "critical-ray-5.json": ["critical", "--ray", "5", "--json"],
    "majorana.json": ["majorana", "--json"],
    "verify-peres.txt": ["verify", "--set", "peres"],
    "prove.txt": ["prove"],
}

CNF_EXPORTS = {
    "export-cnf.cnf": [],
    "export-cnf-delete-1.cnf": ["--delete", "1"],
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_golden(capsys, name):
    assert cli.main(REPORTS[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(CNF_EXPORTS))
def test_cnf_export_matches_golden(tmp_path, name):
    out = tmp_path / name
    assert cli.main(["export-cnf", "--out", str(out), *CNF_EXPORTS[name]]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", ["verify-peres.json", "prove.json"])
def test_module_entry_point_matches_golden(name):
    # a fresh interpreter runs ``python -m bks33``: __main__.py, not cli.main
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-m", "bks33", *REPORTS[name]],
                         capture_output=True, env=env, check=False)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (GOLDEN / name).read_bytes()
