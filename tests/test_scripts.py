"""Smoke tests of the scripts under scripts/.

Each script is loaded from its file (scripts/ is not a package) and its
main(argv) is called in-process on a trimmed box.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from convolvium.verify import SweepRange, reports_to_json, run_all, suite_names

_SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_verification_prints_verdicts_and_writes_the_report(capsys, tmp_path):
    script = _load("run_verification")
    target = tmp_path / "report.json"
    trim = ["--n-max", "3", "--m-max", "2", "--r-max", "2", "--a-max", "1"]
    code = script.main([*trim, "--json", str(target)])
    out = capsys.readouterr().out
    assert code == 0
    verdicts = [line.split()[0] for line in out.splitlines() if "  PASS  " in line or "  FAIL  " in line]
    assert verdicts == list(suite_names())
    # the default seed is the library's, so the report equals run_all's
    sweep = SweepRange(n_max=3, m_max=2, r_max=2, a_max=1)
    assert target.read_text() == reports_to_json(run_all(sweep))
