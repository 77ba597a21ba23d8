"""The default ``repro-campaign verify`` report is pinned across commits.

``tests/data/verify_golden.json`` is the ``--json`` report of
``repro-campaign verify`` on the default matrix (every registered algorithm
on torus:4x4 and mesh:4x4) with every ``wall_time`` removed, the one
thing two runs may differ in.  It was recorded before the battery's
plumbing (check registry, outcome type, waiver table) was folded into a
table of functions, so every status, detail, waiver, witness and count
of the battery is held to what it was.

Regenerate (only when a change is *meant* to move a verdict)::

    PYTHONPATH=src python tests/test_verify_golden.py
"""

import json
from pathlib import Path

from repro.campaigns.cli import main as check_main

GOLDEN = Path(__file__).parent / "data" / "verify_golden.json"


def _untimed_report(path):
    """The report ``repro-campaign verify --json PATH`` writes, untimed."""
    assert check_main(["verify", "--quiet", "--json", str(path)]) == 0
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    del report["wall_time"]
    for result in report["results"]:
        del result["wall_time"]
    return report


def test_default_report_matches_the_golden(tmp_path, capsys):
    report = _untimed_report(tmp_path / "report.json")
    capsys.readouterr()
    assert report == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        report = _untimed_report(Path(scratch) / "report.json")
    with open(GOLDEN, "w", encoding="utf-8") as stream:
        json.dump(report, stream, indent=1, sort_keys=True)
        stream.write("\n")
