"""Run tier 1 against each plant and write ``tests/plants/ledger.json``.

    python -m tests.plants [PLANT ...]

Each plant (all of them, or those named) is applied to its own temporary
copy of the tree, and tier 1 runs there without ``-x``: hypothesis with
a fixed seed and no shrinking (the ``plants`` profile of
``tests/conftest.py``), ``PYTHONHASHSEED=0``, two plants at a time, each
run cut after :data:`TIMEOUT` seconds.  The failing tests are read from
``--junitxml``.  The ledger maps each plant to every test that failed on
it and that test's seconds; naming plants rewrites only their rows.

Exit status 1 when a plant other than the control fails no test, the
control fails one, or a run does not finish; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ElementTree
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List

from tests.plants import PLANTS, ROOT, Plant

LEDGER = ROOT / "tests" / "plants" / "ledger.json"
#: Seconds one plant's tier-1 run may take (a clean one takes about 4.5
#: min on a 2-core host, two at a time).
TIMEOUT = 600
WORKERS = 2
HYPOTHESIS_SEED = 0
_IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info",
    ".ledger_work", "build", "dist",
)


def _test_id(tree: Path, classname: str, name: str) -> str:
    """The pytest node id of a junit ``testcase``."""
    parts = classname.split(".")
    for cut in range(1, len(parts) + 1):
        module = "/".join(parts[:cut]) + ".py"
        if (tree / module).is_file():
            return "::".join([module, *parts[cut:], name])
    return f"{classname}::{name}"


def run_plant(plant: Plant) -> Dict[str, Any]:
    """Tier 1 on a copy of the tree with *plant* in: its ledger row."""
    with tempfile.TemporaryDirectory(prefix="plant-") as workdir:
        tree = Path(workdir) / "tree"
        shutil.copytree(ROOT, tree, ignore=_IGNORED)
        target = tree / plant.file
        target.write_text(
            plant.apply(target.read_text(encoding="utf-8")), encoding="utf-8"
        )
        junit = Path(workdir) / "junit.xml"
        env = dict(
            os.environ,
            PYTHONPATH=str(tree / "src"),
            PYTHONHASHSEED="0",
            PYTHONDONTWRITEBYTECODE="1",
        )
        command = [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--hypothesis-profile=plants",
            f"--hypothesis-seed={HYPOTHESIS_SEED}", f"--junitxml={junit}",
            # It holds the plant list to the pristine tree, so it fails
            # on every planted one by construction.
            "--ignore=tests/test_plants.py",
        ]
        start = time.perf_counter()
        try:
            status = subprocess.run(
                command, cwd=tree, env=env, timeout=TIMEOUT,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            ).returncode
        except subprocess.TimeoutExpired:
            status = None
        row: Dict[str, Any] = {
            "file": plant.file,
            "target": plant.target,
            "kind": plant.kind,
            "wall_s": round(time.perf_counter() - start, 1),
        }
        if status not in (0, 1) or not junit.exists():
            row["error"] = (
                "timed out" if status is None else f"pytest exit {status}"
            )
            row["caught_by"] = {}
            return row
        caught: Dict[str, float] = {}
        ran = 0
        for case in ElementTree.parse(junit).getroot().iter("testcase"):
            ran += 1
            if any(case.find(tag) is not None for tag in ("failure", "error")):
                test = _test_id(
                    tree, case.get("classname", ""), case.get("name", "")
                )
                caught[test] = round(float(case.get("time", 0.0)), 2)
        row["tests_run"] = ran
        row["caught_by"] = dict(sorted(caught.items()))
        return row


def verdicts(plants: Dict[str, Dict[str, Any]]) -> List[str]:
    """One line per plant the ledger shows to be wrong."""
    problems = []
    for name, row in plants.items():
        if "error" in row:
            problems.append(f"{name}: {row['error']}")
        elif row["kind"] == "control" and row["caught_by"]:
            problems.append(
                f"{name} (control) fails {len(row['caught_by'])} test(s)"
            )
        elif row["kind"] != "control" and not row["caught_by"]:
            problems.append(f"{name}: no test catches it")
    return problems


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.plants",
        description="Run tier 1 against planted bugs; write the ledger.",
    )
    parser.add_argument(
        "plants", nargs="*", metavar="PLANT",
        help="plant names (default: every plant)",
    )
    args = parser.parse_args(argv)
    by_name = {plant.name: plant for plant in PLANTS}
    unknown = sorted(set(args.plants) - set(by_name))
    if unknown:
        parser.error(f"unknown plant(s): {', '.join(unknown)}")
    chosen = [by_name[name] for name in args.plants] or list(PLANTS)
    ledger: Dict[str, Any] = {"plants": {}}
    if args.plants and LEDGER.exists():
        ledger = json.loads(LEDGER.read_text(encoding="utf-8"))
    rows = ledger["plants"]
    with ThreadPoolExecutor(WORKERS) as pool:
        for done, (plant, row) in enumerate(
            zip(chosen, pool.map(run_plant, chosen)), 1
        ):
            rows[plant.name] = row
            outcome = row.get("error") or (
                f"{len(row['caught_by'])} failing test(s)"
            )
            print(
                f"[{done}/{len(chosen)}] {plant.name}: {outcome} "
                f"({row['wall_s']} s)",
                flush=True,
            )
    ledger = {
        "command": "python -m tests.plants",
        "hypothesis_seed": HYPOTHESIS_SEED,
        "plants": {
            plant.name: rows[plant.name]
            for plant in PLANTS
            if plant.name in rows
        },
    }
    LEDGER.write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
    problems = verdicts(ledger["plants"])
    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"wrote {LEDGER.relative_to(ROOT)}: {len(ledger['plants'])} plants, "
          f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
