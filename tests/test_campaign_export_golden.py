"""A campaign's exports are pinned across commits, byte for byte.

``tests/data/export_store.jsonl`` is a small campaign (two topologies x
two traffics x two algorithms x two loads) simulated once into a store,
and ``tests/data/export_golden.json`` holds the CSV and the tables text
an export of it produced when the fixture was recorded.  Exporting that
store must reproduce both texts exactly — through the library and
through ``repro-campaign export`` — so a change to how rows are built or
written cannot move a published file unnoticed.

Regenerate (only when a change is *meant* to move export output; the
store is re-simulated)::

    PYTHONPATH=src python tests/test_campaign_export_golden.py
"""

import io
import json
import os
import shutil
import warnings
from pathlib import Path

from repro.campaigns.cli import main as campaign_main
from repro.campaigns.export import (
    collect,
    format_campaign_tables,
    write_campaign_csv,
)
from repro.campaigns.orchestrator import run_campaign
from repro.campaigns.spec import CampaignSpec, TrafficSpec
from repro.campaigns.store import ResultStore

DATA = Path(__file__).parent / "data"
STORE = DATA / "export_store.jsonl"
GOLDEN = DATA / "export_golden.json"

SPEC = CampaignSpec(
    name="export-golden",
    algorithms=("ecube", "nbc"),
    loads=(0.2, 0.5),
    seeds=(5,),
    topologies=("torus:4x2", "mesh:4x2"),
    traffics=(
        TrafficSpec("uniform"),
        TrafficSpec("hotspot", (("fraction", 0.1),)),
    ),
    base=dict(
        message_length=4,
        warmup_cycles=200,
        sample_cycles=300,
        gap_cycles=50,
        min_samples=3,
        max_samples=3,
    ),
)


def export(store):
    """(CSV text, tables text) of SPEC, served from *store*."""
    pairs = collect(SPEC, store)
    stream = io.StringIO()
    write_campaign_csv(pairs, stream)
    return stream.getvalue(), format_campaign_tables(SPEC, pairs)


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _fixture_store(tmp_path):
    path = tmp_path / "store.jsonl"
    shutil.copy(STORE, path)
    return str(path)


def test_library_export_matches_the_recorded_bytes(tmp_path):
    golden = _golden()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the fixture opens clean
        with ResultStore(_fixture_store(tmp_path)) as store:
            csv_text, tables = export(store)
    assert csv_text == golden["csv"]
    assert tables == golden["tables"]


def test_cli_export_writes_the_recorded_bytes(tmp_path, capsys):
    golden = _golden()
    spec_path = str(tmp_path / "spec.json")
    SPEC.to_file(spec_path)
    out = tmp_path / "export.csv"
    assert campaign_main([
        "export", spec_path, "--store", _fixture_store(tmp_path),
        "--csv", str(out), "--tables",
    ]) == 0
    assert out.read_bytes() == golden["csv"].encode("utf-8")
    assert capsys.readouterr().out == (
        golden["tables"] + "\n" + f"wrote {out}\n"
    )


if __name__ == "__main__":
    if STORE.exists():
        os.remove(STORE)
    with ResultStore(str(STORE)) as fresh:
        run_campaign(SPEC, fresh)
    with ResultStore(str(STORE)) as served:
        csv_text, tables = export(served)
    GOLDEN.write_text(
        json.dumps({"csv": csv_text, "tables": tables}, indent=1) + "\n",
        encoding="utf-8",
    )
