"""Planted bugs: what each tier-1 test is worth.

A plant is a one-site patch to the source tree: in *file*, the *anchor*
text (which must occur there exactly once) becomes *replacement*.  Each
names its *target* (the code it breaks) and its bug *kind*.  ``python -m
tests.plants`` applies each plant to a temporary copy of the tree, runs
tier 1 there and records in ``tests/plants/ledger.json`` every test that
fails: which tests catch which bug, the evidence a test is kept or
pruned by (docs/testing.md).  ``tests/test_plants.py`` checks at every
tier-1 run that each anchor still occurs once and each patched file
still parses.

The one plant of kind ``control`` changes a value nothing reads: a test
that fails on it is flaky or reads what it should not.  Every other
plant must fail at least one test.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Tuple

#: The repository root: plant files are relative to it.
ROOT = Path(__file__).resolve().parents[2]


class Plant(NamedTuple):
    name: str
    file: str
    anchor: str
    replacement: str
    target: str
    kind: str

    def apply(self, text: str) -> str:
        """*text* (the file's contents) with the plant in."""
        count = text.count(self.anchor)
        if count != 1:
            raise ValueError(
                f"plant {self.name}: anchor occurs {count} times in {self.file}"
            )
        return text.replace(self.anchor, self.replacement)


_ENGINE = "src/repro/simulator/engine.py"

PLANTS: Tuple[Plant, ...] = (
    # -- Engine._transmit: only the activity-tracked stepper runs it ----
    Plant(
        "transmit-ideal-overfill", _ENGINE,
        "if occupancy >= cap:\n                            continue",
        "if occupancy > cap:\n                            continue",
        "Engine._transmit", "off-by-one",
    ),
    Plant(
        "transmit-conservative-fresh-slot", _ENGINE,
        "+ (vc.last_departure_cycle == cycle)\n",
        "+ 0\n",
        "Engine._transmit", "flow control",
    ),
    Plant(
        "transmit-rr-cursor-stuck", _ENGINE,
        "channel._rr_next = rr_after[idx]",
        "channel._rr_next = idx",
        "Engine._transmit", "arbitration",
    ),
    Plant(
        "transmit-priority-inverted", _ENGINE,
        "order = owned[::-1]",
        "order = owned",
        "Engine._transmit", "arbitration",
    ),
    Plant(
        "transmit-retry-dropped", _ENGINE,
        "retry.append(up_ch)",
        "pass",
        "Engine._transmit", "missed poll",
    ),
    Plant(
        "transmit-downstream-unarmed", _ENGINE,
        "if down_ch.armed_cycle < next_cycle and (",
        "if False and (",
        "Engine._transmit", "missed poll",
    ),
    Plant(
        "transmit-saf-routes-on-head", _ENGINE,
        "route_at = length if self._saf else 1",
        "route_at = 1",
        "Engine._transmit", "switching",
    ),
    Plant(
        "transmit-disarm-skipped", _ENGINE,
        "channel.armed_cycle = cycle\n"
        "                    # The departed flit freed",
        "channel.armed_cycle = next_cycle\n"
        "                    # The departed flit freed",
        "Engine._transmit", "wasted poll",
    ),
    # -- Engine._route / _park / _wake_waiters --------------------------
    Plant(
        "route-heap-order", _ENGINE,
        "batch = sorted(heap)",
        "batch = list(heap)",
        "Engine._route", "service order",
    ),
    Plant(
        "route-wake-epoch-kept", _ENGINE,
        "message.park_epoch = epoch + 1",
        "message.park_epoch = epoch",
        "Engine._wake_waiters", "stale state",
    ),
    Plant(
        "route-blocked-episode-unstamped", _ENGINE,
        "message.blocked_at = self.cycle\n        self._parked",
        "self._parked",
        "Engine._park", "observability",
    ),
    # -- Engine._eject: both steppers share it ---------------------------
    Plant(
        "eject-delivery-stamped-early", _ENGINE,
        "owner.delivered_at = self.cycle",
        "owner.delivered_at = self.cycle - 1",
        "Engine._complete", "off-by-one",
    ),
    Plant(
        "eject-feeder-unarmed", _ENGINE,
        "if channel.armed_cycle < cycle and vc.flits_in < owner.length:",
        "if False:",
        "Engine._eject", "missed poll",
    ),
    # -- shared by both steppers: no differential test can see these ----
    Plant(
        "select-most-multiplexed", _ENGINE,
        "if load < best_load:",
        "if load > best_load:",
        "Engine._select", "selection policy",
    ),
    Plant(
        "select-random-takes-first", _ENGINE,
        "return free[rng.randrange(len(free))]",
        "return free[0]",
        "Engine._select", "selection policy",
    ),
    Plant(
        "select-sole-candidate-taken", _ENGINE,
        "return vc if vc.owner is None else None",
        "return vc",
        "Engine._select", "double reservation",
    ),
    Plant(
        "allocate-keeps-candidates", _ENGINE,
        "message.cached_candidates = None\n",
        "\n",
        "Engine._allocate", "stale state",
    ),
    Plant(
        "reserve-owned-unsorted", "src/repro/network/virtual_channel.py",
        "insort(channel.owned_idx, self.vc_class)",
        "channel.owned_idx.append(self.vc_class)",
        "VirtualChannel.reserve", "arbitration",
    ),
    Plant(
        "release-retires-short", "src/repro/network/virtual_channel.py",
        "self.flits_retired += carried",
        "self.flits_retired += carried - 1",
        "VirtualChannel.release", "accounting",
    ),
    Plant(
        "injection-limit-off-by-one", "src/repro/simulator/injection.py",
        "if count >= self.limit:",
        "if count > self.limit:",
        "InjectionController.try_admit", "off-by-one",
    ),
    Plant(
        "arrivals-reseed-early", "src/repro/traffic/arrivals.py",
        "(now + self._gap(rng), node) for _, node in self._heap",
        "(now + self._gap(rng) - 1, node) for _, node in self._heap",
        "GeometricArrivals.reseed", "off-by-one",
    ),
    # -- ScanEngine and the PhysicalChannel.transmit it polls -----------
    Plant(
        "scan-no-fixpoint-retry", "src/repro/simulator/reference.py",
        "if ideal and channel.retry_hint:",
        "if False:",
        "ScanEngine._transmit", "flow control",
    ),
    Plant(
        "scan-rr-cursor-stuck", "src/repro/network/physical_channel.py",
        "next_idx = idx + 1",
        "next_idx = idx",
        "PhysicalChannel.transmit", "arbitration",
    ),
    # -- routing/tables.py and routing/relation.py ----------------------
    Plant(
        "tables-interned-sorted", "src/repro/routing/tables.py",
        "flats = tuple(map(self._flat_ids.setdefault, fresh, fresh))",
        "flats = tuple(sorted(map(self._flat_ids.setdefault, fresh, fresh)))",
        "RouteTable.intern", "candidate order",
    ),
    Plant(
        "tables-top-class-refused", "src/repro/routing/tables.py",
        "if not 0 <= vc_class < num_vcs:",
        "if not 0 <= vc_class < num_vcs - 1:",
        "flat_candidates", "off-by-one",
    ),
    Plant(
        "relation-states-merged", "src/repro/routing/relation.py",
        "marker = (state_fingerprint(state), node)",
        "marker = node",
        "routing_relation", "missed rows",
    ),
    Plant(
        "relation-conflicts-unrecorded", "src/repro/routing/relation.py",
        "relation.conflicts.setdefault(key, row)",
        "pass",
        "routing_relation", "missed check",
    ),
    # -- the store and identity ------------------------------------------
    Plant(
        "store-first-record-wins", "src/repro/campaigns/store.py",
        "        self._records[record[\"key\"]] = _Record(",
        "        if record[\"key\"] in self._records:\n"
        "            return True\n"
        "        self._records[record[\"key\"]] = _Record(",
        "ResultStore._admit", "stale state",
    ),
    Plant(
        "identity-seed-unkeyed", "src/repro/campaigns/identity.py",
        "load={offered_load:.6g}|seed={seed}",
        "load={offered_load:.6g}",
        "point_text", "aliased addresses",
    ),
    # -- stats/ -----------------------------------------------------------
    Plant(
        "stats-percentile-floor", "src/repro/stats/metrics.py",
        "index = math.ceil(mark / 100.0 * n) - 1",
        "index = math.floor(mark / 100.0 * n) - 1",
        "nearest_rank_percentile", "off-by-one",
    ),
    Plant(
        "stats-criterion-one-skipped", "src/repro/stats/convergence.py",
        "if estimate.relative_error > self.relative_error:",
        "if False:",
        "ConvergenceChecker.converged", "missed check",
    ),
    # -- campaigns/cli.py ----------------------------------------------------
    Plant(
        "cli-smoke-overrides-flags", "src/repro/campaigns/cli.py",
        "if getattr(args, dest) is None:",
        "if args.smoke or getattr(args, dest) is None:",
        "campaigns.cli._cmd_equivalence", "ignored flag",
    ),
    # -- the two classes tier 1 once let through ---------------------------
    Plant(
        "set-order-stream-names", "src/repro/simulator/batch.py",
        "        self.gen_arrivals = self.rng.numpy_stream(STREAM_ARRIVALS)\n"
        "        self.gen_destinations = self.rng.numpy_stream("
        "STREAM_DESTINATIONS)\n"
        "        self.gen_routing = self.rng.numpy_stream(STREAM_ROUTING)\n",
        "        names = {STREAM_ARRIVALS, STREAM_DESTINATIONS, STREAM_ROUTING}\n"
        "        self.gen_arrivals, self.gen_destinations, self.gen_routing = [\n"
        "            self.rng.numpy_stream(name) for name in names\n"
        "        ]\n",
        "_Lane.refresh_streams", "hash order",
    ),
    Plant(
        "spec-profile-dropped", "src/repro/campaigns/spec.py",
        "            \"profile\": self.profile,\n",
        "",
        "CampaignSpec.to_dict", "dropped field",
    ),
    # -- the control --------------------------------------------------------
    Plant(
        "control-blocked-at-initial", "src/repro/network/message.py",
        "self.blocked_at = -1",
        "self.blocked_at = -2",
        "Message.__init__", "control",
    ),
)


__all__ = ["PLANTS", "Plant", "ROOT"]
