"""Reference stepper vs. ``Engine`` equivalence.

``repro.simulator.reference.ScanEngine`` is the seed engine's full
per-cycle rescan; ``Engine`` tracks activity and re-examines a blocked
resource only when a condition it waits on changes.  The two must be
*bit-identical*: same flit schedule, same counters, same rng stream
positions, same per-channel state.  ``Engine.state_fingerprint()``
digests exactly that state (scheduling bookkeeping like armed stamps and
parked-waiter lists is excluded — it is allowed to differ), so
fingerprint equality after the same number of cycles is the equivalence
oracle used throughout.

Covered here:

* the matrix of 6 algorithms x {mesh, torus} x {wormhole, vct}, VCT
  observed and not, fingerprints compared every 16 cycles;
* fixed ideal-flow-control corner cases for the transmit phase's disarm
  rule (buffer depths, short worms, a queueing source, SAF/VCT, strict
  priority, an observer attached and detached mid-run),
  its poll efficiency under both flow-control models, wormhole and SAF,
  and where an in-pass splice lands in the poll list;
* (drawn configurations — every switching mode, flow control, mux and
  selection policy, traffic pattern, load, worm length and buffer
  depth — are ``tests/test_differential.py``'s, which holds the two
  steppers to the same fingerprints and the same observed books);
* the routing-decision memo: cached candidate sets must resolve to the
  same objects a fresh computation produces, and disabling the memo
  must not change the schedule;
* ``SimulationConfig`` has no ``scheduler`` field: the reference is
  built by name, and no module reads such an attribute.
"""

import pytest

from repro.simulator.config import SimulationConfig
from repro.simulator.engine import Engine
from repro.simulator.reference import ScanEngine
from tests.conftest import observed_books

ALGORITHMS = ("ecube", "nlast", "2pn", "phop", "nhop", "nbc")


#: Fingerprints are compared this often, not only at the end: a wrongly
#: skipped poll delays a flit by a cycle or two and the schedules can
#: re-converge long before a run's last cycle.
CHECK_EVERY = 16


def _run_pair(cycles, at_cycle=None, **options):
    """Run a ScanEngine and an Engine in lockstep on the same config.

    *at_cycle* maps a cycle count to a callable applied to both engines
    when they reach it (attach/detach an observer mid-run).
    """
    scan, active = (
        stepper(SimulationConfig(**options))
        for stepper in (ScanEngine, Engine)
    )
    stops = sorted(
        set(range(CHECK_EVERY, cycles, CHECK_EVERY))
        | set(at_cycle or ())
        | {cycles}
    )
    done = 0
    for stop in stops:
        for engine in (scan, active):
            engine.run_cycles(stop - done)
        done = stop
        assert scan.state_fingerprint() == active.state_fingerprint(), (
            f"diverged by cycle {stop}: {options}"
        )
        if at_cycle and stop in at_cycle:
            for engine in (scan, active):
                at_cycle[stop](engine)
    return scan, active


class TestSchedulerIdentity:
    # Observed only under VCT: every plant an observed wormhole row failed
    # on, an unobserved one and test_differential.py fail on too
    # (docs/testing.md).
    @pytest.mark.parametrize(
        "switching, obs", [("wormhole", False), ("vct", False), ("vct", True)]
    )
    @pytest.mark.parametrize("topology", ["mesh", "torus"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_matrix_fingerprint_identity(
        self, algorithm, topology, switching, obs
    ):
        scan, active = _run_pair(
            600,
            radix=4,
            n_dims=2,
            topology=topology,
            algorithm=algorithm,
            switching=switching,
            offered_load=0.45,
            seed=23,
            obs=obs,
            obs_options={"stride": 32} if obs else {},
        )
        assert scan.state_fingerprint() == active.state_fingerprint()
        assert scan.flits_moved_total > 0  # the run exercised the fabric
        assert active.conservation_check()

    # Where the disarm rule of Engine._transmit is most delicate: a sole
    # owner's "can it move next cycle" must be exact for every buffer
    # depth, for worms shorter than their path (releases mid-flight), for
    # a source that queues, and under both other switching modes.
    # (Depths 2 and 4 and VCT failed on no plant depth 1 and SAF miss.)
    @pytest.mark.parametrize(
        "options",
        [
            {"vc_buffer_depth": 1},
            {"message_length": 2, "radix": 6},
            {"injection_limit": 1, "offered_load": 0.8},
            {"switching": "saf"},
            {"mux_policy": "highest_class", "algorithm": "phop"},
        ],
        ids=lambda options: "-".join(
            f"{key}={value}" for key, value in options.items()
        ),
    )
    @pytest.mark.parametrize("algorithm", ["ecube", "nbc"])
    def test_ideal_flow_control_corner_cases(self, algorithm, options):
        config = {
            "radix": 4,
            "n_dims": 2,
            "algorithm": algorithm,
            "flow_control": "ideal",
            "offered_load": 0.5,
            "message_length": 8,
            "seed": 41,
        }
        config.update(options)
        _, active = _run_pair(480, **config)
        assert active.flits_moved_total > 0
        assert active.conservation_check()

    def test_observer_attached_and_detached_mid_run(self):
        from repro.obs.observer import ObsConfig, Observer

        _, active = _run_pair(
            640,
            at_cycle={
                200: lambda engine: engine.attach_observer(
                    Observer(ObsConfig(stride=32))
                ),
                424: lambda engine: engine.detach_observer(),
            },
            radix=4,
            n_dims=2,
            algorithm="nbc",
            flow_control="ideal",
            offered_load=0.6,
            seed=9,
        )
        assert active.observer is None
        assert active.conservation_check()

    def test_fingerprint_detects_divergence(self):
        """The oracle itself must not be vacuous."""
        a = Engine(SimulationConfig(radix=4, n_dims=2, seed=1,
                                    offered_load=0.3))
        b = Engine(SimulationConfig(radix=4, n_dims=2, seed=1,
                                    offered_load=0.3))
        a.run_cycles(400)
        b.run_cycles(401)
        assert a.state_fingerprint() != b.state_fingerprint()


class TestTransmitPolls:
    """Transmit does work proportional to flits moved, not to polls."""

    #: 0.57 before sole-owner disarming (every body flit cost one failed
    #: poll per hop), 0.92-0.94 with it, 0.96-0.98 since a departure
    #: that leaves the tail behind it splices nothing.
    FLOOR = 0.85

    def test_lone_worm_on_idle_torus(self):
        engine = Engine(SimulationConfig(
            radix=8, n_dims=2, algorithm="ecube", offered_load=0.0,
        ))
        assert engine._inject(0, 36)  # 4 + 4 hops
        engine.run_cycles(64)
        assert engine.delivered_total == 1
        assert engine.flits_moved_total == 8 * engine.config.message_length
        assert engine.flits_moved_total / engine.polls_total >= self.FLOOR

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_uncontended_load_wastes_few_polls(self, algorithm):
        engine = Engine(SimulationConfig(
            radix=8, n_dims=2, algorithm=algorithm, offered_load=0.1, seed=101,
        ))
        engine.run_cycles(1500)
        assert engine.flits_moved_total > 10_000
        assert engine.flits_moved_total / engine.polls_total >= self.FLOOR

    def test_poll_counter_is_not_simulated_state(self):
        """Scan polls far more, yet fingerprints agree: not in the digest."""
        scan, active = _run_pair(
            320, radix=4, n_dims=2, algorithm="2pn", offered_load=0.5, seed=3
        )
        assert scan.flits_moved_total == active.flits_moved_total
        assert scan.polls_total > active.polls_total > 0

    @pytest.mark.parametrize(
        "flow_control, switching",
        [("ideal", "wormhole"), ("conservative", "wormhole"),
         ("ideal", "saf"), ("conservative", "saf")],
    )
    def test_every_mode_wastes_few_polls(self, flow_control, switching):
        """Under contention, where many polls fail, no arm is spent idly.

        Arming every channel whose poll failed would read 0.62–0.73 here,
        and splicing the channel that feeds a VC already holding its tail
        would read 0.59 under ideal SAF.
        """
        engine = Engine(SimulationConfig(
            radix=8, n_dims=2, algorithm="ecube", offered_load=0.7,
            seed=101, flow_control=flow_control, switching=switching,
        ))
        engine.run_cycles(1000)
        assert engine.flits_moved_total > 40_000
        assert engine.flits_moved_total / engine.polls_total >= self.FLOOR

    def test_arrival_arms_downstream_only_when_its_vc_can_move(self):
        """An arrival arms the channel that forwards out of its VC only
        when the VC downstream can take the flit, however many VCs that
        channel has reserved: its other VCs arm it on their own events.
        Arming on a reserved count above one as well cost 29 648 polls
        here, 28 more, for the same flits."""
        engine = Engine(SimulationConfig(
            radix=4, n_dims=2, algorithm="nbc", offered_load=0.8,
            message_length=4, seed=7,
        ))
        engine.run_cycles(700)
        assert engine.flits_moved_total == 26_003
        assert engine.polls_total <= 29_620

    @staticmethod
    def _record_splices(monkeypatch):
        """Check every in-pass splice as it lands; return the list of them.

        Each one must land past the poll cursor — the channel whose move
        caused it — at its ``active_seq`` position, so the poll list stays
        strictly sorted and the pass reaches the channel in scan order.
        """
        import sys

        from repro.simulator import engine as engine_module

        real_splice = engine_module._splice
        splices = []

        def checked_splice(pending, channel, seq):
            cursor = sys._getframe(1).f_locals["channel"]
            assert seq == channel.active_seq > cursor.active_seq
            assert channel not in pending
            real_splice(pending, channel, seq)
            seqs = [queued.active_seq for queued in pending]
            assert seqs == sorted(set(seqs))
            assert pending.index(channel) > pending.index(cursor)
            splices.append(seq)

        monkeypatch.setattr(engine_module, "_splice", checked_splice)
        return splices

    @pytest.mark.parametrize("switching", ["wormhole"])
    def test_splices_land_after_the_cursor_in_order(
        self, monkeypatch, switching
    ):
        splices = self._record_splices(monkeypatch)
        engine = Engine(SimulationConfig(
            radix=4, n_dims=2, algorithm="nbc", switching=switching,
            flow_control="ideal", offered_load=0.7, seed=11,
        ))
        engine.run_cycles(500)
        assert splices, "no in-pass splice happened"

    @pytest.mark.parametrize("switching", ["saf", "vct"])
    def test_store_and_forward_splices_nothing(self, monkeypatch, switching):
        """Under SAF and VCT no departure finds a channel that can move.

        Under SAF a worm requests its next channel only once its whole
        packet is in, so the VC a flit leaves has received its last flit
        and the channel feeding it has nothing left to send.  Under VCT
        the packet-sized buffer a flit leaves was not full, so the freed
        slot is not what the channel feeding it waits for: it waits on a
        flit further back, which cannot settle this cycle.  A splice would
        buy a failed poll either way.  That the flit schedule needs none is what the
        ``ScanEngine`` ≡ ``Engine`` fingerprints above and the
        differential harness hold.
        """
        splices = self._record_splices(monkeypatch)
        engine = Engine(SimulationConfig(
            radix=4, n_dims=2, algorithm="nbc", switching=switching,
            flow_control="ideal", offered_load=0.7, seed=11,
        ))
        engine.run_cycles(500)
        assert engine.flits_moved_total > 10_000
        assert not splices


class TestRoutingMemo:
    def _congested(self, algorithm, stepper=Engine):
        return stepper(SimulationConfig(
            radix=4,
            n_dims=2,
            algorithm=algorithm,
            offered_load=0.6,
            seed=5,
        ))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_memo_entries_resolve_into_live_fabric(self, algorithm):
        """Table entries name the fabric's own VC objects.

        An entry is a tuple of flat VC indices; resolved through the
        fabric's flat list, each must be the very object the fabric owns
        on a link leaving the entry's head node — in ``candidates()``
        order — so allocation through an entry mutates real network
        state.
        """
        engine = self._congested(algorithm)
        engine.run_cycles(800)
        entries = engine._table.entries
        assert entries, "memo never engaged"
        channels = engine._channels
        vcs = engine._vcs
        num_vcs = engine.fabric.num_vcs
        for (node, dst, key), flats in entries.items():
            assert node != dst
            for flat in flats:
                vc = vcs[flat]
                assert divmod(flat, num_vcs) == (vc.link.index, vc.vc_class)
                assert channels[vc.link.index] is vc.channel
                assert vc.channel.vcs[vc.vc_class] is vc
                assert vc.link.src == node
        # Spot-check values and order against the engine's own algorithm
        # (the table computed them with its own instance).
        algo = engine.algorithm
        for src in range(0, engine.topology.num_nodes, 5):
            dst = (src + 6) % engine.topology.num_nodes
            state = algo.new_state(src, dst)
            flats = entries.get((src, dst, algo.state_key(state)))
            if flats is not None:
                assert list(flats) == [
                    link.index * num_vcs + vc_class
                    for link, vc_class in algo.candidates(state, src, dst)
                ]

    def test_memo_disabled_is_schedule_invisible(self):
        """state_key -> None (memo off) must not change the schedule,
        and must intern nothing."""
        plain = self._congested("phop")
        plain.run_cycles(600)
        unmemoized = self._congested("phop")
        unmemoized.algorithm.state_key = lambda state: None  # type: ignore
        interned = len(unmemoized._table.entries)
        unmemoized.run_cycles(600)
        assert len(unmemoized._table.entries) == interned
        assert (
            plain.state_fingerprint() == unmemoized.state_fingerprint()
        )

    def test_memo_only_engages_for_active_scheduler(self, monkeypatch):
        """The scan stepper is the reference: it never consults the
        table, neither to read nor to fill it."""
        engine = self._congested("phop", stepper=ScanEngine)

        class _Untouchable(dict):
            def get(self, *args):  # pragma: no cover - failure path
                raise AssertionError("scan stepper probed the table")

        engine._route_entries = _Untouchable()
        monkeypatch.setattr(
            engine._table, "intern",
            lambda *args: pytest.fail("scan stepper filled the table"),
        )
        interned = len(engine._table.entries)
        engine.run_cycles(400)
        assert engine.delivered_total > 0
        assert len(engine._table.entries) == interned


class TestSchedulerConfig:
    """No config value selects a stepper: the reference is built by
    name."""

    TINY = dict(
        radix=4, n_dims=2, algorithm="nbc", offered_load=0.5, seed=13,
        warmup_cycles=200, sample_cycles=150, gap_cycles=30,
        min_samples=2, max_samples=3,
    )

    def test_rejects_unknown_scheduler(self):
        """The field is gone, so every value of it is unknown — the two
        it used to accept included."""
        for value in ("bogus", "scan", "active"):
            with pytest.raises(TypeError):
                SimulationConfig(scheduler=value)

    def test_reference_runs_a_whole_point(self):
        """The reference is passed in by name; run_point drives it like
        any engine and reports the same point."""
        from repro.experiments.runner import run_point

        config = SimulationConfig(**self.TINY)
        fast = run_point(config)
        # (SimulationResult equality leaves wall_seconds out.)
        assert fast == run_point(config, engine=ScanEngine(config))
        assert fast.samples_used >= 2 and fast.messages_delivered > 0

    def test_no_source_module_reads_the_scheduler_field(self):
        """Nothing reads a ``.scheduler`` attribute; campaign identity
        spells the address component as a literal."""
        import ast
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        readers = sorted(
            path.relative_to(root).as_posix()
            for path in root.rglob("*.py")
            if any(
                isinstance(node, ast.Attribute) and node.attr == "scheduler"
                for node in ast.walk(ast.parse(path.read_text()))
            )
        )
        assert readers == []

    def _congested(self, stepper):
        return stepper(SimulationConfig(**{**self.TINY, "offered_load": 0.9}))

    def test_scan_engine_uses_fifo_queue(self):
        """The reference re-polls one FIFO queue: nothing ever parks, and
        the container the depth probe reads holds every waiting message."""
        engine = self._congested(ScanEngine)
        deepest = 0
        for _ in range(300):
            engine.step()
            assert not engine._parked and not engine._route_heap
            waiting = engine._waiting_messages()
            assert len(engine._route_pending) == len(waiting)
            deepest = max(deepest, len(waiting))
        assert deepest > 1

    def test_active_engine_uses_heap_and_parking(self):
        """Engine's waiting set is its heap plus the parked messages, in
        the reference's FIFO order, and congestion does park some."""
        scan, active = self._congested(ScanEngine), self._congested(Engine)
        most_parked = 0
        for _ in range(300):
            scan.step()
            active.step()
            waiting = [m.msg_id for m in active._waiting_messages()]
            assert waiting == [m.msg_id for m in scan._waiting_messages()]
            assert len(waiting) == (
                len(active._route_pending) + len(active._parked)
            )
            most_parked = max(most_parked, len(active._parked))
        assert most_parked > 1

    def test_observer_selects_no_scheduling(self):
        """An observed engine is the program an unobserved one runs: same
        state, same transmit polls, same parked set on every cycle."""
        from repro.obs.observer import Observer

        plain, observed = self._congested(Engine), self._congested(Engine)
        observed.attach_observer(Observer())
        most_parked = 0
        for _ in range(300):
            plain.step()
            observed.step()
            assert plain.state_fingerprint() == observed.state_fingerprint()
            assert plain.polls_total == observed.polls_total
            assert list(plain._parked) == list(observed._parked)
            most_parked = max(most_parked, len(observed._parked))
        assert most_parked > 1

    def test_mid_run_observer_charges_its_own_window_only(self):
        """Attached while messages are parked and detached 100 cycles
        later, the observer books what the reference's observer books
        over the same window: nothing from before the attach cycle, and
        the episodes still open at detach up to the detach cycle."""
        from repro.obs.observer import ObsConfig, Observer

        scan, engine = self._congested(ScanEngine), self._congested(Engine)
        for _ in range(2_000):  # 31 steps at this seed
            if engine._parked and any(
                message.cached_candidates is not None
                for _, message in engine._route_heap
            ):
                break
            # Both kinds of open episode: parked, and woken but unserved.
            scan.step()
            engine.step()
        else:
            pytest.fail("no parked and woken-but-unserved messages at once")
        observers = []
        for stepper in (scan, engine):
            observers.append(
                Observer(ObsConfig(stride=8, trace_limit=10**6))
            )
            stepper.attach_observer(observers[-1])
        assert engine._parked  # attaching returned nothing to the heap
        for stepper in (scan, engine):
            stepper.run_cycles(100)
        assert engine._parked
        books = [observed_books(stepper) for stepper in (scan, engine)]
        assert books[0] == books[1]
        assert books[0][2]["msg_blocked"] > 100
        for stepper, observer in zip((scan, engine), observers):
            assert stepper.detach_observer() is observer
            # The phase timers went with it.
            assert "_route" not in vars(stepper)
        for stepper in (scan, engine):
            stepper.run_cycles(100)
        after = [
            (
                observer.metrics_summary()["last_cycle"],
                observer.heatmap.blocked,
                observer.heatmap.carried,
                observer.event_counts,
            )
            for observer in observers
        ]
        assert after[0] == after[1]
        assert after[1] == (engine.cycle - 100, *books[1][:3])
