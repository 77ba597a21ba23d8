"""One differential harness: every execution path, one invariant set.

One hypothesis strategy draws valid ``SimulationConfig``s from the
registries, not from hand-listed values: the ``config._CHOICES`` fields
(switching, selection policy, flow control, mux policy, backend),
``ALGORITHM_NAMES``, ``available_patterns()`` and the campaign topology
axes (``TOPOLOGY_KINDS`` x radix), plus load, worm length, injection
limit, buffer depth and seed.  A draw becomes a one-point
``CampaignSpec``; what its ``check_buildable`` pre-flight refuses, or a
buffer too short for a packet, is rejected.  The batch test draws the
same way, restricted to the choice combinations the batch backend's
config accepts.

Every drawn config is held to:

* **Engine = ScanEngine** — state fingerprints equal every
  ``CHECK_EVERY`` cycles;
* **observers and sampling change nothing** — an observed and a sampled
  ``Engine`` keep the plain one's full fingerprint;
* **both steppers observe alike** — the observed books
  (:func:`tests.conftest.observed_books`) of ``Engine`` and
  ``ScanEngine`` are equal;
* **conservation**, on every engine and every batch lane;
* **the latency floor** — every delivery takes at least m_l + hops - 1
  cycles (hops * m_l under SAF);
* **exact zero-load latency** — a lone message injected at cycle 0 into
  an otherwise idle network (``offered_load=0``) crosses d hops in exactly
  m_l + d - 1 cycles (d * m_l under SAF), on both steppers;
* **no watchdog trip**, at a threshold (``DEADLOCK_THRESHOLD``) each run
  outlasts several times over;
* **batch composition-independence** — each lane of a group (sampled)
  has the fingerprint of its seed run alone (unsampled).

Examples are derandomized: the same configs every run, as a fixed-seed
sweep's were.  The pinned ``CONGESTED`` example proves the object paths
are exercised under blocking, not only at light load; pinned beside it,
the same point under conservative flow control.
"""

import dataclasses
import functools
import itertools

from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from repro.campaigns.spec import CampaignSpec, format_topology
from repro.routing.registry import ALGORITHM_NAMES
from repro.simulator.batch import BatchEngine
from repro.simulator.config import _CHOICES, BACKEND_IDENTITY, SimulationConfig
from repro.simulator.engine import Engine
from repro.simulator.reference import ScanEngine
from repro.topology import TOPOLOGY_KINDS
from repro.traffic.registry import available_patterns
from repro.util.errors import ConfigurationError
from tests.conftest import observed_books

#: Fingerprints are compared this often, not only at the end: a wrongly
#: skipped poll delays a flit by a cycle or two and the schedules can
#: re-converge long before a run's last cycle.
CHECK_EVERY = 16
#: Cycles per drawn object / batch run (multiples of CHECK_EVERY).
RUN_CYCLES = 320
BATCH_CYCLES = 192
#: A watchdog threshold the runs can reach: no flit moved and no channel
#: granted for this many cycles, with traffic in flight, fails the run.
DEADLOCK_THRESHOLD = 64
#: Radices of the topology axis: odd, where parity-bound algorithms and
#: patterns refuse to build, and two even ones of different diameter.
RADICES = (3, 4, 6)
#: Observer options: fine probes and a trace that never drops.
OBS_OPTIONS = {"stride": 8, "trace_limit": 10**6}


@functools.lru_cache(maxsize=None)
def _choice_sets(backend):
    """Every combination of the ``_CHOICES`` fields *backend* accepts."""
    names = [name for name, _ in _CHOICES]
    accepted = []
    for values in itertools.product(*(choices for _, choices in _CHOICES)):
        options = dict(zip(names, values))
        if options["backend"] != backend:
            continue
        try:
            SimulationConfig(**options, identity=BACKEND_IDENTITY[backend])
        except ConfigurationError:
            continue
        accepted.append(options)
    return accepted


@st.composite
def configs(draw, backend="object"):
    """A valid config on *backend* that its campaign pre-flight builds."""
    spec = CampaignSpec(
        name="drawn",
        algorithms=(draw(st.sampled_from(ALGORITHM_NAMES)),),
        loads=(draw(st.integers(1, 18)) / 20,),
        seeds=(draw(st.integers(0, 2**16)),),
        topologies=(
            format_topology(
                draw(st.sampled_from(TOPOLOGY_KINDS)),
                draw(st.sampled_from(RADICES)),
                2,
            ),
        ),
        traffics=(draw(st.sampled_from(available_patterns())),),
        base={
            **draw(st.sampled_from(_choice_sets(backend))),
            "message_length": draw(st.integers(1, 12)),
            "injection_limit": draw(st.none() | st.integers(1, 3)),
            "vc_buffer_depth": draw(st.none() | st.integers(1, 4)),
            "deadlock_threshold": DEADLOCK_THRESHOLD,
        },
    )
    try:
        spec.check_buildable()
        (config,) = spec.expand()
        config.effective_buffer_depth()  # VCT/SAF hold a whole packet
    except ConfigurationError:
        reject()
    return config


def _floor(config, hops):
    """The fewest cycles a worm can take over *hops* hops."""
    length = config.message_length
    if config.switching == "saf":
        return hops * length
    return length + hops - 1


def _assert_latency_floor(config, deliveries):
    for latency, hops in deliveries:
        assert hops >= 1 and latency >= _floor(config, hops), (
            latency, hops, config
        )


def _assert_zero_load_latency(config, route):
    """A lone message meets the floor exactly, on both steppers."""
    topology = config.build_topology()
    num_nodes = topology.num_nodes
    src = route[0] % num_nodes
    dst = (src + 1 + route[1] % (num_nodes - 1)) % num_nodes
    hops = topology.distance(src, dst)
    expected = _floor(config, hops)
    idle = dataclasses.replace(config, offered_load=0.0)
    for stepper in (Engine, ScanEngine):
        engine = stepper(idle)
        engine.start_sample()
        assert engine._inject(src, dst), f"{stepper.__name__}: {idle}"
        engine.run_cycles(expected + 1)
        assert engine.end_sample().deliveries == [(expected, hops)], (
            f"{stepper.__name__}: {src}->{dst}: {config}"
        )


def _assert_object_invariants(config):
    """Hold four engines to one another; return the observed books."""
    observed = dataclasses.replace(config, obs=True, obs_options=OBS_OPTIONS)
    plain = Engine(config)
    others = {
        "sampled Engine": Engine(config),
        "observed Engine": Engine(observed),
        "observed ScanEngine": ScanEngine(observed),
    }
    sampled = others["sampled Engine"]
    sampled.start_sample()
    for cycle in range(CHECK_EVERY, RUN_CYCLES + 1, CHECK_EVERY):
        # A watchdog trip raises DeadlockError out of run_cycles.
        plain.run_cycles(CHECK_EVERY)
        expected = plain.state_fingerprint()
        for name, engine in others.items():
            engine.run_cycles(CHECK_EVERY)
            assert engine.state_fingerprint() == expected, (
                f"{name} left the plain Engine by cycle {cycle}: {config}"
            )
    for engine in (plain, *others.values()):
        assert engine.conservation_check()
    _assert_latency_floor(config, sampled.end_sample().deliveries)
    books = observed_books(others["observed Engine"])
    assert books == observed_books(others["observed ScanEngine"]), config
    return books


#: Pinned: congested enough that blocking, parking and waking dominate.
CONGESTED = SimulationConfig(
    radix=6,
    n_dims=2,
    algorithm="nbc",
    offered_load=0.9,
    message_length=12,
    injection_limit=None,
    deadlock_threshold=DEADLOCK_THRESHOLD,
    seed=3,
)


@settings(max_examples=50, deadline=None, derandomize=True)
@example(config=CONGESTED, route=(0, 20))
# Conservative flow control with several worms per channel, where a
# slot freed this cycle must not count: no drawn example reaches it.
@example(
    config=dataclasses.replace(CONGESTED, flow_control="conservative"),
    route=(0, 20),
)
@given(config=configs(), route=st.tuples(st.integers(0, 2**16),
                                         st.integers(0, 2**16)))
def test_object_paths_hold_the_invariants(config, route):
    books = _assert_object_invariants(config)
    _assert_zero_load_latency(config, route)
    if config == CONGESTED:
        assert books[2]["msg_blocked"] > 10_000  # the harness congests


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    config=configs("batch"),
    seeds=st.lists(st.integers(0, 2**16), min_size=2, max_size=3,
                   unique=True),
)
def test_batch_lanes_hold_the_invariants(config, seeds):
    group = BatchEngine(config, seeds)
    singles = [BatchEngine(config, [seed]) for seed in seeds]
    for index in range(len(seeds)):
        group.start_sample(index)
    for cycle in range(CHECK_EVERY, BATCH_CYCLES + 1, CHECK_EVERY):
        group.run_cycles(CHECK_EVERY)
        for index, single in enumerate(singles):
            single.run_cycles(CHECK_EVERY)
            assert group.state_fingerprint(index) == (
                single.state_fingerprint(0)
            ), f"lane {index} left its lone run by cycle {cycle}: {config}"
    assert group.lane_errors() == {}  # no watchdog trip
    for index in range(len(seeds)):
        assert group.conservation_check(index)
        _assert_latency_floor(config, group.end_sample(index).deliveries)
