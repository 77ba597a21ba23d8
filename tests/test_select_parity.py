"""Engine._select against its specification, rng draws included.

``Engine._select`` is the only scalar selector in the tree (the batch
backend selects with array kernels over its own streams).  Bit-identity
of object runs across schedulers, job counts and commits rests on one
local contract: for a given candidate set, occupancy and channel loads,
the selector picks the member of the final filtered set (free
candidates under "random", tied-for-least-multiplexed under
"least_multiplexed") that the stream's draw names AND consumes the
random stream exactly so — a ``randrange`` fires exactly when that set
has more than one entry, and never otherwise.

Hypothesis fuzzes synthetic candidate sets through the selector and a
list-based reference side by side.  Candidates are flat VC indices,
resolved through the engine's flat VC list; the stubs mirror exactly the
attributes the selector reads (``vc.owner`` /
``vc.channel.owned_count``), so the test pins the contract without
building networks.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.engine import Engine


class _RecordingRandom(random.Random):
    """random.Random that logs every randrange(n) argument."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = []

    def randrange(self, *args, **kwargs):  # noqa: D102
        self.calls.append(args)
        return super().randrange(*args, **kwargs)


class _ChannelStub:
    __slots__ = ("owned_count",)

    def __init__(self, owned_count):
        self.owned_count = owned_count


class _VCStub:
    __slots__ = ("owner", "channel")

    def __init__(self, occupied, owned_count):
        self.owner = object() if occupied else None
        self.channel = _ChannelStub(owned_count)


class _ScratchStub:
    """Just what the selector reads of its engine: the flat VC list and
    the two scratch lists it reuses."""

    def __init__(self, vcs):
        self._vcs = vcs
        self._free_scratch = []
        self._best_scratch = []


# One fuzzed candidate: occupied? + owned_count of its channel.
_candidate = st.tuples(
    st.booleans(), st.integers(min_value=0, max_value=4)
)
_cases = st.tuples(
    st.lists(_candidate, min_size=1, max_size=6),
    st.sampled_from(["first", "random", "least_multiplexed"]),
    st.integers(min_value=0, max_value=2**16),
)


def _final_set(entries, policy):
    """Indices of the candidates the selector tiebreaks over."""
    free = [i for i, (occupied, _) in enumerate(entries) if not occupied]
    if not free or policy == "random":
        return free
    if policy == "first":
        return free[:1]
    best_load = min(entries[i][1] for i in free)
    return [i for i in free if entries[i][1] == best_load]


@given(case=_cases)
@settings(max_examples=300, deadline=None)
def test_select_parity_and_rng_contract(case):
    entries, policy, seed = case

    # Object-engine view: one VC (on its own channel) per candidate,
    # named by its index in a flat list that also holds bystanders, in
    # an order other than the list's.
    vcs = [_VCStub(True, 0)] + [
        _VCStub(occupied, load) for occupied, load in reversed(entries)
    ]
    flats = list(range(len(entries), 0, -1))
    object_candidates = [vcs[flat] for flat in flats]
    rng_object = _RecordingRandom(seed)
    rng_reference = random.Random(seed)
    picked_object = Engine._select(
        _ScratchStub(vcs), flats, policy, rng_object
    )

    # Same decision as the reference: the draw indexes the final set.
    final = _final_set(entries, policy)
    if not final:
        assert picked_object is None
    else:
        expected = (
            final[0] if len(final) == 1
            else final[rng_reference.randrange(len(final))]
        )
        assert object_candidates.index(picked_object) == expected

    # The draw-iff-ambiguous contract: randrange fires exactly when the
    # final filtered set holds >= 2 candidates.  A single-candidate
    # request never draws, whatever the policy.
    expected_calls = [(len(final),)] if len(final) > 1 else []
    assert rng_object.calls == expected_calls


@given(
    occupied=st.booleans(),
    policy=st.sampled_from(["first", "random", "least_multiplexed"]),
)
@settings(max_examples=20, deadline=None)
def test_single_candidate_never_draws(occupied, policy):
    """The len==1 early-out bypasses the rng."""
    rng_object = _RecordingRandom(7)
    picked_object = Engine._select(
        _ScratchStub([_VCStub(occupied, 0)]), [0], policy, rng_object
    )
    assert (picked_object is None) == occupied
    assert rng_object.calls == []
