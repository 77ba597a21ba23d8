"""Unit tests for the utility layer: RNG streams, validation, errors."""

import pytest

from repro.util.errors import (
    ConfigurationError,
    DeadlockError,
    ReproError,
    RoutingError,
    TopologyError,
)
from repro.util.rng import RngStreams
from repro.util.validation import (
    require,
    require_non_negative,
    require_positive,
    require_probability,
    require_type,
)


class TestRngStreams:
    def test_streams_are_independent(self):
        streams = RngStreams(1)
        a = [streams.stream("a").random() for _ in range(5)]
        b = [streams.stream("b").random() for _ in range(5)]
        assert a != b

    def test_same_name_same_stream_object(self):
        streams = RngStreams(1)
        assert streams.stream("x") is streams.stream("x")

    def test_reproducible_across_instances(self):
        first = RngStreams(7).stream("arrivals").random()
        second = RngStreams(7).stream("arrivals").random()
        assert first == second

    def test_different_seeds_differ(self):
        assert (
            RngStreams(1).stream("a").random()
            != RngStreams(2).stream("a").random()
        )

    def test_advance_epoch_changes_sequences(self):
        streams = RngStreams(3)
        before = streams.stream("a").random()
        streams.advance_epoch()
        after = streams.stream("a").random()
        # Fresh stream, fresh sequence (and deterministic given the epoch).
        assert streams.epoch == 1
        repeat = RngStreams(3)
        repeat.stream("a").random()
        repeat.advance_epoch()
        assert repeat.stream("a").random() == after
        assert before != after

    def test_rejects_non_int_seed(self):
        with pytest.raises(ConfigurationError):
            RngStreams("seed")  # type: ignore[arg-type]


class TestValidation:
    def test_require_passes_and_fails(self):
        require(True, "fine")
        with pytest.raises(ConfigurationError, match="broken"):
            require(False, "broken")

    def test_require_positive(self):
        require_positive(1, "x")
        require_positive(0.5, "x")
        for bad in (0, -1):
            with pytest.raises(ConfigurationError):
                require_positive(bad, "x")

    def test_require_non_negative(self):
        require_non_negative(0, "x")
        with pytest.raises(ConfigurationError):
            require_non_negative(-0.01, "x")

    def test_require_probability(self):
        require_probability(0.0, "p")
        require_probability(1.0, "p")
        with pytest.raises(ConfigurationError):
            require_probability(1.01, "p")

    def test_require_type_rejects_bool_as_int(self):
        require_type(3, int, "n")
        with pytest.raises(ConfigurationError, match="bool"):
            require_type(True, int, "n")

    def test_require_type_message_names_expected(self):
        with pytest.raises(ConfigurationError, match="must be str"):
            require_type(3, str, "name")


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc", [ConfigurationError, TopologyError, RoutingError, DeadlockError]
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")
