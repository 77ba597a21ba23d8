"""Unit tests for the SimulationResult container."""

import dataclasses

import pytest

from repro.stats.summary import SimulationResult


def make_result(**overrides):
    defaults = {
        "algorithm": "ecube",
        "traffic": "uniform",
        "offered_load": 0.4,
        "injection_rate": 0.01,
        "average_latency": 50.0,
        "latency_error_bound": 2.0,
        "average_wait": 10.0,
        "achieved_utilization": 0.3,
        "delivered_throughput": 0.29,
        "samples_used": 3,
        "converged": True,
        "cycles_simulated": 9000,
        "messages_generated": 900,
        "messages_delivered": 880,
        "messages_refused": 100,
    }
    defaults.update(overrides)
    return SimulationResult(**defaults)


class TestRefusalRate:
    def test_fraction_of_offered(self):
        result = make_result(messages_generated=900, messages_refused=100)
        assert result.refusal_rate == pytest.approx(0.1)

    def test_zero_when_nothing_offered(self):
        result = make_result(messages_generated=0, messages_refused=0)
        assert result.refusal_rate == 0.0

    def test_full_refusal(self):
        result = make_result(messages_generated=0, messages_refused=50)
        assert result.refusal_rate == 1.0


class TestSerialization:
    def test_to_dict_has_core_metrics(self):
        row = make_result().to_dict()
        for key in (
            "algorithm",
            "traffic",
            "offered_load",
            "average_latency",
            "achieved_utilization",
            "converged",
            "refusal_rate",
        ):
            assert key in row

    def test_to_dict_values_are_plain(self):
        for value in make_result().to_dict().values():
            assert isinstance(value, (str, int, float, bool))

    def test_str_mentions_convergence_state(self):
        assert "NOT converged" in str(make_result(converged=False))
        assert "NOT" not in str(make_result(converged=True))


class TestOptionalFields:
    def test_defaults_empty(self):
        result = make_result()
        assert result.latency_percentiles == {}
        assert result.hop_class_latency == {}
        assert result.vc_class_usage == []
        assert result.notes is None


class TestSerializerCoverage:
    """Reflective guard: serializers must track the dataclass.

    Adding a field to SimulationResult without exporting it silently
    drops data from CSV tables and checkpoints.  These tests enumerate
    the fields with dataclasses.fields() so they fail the moment a new
    field is neither exported nor added to SERIALIZE_EXCLUDE — the
    contract tests/test_serializer_fields.py holds every dataclass's
    to_dict to statically.  A dropped field also fails the export's
    byte pin (test_campaign_export_golden.py::
    test_library_export_matches_the_recorded_bytes, which runs first).
    """

    #: Fields that to_dict() flattens into differently-named columns.
    FLATTENED = {
        "latency_percentiles": {"latency_p50", "latency_p95", "latency_p99"},
    }

    def test_to_dict_covers_every_field_modulo_exclusions(self):
        row = make_result().to_dict()
        for spec in dataclasses.fields(SimulationResult):
            if spec.name in SimulationResult.SERIALIZE_EXCLUDE:
                assert spec.name not in row, (
                    f"{spec.name} is excluded but still exported"
                )
                continue
            expected = self.FLATTENED.get(spec.name, {spec.name})
            missing = expected - set(row)
            assert not missing, (
                f"field {spec.name!r} missing from to_dict(): {missing}; "
                "export it or add it to SERIALIZE_EXCLUDE"
            )

    def test_to_json_dict_covers_every_field(self):
        data = make_result().to_json_dict()
        names = {spec.name for spec in dataclasses.fields(SimulationResult)}
        assert set(data) == names

    def test_exclusions_name_real_fields(self):
        names = {spec.name for spec in dataclasses.fields(SimulationResult)}
        stale = SimulationResult.SERIALIZE_EXCLUDE - names
        assert not stale, f"SERIALIZE_EXCLUDE names unknown fields: {stale}"
