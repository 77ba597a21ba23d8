"""Unit tests for the input-buffer-limit congestion control."""

import pytest

from repro.simulator.injection import InjectionController


class TestAdmission:
    def test_admits_up_to_limit(self):
        controller = InjectionController(limit=2)
        assert controller.try_admit(0, "a")
        assert controller.try_admit(0, "a")
        assert not controller.try_admit(0, "a")

    def test_classes_are_independent(self):
        controller = InjectionController(limit=1)
        assert controller.try_admit(0, "a")
        assert controller.try_admit(0, "b")

    def test_nodes_are_independent(self):
        controller = InjectionController(limit=1)
        assert controller.try_admit(0, "a")
        assert controller.try_admit(1, "a")

    def test_completion_frees_slot(self):
        controller = InjectionController(limit=1)
        assert controller.try_admit(0, "a")
        controller.injection_complete(0, "a")
        assert controller.try_admit(0, "a")

    def test_unlimited_when_disabled(self):
        controller = InjectionController(limit=None)
        for _ in range(100):
            assert controller.try_admit(0, "a")

    def test_completion_without_admission_asserts(self):
        controller = InjectionController(limit=1)
        with pytest.raises(AssertionError):
            controller.injection_complete(0, "a")


class TestCounters:
    def test_counts_admissions_and_refusals(self):
        controller = InjectionController(limit=1)
        controller.try_admit(0, "a")
        controller.try_admit(0, "a")
        controller.try_admit(0, "a")
        assert controller.admitted == 1
        assert controller.refused == 2

    def test_outstanding(self):
        controller = InjectionController(limit=3)
        controller.try_admit(5, "x")
        controller.try_admit(5, "x")
        assert controller.outstanding(5, "x") == 2
        controller.injection_complete(5, "x")
        assert controller.outstanding(5, "x") == 1
