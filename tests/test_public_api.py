"""The public API surface: imports, quickstart, and __all__ hygiene."""

from __future__ import annotations

import importlib

import pytest

import repro


class TestSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.intervals",
            "repro.resources",
            "repro.computation",
            "repro.logic",
            "repro.decision",
            "repro.baselines",
            "repro.system",
            "repro.workloads",
            "repro.analysis",
            "repro.service",
            "repro.faults",
            "repro.encapsulation",
            "repro.observability",
        ],
    )
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"


class TestQuickstart:
    def test_module_docstring_example(self):
        """The example in repro.__doc__ must actually work."""
        cluster = repro.ResourceSet.of(repro.term(5, repro.cpu("l1"), 0, 10))
        job = repro.ComplexRequirement(
            [repro.Demands({repro.cpu("l1"): 30})],
            repro.Interval(0, 8),
            label="job",
        )
        controller = repro.AdmissionController(cluster)
        decision = controller.admit(job)
        assert decision.admitted

    def test_readme_flow(self):
        """Build resources -> describe computation -> ask the question."""
        l1 = repro.Node("l1")
        actor = repro.Actor("worker", l1, (repro.Evaluate("fft", work=3),))
        computation = repro.sequential(actor, 0, 6, name="fft-job")
        model = repro.RotaModel(
            repro.ResourceSet.of(repro.term(5, repro.cpu(l1), 0, 6))
        )
        assert model.meets_deadline(computation) is not None
