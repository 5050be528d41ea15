"""The public API surface: imports, quickstart, and __all__ hygiene."""

from __future__ import annotations

import dataclasses
import importlib
import inspect

import pytest

import repro
from repro.baselines import RotaAdmission
from repro.decision import AdmissionController
from repro.encapsulation import Enclave
from repro.faults import FaultPlan, PartitionPlan, RecoveryPolicy
from repro.resources import ResourceSet
from repro.service import ServiceConfig
from repro.system import OpenSystemSimulator


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


#: Every settable option of the plan and config objects and the
#: simulator.  Adding a knob is a deliberate edit here: each one doubles
#: the configurations that tests and benchmarks must cover.
OPTION_SURFACE = {
    PartitionPlan: (
        "seed", "children", "partition_start", "partition_duration",
        "severed", "link_delay", "link_jitter", "link_loss", "lease_ttl",
        "renew_every", "horizon", "deadline_slack",
    ),
    ServiceConfig: (
        "max_queue", "shed_policy", "check_cost", "stall_cost",
        "brownout_enter", "brownout_exit", "brownout_latency",
        "breaker_failures", "breaker_probes", "backoff", "seed",
    ),
    FaultPlan: ("seed", "crash_rate", "revocation_rate", "straggler_rate"),
    RecoveryPolicy: ("max_attempts", "backoff"),
    OpenSystemSimulator.__init__: (
        "initial_resources", "allocation_policy", "dt", "recovery",
        "invariant_interval",
    ),
    OpenSystemSimulator.run: (
        "checkpoint_every", "checkpoint_dir", "journal", "journal_fsync",
    ),
    OpenSystemSimulator.resume: ("journal_fsync",),
    AdmissionController.__init__: ("now", "align"),
    AdmissionController.withdraw: (),
    Enclave.migrate: (),
}


def _options(target):
    if dataclasses.is_dataclass(target):
        return tuple(field.name for field in dataclasses.fields(target))
    return tuple(
        parameter.name
        for parameter in inspect.signature(target).parameters.values()
        if parameter.kind is parameter.KEYWORD_ONLY
    )


class TestOptionSurface:
    @pytest.mark.parametrize(
        "target", OPTION_SURFACE, ids=lambda target: target.__qualname__
    )
    def test_options_are_pinned(self, target):
        assert _options(target) == OPTION_SURFACE[target]

    @pytest.mark.parametrize("factory, option", [
        (lambda **kw: OpenSystemSimulator(RotaAdmission(), **kw),
         "start_time"),
        (RecoveryPolicy, "immediate_first_offer"),
        *[(PartitionPlan, option) for option in (
            "partition_name", "link_duplicate", "lease_rate",
            "lease_joins_at", "node_rate", "rpc_timeout", "rpc_attempts",
        )],
        *[(ServiceConfig, option) for option in (
            "screen_cost", "ewma_alpha", "slow_check_factor",
            "criticality_laxity",
        )],
        *[(FaultPlan, option) for option in (
            "straggler_factor", "min_early", "max_early",
        )],
        (lambda **kw: OpenSystemSimulator.resume("unused", **kw),
         "checkpoint_dir"),
        (AdmissionController, "slack_check_interval"),
        (lambda **kw: AdmissionController().withdraw("a", **kw), "now"),
        (lambda **kw: Enclave.root(ResourceSet.empty()).migrate(
            "a", Enclave.root(ResourceSet.empty()), **kw
        ), "now"),
    ])
    def test_removed_options_are_rejected(self, factory, option):
        with pytest.raises(TypeError, match=option):
            factory(**{option: 1})


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
