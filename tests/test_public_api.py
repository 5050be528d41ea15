"""The public API surface: imports, quickstart, and __all__ hygiene."""

from __future__ import annotations

import dataclasses
import importlib
import inspect

import pytest

import repro
from repro.analysis import score
from repro.analysis.flow.escape import escape_findings
from repro.analysis.flow.taint import exactness_findings, nondeterminism_findings
from repro.baselines import RetryingPolicy, RotaAdmission
from repro.computation.interaction import request_reply
from repro.decision import AdmissionController
from repro.encapsulation import (
    Enclave,
    EnclaveAdmission,
    search_for_admission,
    value_threshold,
)
from repro.faults import FaultPlan, PartitionPlan, RecoveryPolicy
from repro.resources import ResourceSet
from repro.service import ServiceConfig
from repro.system import OpenSystemSimulator, ReservationPolicy
from repro.system.channel import LinkConfig, MessageChannel
from repro.workloads import (
    oracle_instance,
    partitioned_mesh_stream,
    pipeline_scenario,
    poisson_arrivals,
    random_requirement,
    stalled_enclave_stream,
    volunteer_scenario,
)


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
    LinkConfig: ("delay", "jitter", "loss"),
    MessageChannel.rpc: (
        "key", "deadline", "timeout", "backoff", "max_attempts",
    ),
    partitioned_mesh_stream: ("children", "horizon", "deadline_slack"),
    stalled_enclave_stream: ("nodes", "horizon"),
    random_requirement: ("start", "max_phases", "max_quantity", "max_duration"),
    poisson_arrivals: ("rate", "horizon"),
    oracle_instance: ("max_actors", "max_phases", "horizon"),
    volunteer_scenario: ("nodes", "horizon", "session_rate"),
    pipeline_scenario: (),
    EnclaveAdmission.__init__: (),
    search_for_admission: ("value", "commit"),
    value_threshold: (),
    score: (),
    ReservationPolicy.__init__: (),
    RetryingPolicy.__init__: (),
    request_reply: ("window", "max_delay", "label"),
    escape_findings: (),
    nondeterminism_findings: (),
    exactness_findings: (),
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
        (LinkConfig, "duplicate"),
        (lambda **kw: MessageChannel.rpc(None, **kw), "payload"),
        *[(partitioned_mesh_stream, option) for option in (
            "node_rate", "lease_joins_at", "lease_rate", "max_quantity",
        )],
        *[(stalled_enclave_stream, option) for option in (
            "stalled_node", "stall_window", "joins_at", "node_rate",
            "deadline_slack",
        )],
        *[(lambda **kw: random_requirement(None, (), **kw), option)
          for option in ("min_duration", "multi_type_phase_prob", "label")],
        (lambda **kw: poisson_arrivals(None, **kw), "start"),
        (lambda **kw: oracle_instance(None, (), **kw), "max_rate"),
        (volunteer_scenario, "arrival_rate"),
        *[(pipeline_scenario, option) for option in (
            "horizon", "arrival_rate", "tightness",
        )],
        (lambda **kw: EnclaveAdmission(None, **kw), "router"),
        (lambda **kw: search_for_admission(None, None, **kw), "probe_cost"),
        (lambda **kw: value_threshold(None, None, **kw), "probe_cost"),
        (lambda **kw: score(None, **kw), "offered_total"),
        (ReservationPolicy, "reservations"),
        *[(lambda **kw: RetryingPolicy(None, **kw), option)
          for option in ("max_retries", "backoff")],
        (lambda **kw: request_reply((), (), **kw), "min_delay"),
        (lambda **kw: escape_findings(None, **kw), "scope"),
        (lambda **kw: nondeterminism_findings(None, **kw), "sink_modules"),
        (lambda **kw: exactness_findings(None, **kw), "sink_modules"),
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
