"""Command-line interface: ``python -m repro``.

Three subcommands cover the library's everyday uses without writing code:

* ``scenario`` — run a named scenario under one or all admission policies
  and print the comparison table::

      python -m repro scenario pipeline --seed 3
      python -m repro scenario cloud --policy rota

  Fault-injection flags run the faulty variant (see :mod:`repro.faults`)::

      python -m repro scenario volunteer --crash-rate 0.05 \\
          --revocation-rate 0.3 --fault-seed 7 --recover

* ``check`` — one-shot feasibility: read a JSON document holding a
  resource set and a requirement (the wire format of
  :mod:`repro.serialization`), print the verdict and witness::

      python -m repro check request.json

* ``table1`` — print the reproduced Table I (interval relations).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import Sequence

from repro.analysis import policy_table, score
from repro.baselines import ALL_POLICIES, RotaAdmission
from repro.decision import AdmissionController
from repro.errors import (
    AdmissionConfigError,
    CheckpointError,
    FaultInjectionError,
    ServiceConfigError,
)
from repro.serialization import (
    requirement_from_wire,
    resource_set_from_wire,
    schedule_to_wire,
)
from repro.service import SHED_POLICIES
from repro.system import OpenSystemSimulator, ReservationPolicy
from repro.workloads import cloud_scenario, pipeline_scenario, volunteer_scenario

SCENARIOS = {
    "cloud": cloud_scenario,
    "pipeline": pipeline_scenario,
    "volunteer": volunteer_scenario,
}


def _unit_rate(text: str) -> float:
    """Argparse type for probabilities/rates constrained to ``[0, 1]``."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be in [0, 1], got {text!r}"
        )
    return value


def _nonnegative_int(text: str) -> int:
    """Argparse type for seeds and counters that must be ``>= 0``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """Argparse type for durations that must be ``>= 1``."""
    value = _nonnegative_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value


def _partition_window(text: str) -> tuple[int, int]:
    """Argparse type for ``--partition-plan START:DURATION``."""
    head, sep, tail = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"expected START:DURATION (e.g. 18:10), got {text!r}"
        )
    try:
        start, duration = int(head), int(tail)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"START and DURATION must be integers, got {text!r}"
        )
    if start < 0 or duration < 0:
        raise argparse.ArgumentTypeError(
            f"START and DURATION must be >= 0, got {text!r}"
        )
    return start, duration


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ROTA: deadline assurance for open distributed systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scenario = sub.add_parser("scenario", help="run a named scenario")
    scenario.add_argument("name", choices=sorted([*SCENARIOS, "mesh"]))
    scenario.add_argument("--seed", type=int, default=None)
    scenario.add_argument(
        "--policy",
        choices=["all", *(cls.name for cls in ALL_POLICIES)],
        default="all",
    )
    faults = scenario.add_argument_group(
        "fault injection", "run the scenario's faulty variant (repro.faults)"
    )
    faults.add_argument(
        "--crash-rate", type=_unit_rate, default=None,
        help="Poisson rate of unannounced node crashes per time unit",
    )
    faults.add_argument(
        "--revocation-rate", type=_unit_rate, default=None,
        help="per-session probability of early capacity revocation",
    )
    faults.add_argument(
        "--straggler-rate", type=_unit_rate, default=None,
        help="Poisson rate of rate-degradation (straggler) faults",
    )
    faults.add_argument(
        "--fault-seed", type=_nonnegative_int, default=None,
        help="seed of the deterministic fault plan",
    )
    faults.add_argument(
        "--recover", action="store_true",
        help="route promise-violation victims through the recovery "
        "pipeline (re-admission with capped exponential backoff)",
    )
    durability = scenario.add_argument_group(
        "durability",
        "crash-consistent checkpoints and write-ahead journaling "
        "(repro.system.checkpoint)",
    )
    durability.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="write checkpoints and a journal under DIR/<policy>/",
    )
    durability.add_argument(
        "--checkpoint-every", type=_nonnegative_int, default=25,
        metavar="N",
        help="snapshot every N applied events (default: 25; "
        "requires --checkpoint-dir)",
    )
    durability.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted run from the latest checkpoint in "
        "--checkpoint-dir/<policy>/ instead of starting fresh "
        "(requires a single explicit --policy; the scenario, fault plan "
        "and recovery come from the checkpoint)",
    )
    _add_front_door_flags(scenario)
    _add_network_flags(scenario)
    _add_metrics_flags(scenario)

    check = sub.add_parser("check", help="one-shot admission check from JSON")
    check.add_argument(
        "request",
        help="path to a JSON file with {'resources': ..., 'requirement': ...}"
        " in the repro.serialization wire format ('-' for stdin)",
    )
    check.add_argument(
        "--align", type=int, default=None,
        help="round witness breakpoints up to this time grid",
    )
    check.add_argument(
        "--lint", action="store_true",
        help="screen the request with the repro-lint spec rules before "
        "admission; errors block the check (exit 1), warnings print to "
        "stderr and the check proceeds",
    )

    sub.add_parser("table1", help="print the reproduced Table I")

    replay = sub.add_parser(
        "replay", help="replay a recorded event trace through a policy"
    )
    replay.add_argument("trace", help="JSONL event trace (see repro.workloads.persistence)")
    replay.add_argument(
        "--resources",
        default=None,
        help="JSON file with the initial resource set (wire format); "
        "default: empty (resources must join via trace events)",
    )
    replay.add_argument("--horizon", type=float, required=True)
    replay.add_argument(
        "--policy",
        choices=[cls.name for cls in ALL_POLICIES],
        default="rota",
    )
    _add_front_door_flags(replay)
    _add_network_flags(replay)
    _add_metrics_flags(replay)
    return parser


def _add_network_flags(parser: argparse.ArgumentParser) -> None:
    net = parser.add_argument_group(
        "unreliable network",
        "partition/loss fault model over the enclave mesh "
        "(repro.faults.netfaults): message passing on the virtual clock, "
        "lease-backed capacity grants, degraded autonomy under partition",
    )
    net.add_argument(
        "--partition-plan", type=_partition_window, default=None,
        metavar="START:DURATION",
        help="sever the door<->n1 link for DURATION ticks starting at "
        "START (scenario: requires the 'mesh' scenario; replay: runs the "
        "trace through the mesh policy's channel)",
    )
    net.add_argument(
        "--link-delay", type=_nonnegative_int, default=None, metavar="TICKS",
        help="base one-way delay of every mesh link (default: 0; "
        "requires the mesh)",
    )
    net.add_argument(
        "--link-loss", type=_unit_rate, default=None, metavar="P",
        help="per-message loss probability on every mesh link "
        "(default: 0; requires the mesh)",
    )
    net.add_argument(
        "--link-jitter", type=_nonnegative_int, default=None,
        metavar="TICKS",
        help="extra per-message delay drawn uniformly from {0..TICKS} "
        "on every mesh link; reordering is emergent (default: 0; "
        "requires the mesh)",
    )
    net.add_argument(
        "--lease-ttl", type=_positive_int, default=None, metavar="TICKS",
        help="time-to-live of leased capacity grants; unrenewable leases "
        "expire conservatively under partition (default: 6; requires "
        "the mesh)",
    )
    net.add_argument(
        "--network-seed", type=_nonnegative_int, default=None, metavar="N",
        help="seed of the channel's message-fate draws; pass the original "
        "run's seed to replay its exact loss/jitter pattern "
        "(default: --seed where available, else 0)",
    )


def _add_front_door_flags(parser: argparse.ArgumentParser) -> None:
    door = parser.add_argument_group(
        "overload protection",
        "deadline-aware admission front door (repro.service): bounded "
        "queues, load shedding, per-enclave circuit breakers, brownout",
    )
    door.add_argument(
        "--front-door", action="store_true",
        help="run the policy behind the admission front door "
        "(bounded queues + deadline-aware shedding) and print the "
        "shed/breaker/brownout summary",
    )
    door.add_argument(
        "--max-queue", type=_nonnegative_int, default=None, metavar="N",
        help="per-enclave queue bound; arrivals beyond it are shed "
        "(default: 64; requires --front-door)",
    )
    door.add_argument(
        "--shed-policy", choices=SHED_POLICIES, default=None,
        help="what to shed when queues fill: 'deadline' drops requests "
        "whose slack cannot survive the estimated wait, 'tail-drop' "
        "drops newest arrivals (default: deadline; requires --front-door)",
    )
    door.add_argument(
        "--brownout-threshold", type=_nonnegative_int, default=None,
        metavar="DEPTH",
        help="total queue depth at which the door degrades low-criticality "
        "requests to the conservative screen (default: 48; "
        "requires --front-door)",
    )


def _add_metrics_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "observability",
        "runtime metrics and span timings (repro.observability)",
    )
    group.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write a metrics snapshot (counters, histograms, span "
        "timing trees) to PATH after the run",
    )
    group.add_argument(
        "--metrics-format", choices=["jsonl", "prom"], default=None,
        help="metrics dump format: jsonl (lossless, spans included) or "
        "prom (Prometheus text exposition); default jsonl "
        "(requires --metrics-out)",
    )


def _flag_error(args: argparse.Namespace, *checks) -> bool:
    """Print the first flag-combination error of ``checks``, in order;
    True when there was one (a usage error: exit 2)."""
    for check in checks:
        error = check(args)
        if error is not None:
            print(f"error: {error}", file=sys.stderr)
            return True
    return False


def _check_metrics_flags(args: argparse.Namespace) -> str | None:
    """Flag-interaction validation shared by scenario and replay."""
    if args.metrics_format is not None and args.metrics_out is None:
        return (
            "--metrics-format selects the dump format for --metrics-out; "
            "pass --metrics-out PATH or drop --metrics-format"
        )
    return None


def _check_front_door_flags(args: argparse.Namespace) -> str | None:
    """Front-door tuning flags mean nothing without the front door.

    Shared by ``scenario`` and ``replay``; only ``scenario`` has
    ``--resume``, hence the ``getattr``."""
    tuned = [
        flag
        for flag, value in (
            ("--max-queue", args.max_queue),
            ("--shed-policy", args.shed_policy),
            ("--brownout-threshold", args.brownout_threshold),
        )
        if value is not None
    ]
    if tuned and not args.front_door:
        return (
            f"{'/'.join(tuned)} tune{'s' if len(tuned) == 1 else ''} the "
            "admission front door; pass --front-door to put policies "
            "behind it, or drop "
            f"{'the flag' if len(tuned) == 1 else 'the flags'}"
        )
    if args.front_door and getattr(args, "resume", False):
        return (
            "--resume restores the recorded policy (front door included) "
            "from the checkpoint; front-door flags shape fresh runs only"
        )
    return None


def _check_network_flags(args: argparse.Namespace) -> str | None:
    """Unreliable-network flag interactions, shared by scenario and replay.

    The mesh is its own closed world — one admission path (ROTA-exact
    enclaves over the channel), its own fault model (the network), its
    own recovery pipeline — so flags that would compose a second fault
    model or a second admission layer on top of it are refused."""
    tuned = _network_tuning(args)
    networked = bool(tuned) or args.partition_plan is not None
    is_mesh = getattr(args, "name", None) == "mesh"
    if is_mesh:
        if args.front_door:
            return (
                "--front-door layers a second admission path over the "
                "mesh's own enclave admission; drop one of the two"
            )
        if args.policy not in ("all", "rota"):
            return (
                "the mesh scenario runs the ROTA-exact enclave path; "
                f"--policy {args.policy} cannot drive it"
            )
        for flag, rate in (
            ("--crash-rate", args.crash_rate),
            ("--revocation-rate", args.revocation_rate),
            ("--straggler-rate", args.straggler_rate),
        ):
            if rate:
                return (
                    f"{flag} injects the unannounced fault model; the mesh "
                    "scenario's fault model is the network itself "
                    "(--partition-plan/--link-loss) — drop one of the two"
                )
        if args.resume and (tuned or args.partition_plan is not None):
            return (
                "--resume restores the recorded mesh plan from the "
                "checkpoint; network flags shape fresh runs only"
            )
        return None
    if networked and hasattr(args, "name"):
        offending = tuned or ["--partition-plan"]
        return (
            f"{'/'.join(offending)} shape{'s' if len(offending) == 1 else ''} "
            "the unreliable-network mesh; run `scenario mesh`, or drop "
            f"{'the flag' if len(offending) == 1 else 'the flags'}"
        )
    # replay: any network flag engages the mesh — link flags alone get a
    # zero-duration (benign-window) plan synthesized for them.
    if networked and args.front_door:
        return (
            "--front-door layers a second admission path over the "
            "mesh's own enclave admission; drop one of the two"
        )
    if networked and args.policy != "rota":
        return (
            "the mesh replay runs the ROTA-exact enclave path; "
            f"--policy {args.policy} cannot drive it"
        )
    return None


def _network_tuning(args: argparse.Namespace) -> list[str]:
    """The network-shaping flags the user actually passed."""
    return [
        flag
        for flag, value in (
            ("--link-delay", args.link_delay),
            ("--link-jitter", args.link_jitter),
            ("--link-loss", args.link_loss),
            ("--lease-ttl", args.lease_ttl),
            ("--network-seed", args.network_seed),
        )
        if value is not None
    ]


def _mesh_plan(
    args: argparse.Namespace,
    *,
    horizon: int | None = None,
    default_benign: bool = False,
):
    """Build the :class:`PartitionPlan` the network flags describe.

    ``default_benign`` (the replay path) disables the plan's default
    partition window when no ``--partition-plan`` was given, so link
    flags alone describe a lossy-but-unpartitioned wire.  Raises
    :class:`~repro.errors.FaultInjectionError` on bad values (e.g. a
    partition starting past the horizon, or a TTL too short to fit a
    renewal inside)."""
    from repro.faults import PartitionPlan

    seed = args.network_seed
    if seed is None:
        seed = getattr(args, "seed", None) or 0
    kwargs: dict = {"seed": seed}
    if horizon is not None:
        kwargs["horizon"] = horizon
    if args.partition_plan is not None:
        start, duration = args.partition_plan
        kwargs["partition_start"] = start
        kwargs["partition_duration"] = duration
    elif default_benign:
        kwargs["partition_duration"] = 0
    if args.link_delay is not None:
        kwargs["link_delay"] = args.link_delay
    if args.link_jitter is not None:
        kwargs["link_jitter"] = args.link_jitter
    if args.link_loss is not None:
        kwargs["link_loss"] = args.link_loss
    if args.lease_ttl is not None:
        kwargs["lease_ttl"] = args.lease_ttl
        # Keep the default 3:1 ttl/renewal cadence of the plan.
        kwargs["renew_every"] = max(1, args.lease_ttl // 3)
    return PartitionPlan(**kwargs)


def _mesh_lines(report, policy) -> list[str]:
    """Channel/lease/recovery digest lines for a mesh run."""
    stats = policy.channel.stats
    return [
        f"  messages: sent={stats.sent} delivered={stats.delivered} "
        f"lost={stats.lost} severed={stats.severed}",
        f"  leases: granted={len(policy.leases)} "
        f"expired={len(policy.leases.expired())} "
        f"late_acks={policy.late_acks}",
        f"  rpc: failures={policy.rpc_failures} "
        f"strays={policy.stray_verdicts} "
        f"delay_charged={float(policy.network_delay_charged):g}",
        f"  promises: violations={len(report.violations)} "
        f"recovered={report.recovered} abandoned={report.abandoned}",
    ]


def _service_config(args: argparse.Namespace):
    """Build the :class:`ServiceConfig` the scenario flags describe.

    Raises :class:`~repro.errors.ServiceConfigError` on bad combinations
    (e.g. a brownout threshold too small to leave hysteresis room).
    """
    from repro.service import ServiceConfig

    # replay has no --seed; the door's tie-breaking seed defaults to 0.
    kwargs: dict = {"seed": getattr(args, "seed", None) or 0}
    if args.max_queue is not None:
        kwargs["max_queue"] = args.max_queue
    if args.shed_policy is not None:
        kwargs["shed_policy"] = args.shed_policy
    if args.brownout_threshold is not None:
        kwargs["brownout_enter"] = args.brownout_threshold
        # Preserve the 3:1 enter/exit hysteresis ratio of the defaults.
        kwargs["brownout_exit"] = max(1, args.brownout_threshold // 3)
    return ServiceConfig(**kwargs)


def _door_summary_line(policy, horizon) -> str:
    """One shed/breaker/brownout digest line for a front-door policy."""
    from repro.service import ServiceReport

    digest = ServiceReport.from_door(policy.door, horizon).summary()
    line = (
        f"  {policy.name}: offered={digest['offered']} "
        f"admitted={digest['admitted']} rejected={digest['rejected']} "
        f"shed={digest['shed']} breaker_opens={digest['breaker_opens']} "
        f"brownout_entries={digest['brownout_entries']}"
    )
    reasons = ", ".join(
        f"{reason}={count}"
        for reason, count in sorted(digest["shed_reasons"].items())
    )
    if reasons:
        line += f" ({reasons})"
    return line


@contextmanager
def _metrics_session(args: argparse.Namespace):
    """Install a live registry for the run when ``--metrics-out`` asks
    for one (the default registry is a no-op), and dump the snapshot —
    even on failure, so a crashed run still leaves its partial metrics."""
    from repro.observability import (
        MetricsRegistry,
        use_registry,
        write_jsonl,
        write_prometheus,
    )

    if args.metrics_out is None:
        yield
        return
    registry = MetricsRegistry()
    try:
        with use_registry(registry):
            yield
    finally:
        if (args.metrics_format or "jsonl") == "prom":
            write_prometheus(registry.snapshot(), args.metrics_out)
        else:
            write_jsonl(registry.snapshot(), args.metrics_out)


#: Loss causes that are unannounced faults (shed and lease-expired
#: capacity is refused or renounced, not lost to a fault).
_FAULT_CAUSES = frozenset(("crash", "revocation", "degradation"))


def _check_resume_flags(args: argparse.Namespace) -> str | None:
    """A resume restores one run (its events, fault plan and recovery)
    from its checkpoint directory, so flags that build a fresh run are
    refused."""
    if not args.resume:
        return None
    if args.policy == "all" and args.name != "mesh":
        # The mesh has exactly one admission path, so --policy stays at
        # its "all" default there and is unambiguous.
        return (
            "--resume restores one interrupted run; pick the policy "
            "explicitly with --policy"
        )
    if args.checkpoint_dir is None:
        return (
            "--resume restores a run from its durable artifacts; pass "
            "--checkpoint-dir DIR to say where they live, or drop "
            "--resume to start fresh"
        )
    passed = [
        flag
        for flag, value in (
            ("--seed", args.seed),
            ("--crash-rate", args.crash_rate),
            ("--revocation-rate", args.revocation_rate),
            ("--straggler-rate", args.straggler_rate),
            ("--fault-seed", args.fault_seed),
            ("--recover", args.recover or None),
        )
        if value is not None
    ]
    if passed:
        return (
            "--resume restores the recorded scenario and fault plan from "
            f"the checkpoint; {'/'.join(passed)} shape"
            f"{'s' if len(passed) == 1 else ''} fresh runs only"
        )
    return None


def _cmd_scenario(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.faults import MeshPolicy, run_mesh

    if _flag_error(
        args,
        _check_resume_flags,
        _check_metrics_flags,
        _check_front_door_flags,
        _check_network_flags,
    ):
        return 2
    title = f"scenario={args.name}"
    with _metrics_session(args):
        if args.resume:
            name = MeshPolicy.name if args.name == "mesh" else args.policy
            policy_dir = Path(args.checkpoint_dir) / name
            simulator = OpenSystemSimulator.resume(
                policy_dir, policy_dir / "journal.jsonl"
            )
            runs = [(simulator.resume_run(), simulator.admission_policy)]
        elif args.name == "mesh":
            plan = _mesh_plan(args)
            runs = [run_mesh(plan, **_durability(args, MeshPolicy.name))]
        else:
            title, runs = _run_scenario(args)
    _print_runs(title, runs)
    return 0


def _durability(args: argparse.Namespace, name: str) -> dict:
    """``run()``'s durability arguments for policy ``name``: artifacts
    under ``--checkpoint-dir/<name>/``, none without the flag."""
    from pathlib import Path

    if args.checkpoint_dir is None:
        return {}
    policy_dir = Path(args.checkpoint_dir) / name
    return {
        "checkpoint_every": args.checkpoint_every,
        "checkpoint_dir": policy_dir,
        "journal": policy_dir / "journal.jsonl",
    }


def _run_scenario(args: argparse.Namespace):
    """Fresh runs of the named scenario (faulty variant under fault
    flags) for each chosen policy; returns the title and the runs."""
    from repro.faults import FaultPlan, RecoveryPolicy, faulty_scenario

    service_config = _service_config(args) if args.front_door else None
    factory = SCENARIOS[args.name]
    scenario = factory(args.seed) if args.seed is not None else factory()
    plan = FaultPlan(
        seed=args.fault_seed or 0,
        crash_rate=args.crash_rate or 0.0,
        revocation_rate=args.revocation_rate or 0.0,
        straggler_rate=args.straggler_rate or 0.0,
    )
    if not plan.is_benign:
        scenario = faulty_scenario(scenario, plan)
    chosen = (
        ALL_POLICIES
        if args.policy == "all"
        else tuple(cls for cls in ALL_POLICIES if cls.name == args.policy)
    )
    runs = []
    for cls in chosen:
        policy = cls()
        allocation = (
            ReservationPolicy() if isinstance(policy, RotaAdmission) else None
        )
        if service_config is not None:
            from repro.service import FrontDoorPolicy

            policy = FrontDoorPolicy(policy, service_config)
        simulator = OpenSystemSimulator(
            policy,
            initial_resources=scenario.initial_resources,
            allocation_policy=allocation,
            recovery=RecoveryPolicy() if args.recover else None,
        )
        simulator.schedule(*scenario.events)
        report = simulator.run(
            scenario.horizon, **_durability(args, cls.name)
        )
        runs.append((report, policy))
    return f"scenario={scenario.name}", runs


def _print_runs(title: str, runs) -> None:
    """The policy table and the digest blocks of finished runs, fresh or
    resumed alike: every block is read off the runs themselves."""
    from repro.faults import MeshPolicy
    from repro.service import FrontDoorPolicy

    first, mesh = runs[0]
    if isinstance(mesh, MeshPolicy):
        # The plan travels inside the checkpoint with the policy, so a
        # resumed mesh is titled from what was actually recorded.
        plan = mesh.plan
        window = (
            f"[{plan.partition_start}, {plan.partition_end})"
            if plan.partition_duration
            else "none"
        )
        title = (
            f"scenario=mesh partition={window} "
            f"loss={plan.link_loss:g} delay={plan.link_delay}"
        )
    if first.resumed_from:
        title += f" resumed_from={first.resumed_from}"
    print(policy_table([score(report) for report, _ in runs], title=title))
    fault_lines = [
        f"  {report.policy_name}: violations={len(report.violations)} "
        f"recovered={report.recovered} abandoned={report.abandoned}"
        for report, _ in runs
        if report.violations
        or any(loss.cause in _FAULT_CAUSES for loss in report.trace.losses)
    ]
    if fault_lines:
        print("promise violations under faults:")
        print("\n".join(fault_lines))
    door_lines = [
        _door_summary_line(policy, report.horizon)
        for report, policy in runs
        if isinstance(policy, FrontDoorPolicy)
    ]
    if door_lines:
        print("front door (shed/breaker/brownout):")
        print("\n".join(door_lines))
    if isinstance(mesh, MeshPolicy):
        print("unreliable network:")
        print("\n".join(_mesh_lines(first, mesh)))


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.errors import RotaError

    try:
        if args.request == "-":
            payload = json.load(sys.stdin)
        else:
            with open(args.request) as handle:
                payload = json.load(handle)
    except OSError as exc:
        print(f"error: cannot read {args.request}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: {args.request} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if not isinstance(payload, dict) or not {
        "resources", "requirement"
    } <= set(payload):
        print(
            "error: a check request is a JSON object with 'resources' and "
            "'requirement' keys (repro.serialization wire format)",
            file=sys.stderr,
        )
        return 2
    if args.lint:
        from repro.analysis.lint import check_request_document, render_text

        findings = check_request_document(payload, args.request)
        if findings:
            print(render_text(findings, 1), file=sys.stderr)
        if any(f.severity == "error" for f in findings):
            return 1
    try:
        resources = resource_set_from_wire(payload["resources"])
        requirement = requirement_from_wire(payload["requirement"])
    except RotaError as exc:
        print(f"error: malformed request: {exc}", file=sys.stderr)
        return 2
    controller = AdmissionController(resources, align=args.align)
    decision = controller.can_admit(requirement)
    result = {"admitted": decision.admitted}
    if decision.admitted and decision.schedule is not None:
        result["schedules"] = [
            schedule_to_wire(s) for s in decision.schedule.schedules
        ]
    else:
        result["reason"] = decision.reason
    json.dump(result, sys.stdout, indent=2)
    print()
    return 0 if decision.admitted else 1


def _cmd_table1(_args: argparse.Namespace) -> int:
    from repro.analysis import render_table
    from repro.intervals import ALL_RELATIONS, BASE_RELATIONS, INTERPRETATION

    rows = [
        (
            relation.value,
            INTERPRETATION[relation],
            "base" if relation in BASE_RELATIONS else "inverse",
        )
        for relation in ALL_RELATIONS
    ]
    print(render_table(("symbol", "interpretation", "kind"), rows,
                       title="Table I — interval relations"))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.resources import ResourceSet
    from repro.workloads.persistence import load_events

    from repro.errors import RotaError

    if _flag_error(
        args, _check_metrics_flags, _check_front_door_flags, _check_network_flags
    ):
        return 2
    service_config = _service_config(args) if args.front_door else None
    try:
        if args.resources is not None:
            with open(args.resources) as handle:
                initial = resource_set_from_wire(json.load(handle))
        else:
            initial = ResourceSet.empty()
        events = load_events(args.trace)
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: not valid JSON: {exc}", file=sys.stderr)
        return 2
    except RotaError as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return 2
    recovery = None
    networked = (
        args.partition_plan is not None or bool(_network_tuning(args))
    )
    if networked:
        from repro.faults import MeshPolicy, RecoveryPolicy

        # Link flags alone mean a lossy wire with no partition window —
        # synthesize a zero-duration plan for them.
        plan = _mesh_plan(
            args, horizon=max(1, int(args.horizon)), default_benign=True
        )
        policy = MeshPolicy(plan)
        allocation = None
        recovery = RecoveryPolicy()
    else:
        policy_cls = next(
            cls for cls in ALL_POLICIES if cls.name == args.policy
        )
        policy = policy_cls()
        allocation = (
            ReservationPolicy() if isinstance(policy, RotaAdmission) else None
        )
        if service_config is not None:
            from repro.service import FrontDoorPolicy

            policy = FrontDoorPolicy(policy, service_config)
    with _metrics_session(args):
        simulator = OpenSystemSimulator(
            policy,
            initial_resources=initial,
            allocation_policy=allocation,
            recovery=recovery,
        )
        simulator.schedule(*events)
        report = simulator.run(args.horizon)
    print(policy_table([score(report)], title=f"replay of {args.trace}"))
    if service_config is not None:
        print("front door (shed/breaker/brownout):")
        print(_door_summary_line(policy, args.horizon))
    if networked:
        print("unreliable network:")
        print("\n".join(_mesh_lines(report, policy)))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    commands = {
        "scenario": _cmd_scenario,
        "check": _cmd_check,
        "table1": _cmd_table1,
        "replay": _cmd_replay,
    }
    try:
        return commands[args.command](args)
    except (
        AdmissionConfigError,
        ServiceConfigError,
        FaultInjectionError,
        CheckpointError,
    ) as exc:
        # Bad configuration and unusable durable artifacts are usage
        # errors (exit 2), like a bad flag.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
