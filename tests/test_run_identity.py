"""A run's durable bytes are fixed by the run alone.

The simulator numbers its own events (the ``seq`` a journal record and a
checkpoint's heap entries carry), so two identical runs in one process
write byte-identical journals and checkpoint files, however many runs
came before them.  Both a mesh run (wire WAL entries, network section)
and a chaotic run (recovery offers minted mid-run) are checked.
"""

from __future__ import annotations

from repro.baselines import RotaAdmission
from repro.faults import (
    FaultPlan,
    PartitionPlan,
    RecoveryPolicy,
    faulty_scenario,
    run_mesh,
)
from repro.system import OpenSystemSimulator, ReservationPolicy
from repro.workloads import volunteer_scenario

MESH_PLAN = PartitionPlan(
    seed=7,
    horizon=30,
    partition_start=10,
    partition_duration=8,
    link_delay=1,
    link_jitter=2,
    link_loss=0.15,
)


def _artifacts(workdir):
    """Every file a run wrote, by relative path."""
    return {
        path.relative_to(workdir).as_posix(): path.read_bytes()
        for path in sorted(workdir.rglob("*"))
        if path.is_file()
    }


def _assert_identical(first, second):
    assert first, "the run must write artifacts"
    assert any(name.endswith(".jsonl") for name in first)
    assert any(name.startswith("ckpt/ckpt-") for name in first)
    assert sorted(first) == sorted(second)
    diverged = [name for name in first if first[name] != second[name]]
    assert not diverged, f"same run, different bytes: {diverged}"


def test_two_mesh_runs_in_one_process_write_identical_bytes(tmp_path):
    written = []
    for name in ("first", "second"):
        workdir = tmp_path / name
        run_mesh(
            MESH_PLAN,
            journal=workdir / "journal.jsonl",
            checkpoint_every=5,
            checkpoint_dir=workdir / "ckpt",
        )
        written.append(_artifacts(workdir))
    _assert_identical(*written)


def test_two_chaos_runs_in_one_process_write_identical_bytes(tmp_path):
    scenario = faulty_scenario(
        volunteer_scenario(7, nodes=4, horizon=60, session_rate=0.5),
        FaultPlan(
            seed=17, crash_rate=0.04, revocation_rate=0.5,
            straggler_rate=0.04,
        ),
    )
    written = []
    for name in ("first", "second"):
        workdir = tmp_path / name
        simulator = OpenSystemSimulator(
            RotaAdmission(),
            initial_resources=scenario.initial_resources,
            allocation_policy=ReservationPolicy(),
            recovery=RecoveryPolicy(max_attempts=6),
        )
        simulator.schedule(*scenario.events)
        report = simulator.run(
            scenario.horizon,
            journal=workdir / "journal.jsonl",
            checkpoint_every=5,
            checkpoint_dir=workdir / "ckpt",
        )
        assert any(r.recovery_attempts for r in report.records), (
            "the run must mint recovery offers mid-run"
        )
        written.append(_artifacts(workdir))
    _assert_identical(*written)
