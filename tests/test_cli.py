"""Unit tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.computation import ComplexRequirement, Demands
from repro.intervals import Interval
from repro.resources import ResourceSet, cpu, term
from repro.serialization import requirement_to_wire, resource_set_to_wire


def write_request(tmp_path, *, quantity, deadline=8):
    payload = {
        "resources": resource_set_to_wire(
            ResourceSet.of(term(5, cpu("l1"), 0, 10))
        ),
        "requirement": requirement_to_wire(
            ComplexRequirement(
                [Demands({cpu("l1"): quantity})], Interval(0, deadline), label="job"
            )
        ),
    }
    path = tmp_path / "request.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestTable1:
    def test_prints_thirteen_relations(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert out.count("inverse") == 6
        assert out.count("base") == 7


class TestScenario:
    def test_single_policy(self, capsys):
        assert main(["scenario", "pipeline", "--seed", "3", "--policy", "rota"]) == 0
        out = capsys.readouterr().out
        assert "rota" in out
        assert "precision" in out

    def test_all_policies(self, capsys):
        assert main(["scenario", "cloud", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        for name in ("rota", "aggregate", "startpoint", "countbound", "optimistic"):
            assert name in out

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["scenario", "atlantis"])

    def test_fault_flags_run_faulty_variant(self, capsys):
        assert main([
            "scenario", "volunteer", "--seed", "3", "--policy", "rota",
            "--crash-rate", "0.05", "--revocation-rate", "0.4",
            "--straggler-rate", "0.03", "--fault-seed", "7", "--recover",
        ]) == 0
        out = capsys.readouterr().out
        assert "+faults@7" in out
        assert "promise violations under faults:" in out
        assert "recovered=" in out and "abandoned=" in out

    def test_benign_fault_flags_change_nothing(self, capsys):
        assert main(["scenario", "pipeline", "--seed", "3",
                     "--policy", "rota", "--fault-seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "+faults@" not in out
        assert "promise violations" not in out

    def test_resume_without_a_checkpoint_exits_2(self, tmp_path, capsys):
        """No checkpoint under the directory: a usage error that names
        the directory, and the directory is not created."""
        empty = tmp_path / "empty"
        assert main([
            "scenario", "pipeline", "--policy", "rota",
            "--resume", "--checkpoint-dir", str(empty),
        ]) == 2
        assert "nothing to resume" in capsys.readouterr().err
        assert not empty.exists()

    @pytest.mark.parametrize("flags", [
        ["--seed", "4"],
        ["--crash-rate", "0.05"],
        ["--revocation-rate", "0"],
        ["--straggler-rate", "0.1"],
        ["--fault-seed", "0"],
        ["--recover"],
    ])
    def test_resume_refuses_fresh_run_flags(self, flags, tmp_path, capsys):
        """The checkpoint holds the scenario's events, fault plan and
        recovery; a flag that would build them again is a usage error."""
        assert main([
            "scenario", "pipeline", "--policy", "rota",
            "--resume", "--checkpoint-dir", str(tmp_path), *flags,
        ]) == 2
        err = capsys.readouterr().err
        assert flags[0] in err and "fresh runs only" in err

    def test_resume_prints_what_the_fresh_run_printed(
        self, tmp_path, capsys, monkeypatch
    ):
        """Nothing of a resume is rebuilt from flags: a faulty run
        killed and resumed with plain ``--resume`` prints the same table
        and fault block, titled with the scenario and the checkpoint it
        resumed from."""
        from repro.faults import SimulatedCrash, crashing_opener
        from repro.system.checkpoint import Journal

        fresh_argv = [
            "scenario", "pipeline", "--seed", "4", "--policy", "rota",
            "--crash-rate", "0.05", "--fault-seed", "7", "--recover",
        ]
        assert main(fresh_argv) == 0
        fresh = capsys.readouterr().out.splitlines()
        assert fresh[0].startswith("scenario=pipeline+faults@7")
        assert "promise violations under faults:" in fresh

        original = Journal.__init__

        def crashing(self, path, **kwargs):
            kwargs["opener"] = crashing_opener(crash_at_write=30)
            original(self, path, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Journal, "__init__", crashing)
            with pytest.raises(SimulatedCrash):
                main([*fresh_argv, "--checkpoint-dir", str(tmp_path),
                      "--checkpoint-every", "5"])
        capsys.readouterr()
        assert main([
            "scenario", "pipeline", "--policy", "rota",
            "--resume", "--checkpoint-dir", str(tmp_path),
        ]) == 0
        resumed = capsys.readouterr().out.splitlines()
        assert resumed[0].startswith("scenario=pipeline resumed_from=ckpt-")
        assert resumed[1:] == fresh[1:]

    @pytest.mark.parametrize("flag", [
        "--crash-rate", "--revocation-rate", "--straggler-rate",
    ])
    @pytest.mark.parametrize("value", ["-0.1", "1.5", "nan", "lots"])
    def test_rates_outside_unit_interval_rejected(self, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", "pipeline", flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "[0, 1]" in err or "expected a number" in err

    @pytest.mark.parametrize("value", ["-1", "3.5", "seven"])
    def test_bad_fault_seed_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", "pipeline", "--fault-seed", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert ">= 0" in err or "expected an integer" in err


class TestFrontDoorFlags:
    def test_front_door_prints_shed_summary(self, capsys):
        assert main([
            "scenario", "pipeline", "--seed", "3", "--policy", "rota",
            "--front-door", "--max-queue", "8", "--brownout-threshold", "6",
        ]) == 0
        out = capsys.readouterr().out
        assert "rota+door" in out
        assert "front door (shed/breaker/brownout):" in out
        assert "shed=" in out and "breaker_opens=" in out

    def test_front_door_wraps_every_policy(self, capsys):
        assert main([
            "scenario", "pipeline", "--seed", "3", "--front-door",
        ]) == 0
        out = capsys.readouterr().out
        for name in ("rota", "aggregate", "startpoint", "countbound",
                     "optimistic"):
            assert f"{name}+door" in out

    def test_front_door_decisions_are_deterministic(self, capsys):
        argv = [
            "scenario", "pipeline", "--seed", "3", "--policy", "rota",
            "--front-door", "--max-queue", "4", "--shed-policy", "deadline",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("flag,value", [
        ("--max-queue", "8"),
        ("--shed-policy", "tail-drop"),
        ("--brownout-threshold", "6"),
    ])
    def test_tuning_flags_without_front_door_rejected(
        self, flag, value, capsys
    ):
        assert main(["scenario", "pipeline", flag, value]) == 2
        err = capsys.readouterr().err
        assert flag in err and "--front-door" in err

    def test_front_door_with_resume_rejected(self, tmp_path, capsys):
        assert main([
            "scenario", "pipeline", "--policy", "rota", "--front-door",
            "--resume", "--checkpoint-dir", str(tmp_path),
        ]) == 2
        err = capsys.readouterr().err
        assert "--resume" in err and "fresh runs" in err

    def test_unworkable_brownout_threshold_rejected(self, capsys):
        assert main([
            "scenario", "pipeline", "--front-door",
            "--brownout-threshold", "1",
        ]) == 2
        err = capsys.readouterr().err
        assert "hysteresis" in err

    def test_bad_shed_policy_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", "pipeline", "--front-door",
                  "--shed-policy", "coin-flip"])
        assert excinfo.value.code == 2

    def test_zero_max_queue_rejected(self, capsys):
        assert main([
            "scenario", "pipeline", "--front-door", "--max-queue", "0",
        ]) == 2
        err = capsys.readouterr().err
        assert "max_queue" in err


class TestCheck:
    def test_admitted(self, tmp_path, capsys):
        path = write_request(tmp_path, quantity=30)
        assert main(["check", path]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["admitted"] is True
        assert result["schedules"][0]["finish"] == 6

    def test_rejected_exit_code(self, tmp_path, capsys):
        path = write_request(tmp_path, quantity=100)
        assert main(["check", path]) == 1
        result = json.loads(capsys.readouterr().out)
        assert result["admitted"] is False
        assert "reason" in result

    def test_align_flag(self, tmp_path, capsys):
        path = write_request(tmp_path, quantity=30)
        assert main(["check", path, "--align", "1"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["admitted"] is True

    def test_zero_align_is_a_usage_error(self, tmp_path, capsys):
        path = write_request(tmp_path, quantity=30)
        assert main(["check", path, "--align", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: align must be None or a finite number > 0, got 0"
        ]


class TestReplay:
    def test_replay_recorded_trace(self, tmp_path, capsys):
        import json as _json

        from repro.serialization import resource_set_to_wire
        from repro.workloads import cloud_scenario, save_events

        scenario = cloud_scenario(5)
        trace = tmp_path / "trace.jsonl"
        save_events(scenario.events, trace)
        resources = tmp_path / "resources.json"
        resources.write_text(
            _json.dumps(resource_set_to_wire(scenario.initial_resources))
        )
        assert (
            main(
                [
                    "replay",
                    str(trace),
                    "--resources",
                    str(resources),
                    "--horizon",
                    str(scenario.horizon),
                    "--policy",
                    "rota",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "replay" in out and "rota" in out

    def test_replay_without_initial_resources(self, tmp_path, capsys):
        from repro.system import resource_join
        from repro.workloads import save_events
        from repro.resources import ResourceSet, cpu, term

        trace = tmp_path / "trace.jsonl"
        save_events(
            [resource_join(0, ResourceSet.of(term(2, cpu("l1"), 0, 10)))], trace
        )
        assert main(["replay", str(trace), "--horizon", "10"]) == 0

    @staticmethod
    def _simple_trace(tmp_path):
        from repro.system import resource_join
        from repro.workloads import save_events
        from repro.resources import ResourceSet, cpu, term

        trace = tmp_path / "trace.jsonl"
        save_events(
            [resource_join(0, ResourceSet.of(term(2, cpu("l1"), 0, 10)))], trace
        )
        return trace

    @pytest.mark.parametrize("flag,value", [
        ("--max-queue", "8"),
        ("--shed-policy", "tail-drop"),
        ("--brownout-threshold", "6"),
    ])
    def test_replay_tuning_flags_without_front_door_rejected(
        self, tmp_path, flag, value, capsys
    ):
        """The scenario exit-2 contract holds on replay too: a clear
        message naming the offending flag and the fix, never a bare
        argparse usage dump."""
        trace = self._simple_trace(tmp_path)
        assert main([
            "replay", str(trace), "--horizon", "10", flag, value,
        ]) == 2
        err = capsys.readouterr().err
        assert flag in err and "--front-door" in err
        assert err.startswith("error:")

    def test_replay_behind_front_door(self, tmp_path, capsys):
        trace = self._simple_trace(tmp_path)
        assert main([
            "replay", str(trace), "--horizon", "10",
            "--front-door", "--max-queue", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "front door (shed/breaker/brownout):" in out

    def test_replay_unworkable_brownout_threshold_rejected(
        self, tmp_path, capsys
    ):
        trace = self._simple_trace(tmp_path)
        assert main([
            "replay", str(trace), "--horizon", "10",
            "--front-door", "--brownout-threshold", "1",
        ]) == 2
        assert "hysteresis" in capsys.readouterr().err


class TestMetricsFlags:
    def test_metrics_format_without_out_rejected(self, capsys):
        # Flag-interaction errors exit 2 (usage), naming both flags so
        # the fix is in the message.
        assert main([
            "scenario", "pipeline", "--seed", "3", "--policy", "rota",
            "--metrics-format", "prom",
        ]) == 2
        err = capsys.readouterr().err
        assert "--metrics-format" in err and "--metrics-out" in err

    def test_replay_metrics_format_without_out_rejected(self, tmp_path, capsys):
        from repro.system import resource_join
        from repro.workloads import save_events
        from repro.resources import ResourceSet, cpu, term

        trace = tmp_path / "trace.jsonl"
        save_events(
            [resource_join(0, ResourceSet.of(term(2, cpu("l1"), 0, 10)))], trace
        )
        assert main([
            "replay", str(trace), "--horizon", "10",
            "--metrics-format", "jsonl",
        ]) == 2
        err = capsys.readouterr().err
        assert "--metrics-format" in err and "--metrics-out" in err

    def test_resume_without_checkpoint_dir_rejected(self, capsys):
        assert main([
            "scenario", "pipeline", "--seed", "3", "--policy", "rota",
            "--resume",
        ]) == 2
        err = capsys.readouterr().err
        assert "--resume" in err and "--checkpoint-dir" in err

    def test_metrics_out_jsonl_snapshot(self, tmp_path, capsys):
        out = tmp_path / "metrics.jsonl"
        assert main([
            "scenario", "pipeline", "--seed", "3", "--policy", "rota",
            "--metrics-out", str(out),
        ]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        names = {r["name"] for r in records if r["record"] == "metric"}
        assert "rota_admission_decisions_total" in names
        assert "sim_phase_seconds" in names
        assert any(r["record"] == "span" for r in records)

    def test_metrics_out_prometheus_format(self, tmp_path, capsys):
        out = tmp_path / "metrics.prom"
        assert main([
            "scenario", "pipeline", "--seed", "3", "--policy", "rota",
            "--metrics-out", str(out), "--metrics-format", "prom",
        ]) == 0
        text = out.read_text()
        assert "# TYPE rota_admission_decisions_total counter" in text
        assert "sim_phase_seconds_bucket" in text

    def test_module_entry_point_validates_flags(self, tmp_path):
        # The documented invocation is ``python -m repro``; exercise the
        # real entry point end to end, not just cli.main.
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        repo_src = str(
            __import__("pathlib").Path(__file__).resolve().parent.parent / "src"
        )
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        bad = subprocess.run(
            [sys.executable, "-m", "repro", "scenario", "pipeline",
             "--seed", "3", "--policy", "rota", "--metrics-format", "prom"],
            capture_output=True, text=True, env=env,
        )
        assert bad.returncode == 2
        assert "--metrics-out" in bad.stderr
        out = tmp_path / "metrics.jsonl"
        good = subprocess.run(
            [sys.executable, "-m", "repro", "scenario", "pipeline",
             "--seed", "3", "--policy", "rota", "--metrics-out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert good.returncode == 0
        assert out.exists() and out.stat().st_size > 0


class TestMeshNetworkFlags:
    def test_mesh_scenario_prints_the_network_digest(self, capsys):
        assert main([
            "scenario", "mesh", "--seed", "1",
            "--partition-plan", "18:10", "--link-delay", "1",
            "--link-loss", "0.1", "--lease-ttl", "6",
        ]) == 0
        out = capsys.readouterr().out
        assert "scenario=mesh" in out
        assert "partition=[18, 28)" in out
        assert "unreliable network:" in out
        assert "leases: granted=" in out
        assert "promises: violations=" in out

    def test_mesh_scenario_runs_on_defaults(self, capsys):
        assert main(["scenario", "mesh"]) == 0
        assert "unreliable network:" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, fragment", [
        # network flags belong to the mesh scenario only
        (["scenario", "pipeline", "--link-delay", "1"], "scenario mesh"),
        (["scenario", "pipeline", "--link-jitter", "1"], "scenario mesh"),
        # the mesh is its own closed world: no second admission path,
        # no second fault model, no other decision policy
        (["scenario", "mesh", "--front-door"], "second admission path"),
        (["scenario", "mesh", "--policy", "aggregate"], "ROTA-exact"),
        (["scenario", "mesh", "--crash-rate", "0.1"], "the network itself"),
        # plan-level validation surfaces as the same exit-2 contract
        (["scenario", "mesh", "--lease-ttl", "1"], "renew_every"),
        (["scenario", "mesh", "--partition-plan", "99:10"], "horizon"),
    ])
    def test_flag_interactions_exit_2(self, argv, fragment, capsys):
        assert main(argv) == 2
        assert fragment in capsys.readouterr().err

    def test_mesh_checkpointing_and_resume_reproduce_the_run(
        self, tmp_path, capsys
    ):
        """The journaled wire lifts the old exit-2 refusal: a mesh run
        checkpoints like any other scenario and resumes to the exact
        same table and network digest."""
        assert main([
            "scenario", "mesh", "--seed", "1", "--link-loss", "0.1",
            "--checkpoint-dir", str(tmp_path), "--checkpoint-every", "4",
        ]) == 0
        fresh_out = capsys.readouterr().out
        mesh_dir = tmp_path / "netmesh"
        assert (mesh_dir / "journal.jsonl").exists()
        assert list(mesh_dir.glob("ckpt-*.json"))
        assert main([
            "scenario", "mesh", "--checkpoint-dir", str(tmp_path),
            "--resume",
        ]) == 0
        resumed_out = capsys.readouterr().out
        title = fresh_out.splitlines()[0]
        newest = sorted(mesh_dir.glob("ckpt-*.json"))[-1].name
        assert resumed_out == fresh_out.replace(
            title, f"{title} resumed_from={newest}", 1
        )

    def test_mesh_resume_refuses_network_flags(self, tmp_path, capsys):
        assert main([
            "scenario", "mesh", "--checkpoint-dir", str(tmp_path),
            "--resume", "--link-loss", "0.5",
        ]) == 2
        assert "fresh runs only" in capsys.readouterr().err

    def test_mesh_resume_without_artifacts_exit_2(self, tmp_path, capsys):
        assert main([
            "scenario", "mesh", "--checkpoint-dir", str(tmp_path),
            "--resume",
        ]) == 2
        assert "nothing to resume" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["18", "a:b", "-1:5"])
    def test_malformed_partition_window_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", "mesh", "--partition-plan", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "START" in err and "DURATION" in err

    @staticmethod
    def _join_trace(tmp_path):
        from repro.system import resource_join
        from repro.workloads import save_events
        from repro.resources import ResourceSet, cpu, term

        trace = tmp_path / "t.jsonl"
        save_events(
            [resource_join(0, ResourceSet.of(term(2, cpu("l1"), 0, 10)))],
            trace,
        )
        return trace

    @pytest.mark.parametrize("flags", [
        ["--link-loss", "0.2"],
        ["--link-delay", "1", "--link-jitter", "2"],
        ["--network-seed", "7"],
    ])
    def test_replay_link_flags_alone_run_an_unpartitioned_mesh(
        self, tmp_path, flags, capsys
    ):
        """Link-shaping flags no longer demand --partition-plan: a
        zero-duration window is synthesized, so the wire is lossy or
        slow but never severed."""
        trace = self._join_trace(tmp_path)
        assert main([
            "replay", str(trace), "--horizon", "10", *flags,
        ]) == 0
        out = capsys.readouterr().out
        assert "unreliable network:" in out
        assert "severed=0" in out

    @pytest.mark.parametrize("extra, fragment", [
        (["--front-door"], "second admission path"),
        (["--policy", "aggregate"], "ROTA-exact"),
    ])
    def test_replay_networked_flag_interactions_exit_2(
        self, tmp_path, extra, fragment, capsys
    ):
        assert main([
            "replay", str(tmp_path / "t.jsonl"), "--horizon", "10",
            "--partition-plan", "18:10", *extra,
        ]) == 2
        assert fragment in capsys.readouterr().err

    def test_replay_partition_plan_reproduces_the_mesh_run(
        self, tmp_path, capsys
    ):
        """A saved mesh trace replayed with the original network seed
        walks the same wire fates: the network digests agree line for
        line with the scenario run."""
        from repro.faults import PartitionPlan, mesh_events
        from repro.workloads import save_events

        plan = PartitionPlan(seed=1, link_loss=0.1, link_delay=1)
        resources, events = mesh_events(plan)
        trace = tmp_path / "mesh.jsonl"
        save_events(events, trace)
        res_path = tmp_path / "resources.json"
        res_path.write_text(json.dumps(resource_set_to_wire(resources)))

        assert main([
            "scenario", "mesh", "--seed", "1",
            "--link-loss", "0.1", "--link-delay", "1",
        ]) == 0
        scenario_out = capsys.readouterr().out

        assert main([
            "replay", str(trace), "--horizon", "48",
            "--resources", str(res_path),
            "--partition-plan", "18:10", "--link-loss", "0.1",
            "--link-delay", "1", "--network-seed", "1",
        ]) == 0
        replay_out = capsys.readouterr().out
        assert "unreliable network:" in replay_out

        def digest(text):
            return text.split("unreliable network:\n", 1)[1]

        assert digest(replay_out) == digest(scenario_out)
