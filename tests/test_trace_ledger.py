"""The trace's running conservation ledger.

``SimulationTrace`` folds every transition and loss into per-located-type
totals as it records them, and the simulator's per-slice conservation
check reads those totals.  These tests pin the ledger to the
``_reference_*`` re-sums after every slice of real matrix runs, show that
both the per-slice check and the end-of-run oracle fail on a broken
ledger, and cover the two ways derived state can go stale across a
restore: a delta-checkpoint chain and a process with another hash seed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from repro.errors import SimulationError
from repro.faults import OverloadPlan, PartitionPlan, chaos_overload_matrix
from repro.faults.chaos import report_fingerprint
from repro.faults.netfaults import run_mesh
from repro.resources import cpu
from repro.system import OpenSystemSimulator, SimulationTrace
from repro.system.checkpoint import CheckpointStore
from repro.system.tracing import LOSS_CAUSES, ResourceLoss

#: The partition matrix's degraded cell: the partition outlasts the
#: lease ttl, so renewals fail and leased capacity is renounced.
DEGRADED_CELL = PartitionPlan(link_loss=0.15, link_delay=1)


def _legs(trace: SimulationTrace):
    """(ledger, re-sum) for every leg the conservation check reads."""
    legs = [
        (trace.consumed_totals(), trace._reference_consumed_totals()),
        (trace.expired_totals(), trace._reference_expired_totals()),
        (trace.lost_totals(), trace._reference_lost_totals()),
    ]
    legs.extend(
        (trace.lost_totals(cause), trace._reference_lost_totals(cause))
        for cause in LOSS_CAUSES
    )
    return legs


@pytest.fixture
def per_slice_audit(monkeypatch):
    """Compare the ledger with the re-sum inside every conservation check
    the simulator makes; returns the list of mid-run checks seen."""
    checked = []
    original = SimulationTrace.conservation_gaps

    def audited(self, offered, **kwargs):
        if kwargs.get("remaining") is not None:
            for ledger, reference in _legs(self):
                assert ledger == reference, (
                    f"ledger diverged after slice {self.steps}"
                )
            checked.append(self.steps)
        return original(self, offered, **kwargs)

    monkeypatch.setattr(SimulationTrace, "conservation_gaps", audited)
    return checked


class TestLedgerMatchesReSum:
    def test_every_slice_of_a_partition_matrix_cell(self, per_slice_audit):
        report, policy = run_mesh(DEGRADED_CELL)
        assert policy.leases.expired(), "cell must exercise lease expiry"
        assert report.trace.lease_expired_totals()
        # One check per slice, each after that slice's transition.
        assert per_slice_audit == list(range(1, report.trace.steps + 1))

    def test_every_slice_of_the_overload_simulator_leg(self, per_slice_audit):
        result = chaos_overload_matrix(OverloadPlan(multipliers=(1,)))
        assert result.ok, result.failures
        simulated = [p for p in result.points if p.kind == "simulator"]
        assert simulated and simulated[0].shed, "leg must shed capacity"
        # The simulator leg runs twice (replay identity); every slice of
        # both runs was audited.
        horizon = OverloadPlan().horizon
        assert per_slice_audit == list(range(1, horizon + 1)) * 2

    def test_float_legs_are_bit_identical(self):
        trace = SimulationTrace()
        ltype = cpu("n1")
        in_order = 0
        for quantity in (0.1, 0.2, 0.3, 1e-17, 5.0):
            trace.record_loss(0, "crash", ltype, quantity)
            in_order += quantity
        assert trace.lost_totals() == trace._reference_lost_totals()
        assert trace.lost_totals("crash")[ltype] == in_order

    def test_ledger_stays_out_of_the_pickle(self):
        trace = SimulationTrace()
        trace.record_loss(1, "shed", cpu("n1"), 3)
        state = trace.__getstate__()
        assert list(state) == ["transitions", "notes", "losses", "violations"]
        restored = pickle.loads(pickle.dumps(trace))
        assert restored.shed_totals() == {cpu("n1"): 3}
        assert restored.ledger_drift() == []


class TestBrokenLedgerIsCaught:
    def test_skipping_lease_expiry_fails_the_mid_run_check(self, monkeypatch):
        """A ledger mutant that forgets one loss cause: the per-slice
        identity must raise at the first slice after a lease expires."""
        def forgetful(self, time, cause, ltype, quantity):
            if cause == "lease-expired":
                self.losses.append(ResourceLoss(time, cause, ltype, quantity))
                return
            original(self, time, cause, ltype, quantity)

        original = SimulationTrace.record_loss
        monkeypatch.setattr(SimulationTrace, "record_loss", forgetful)
        with pytest.raises(SimulationError, match="conservation broken mid-run"):
            run_mesh(DEGRADED_CELL)

    def test_misfiled_cause_fails_the_end_of_run_oracle(self, monkeypatch):
        """A mutant that files lease expiries under "crash" keeps the
        all-cause leg right, so every per-slice check passes; the
        end-of-run comparison with the re-sum must still raise."""
        original = SimulationTrace._absorb_loss

        def misfiled(self, loss):
            if loss.cause == "lease-expired":
                loss = dataclasses.replace(loss, cause="crash")
            original(self, loss)

        monkeypatch.setattr(SimulationTrace, "_absorb_loss", misfiled)
        with pytest.raises(SimulationError, match=r"ledger lost\[crash\]"):
            run_mesh(DEGRADED_CELL)

    def test_conservation_compares_exact_legs_exactly(self):
        trace = SimulationTrace()
        ltype = cpu("n1")
        trace.record_loss(0, "crash", ltype, 1)
        offered = {ltype: 1 + 10**-9}  # float: inside the tolerance
        assert trace.conservation_gaps(offered) == []
        offered = {ltype: 1 + Fraction(1, 10**9)}  # exact: a real gap
        assert trace.conservation_gaps(offered)


class TestLedgerAcrossRestore:
    def test_resume_from_a_delta_chain_rebuilds_the_ledger(self, tmp_path):
        truth, _ = run_mesh(DEGRADED_CELL)
        run_mesh(
            DEGRADED_CELL,
            checkpoint_every=4,
            checkpoint_dir=tmp_path,
            journal=tmp_path / "journal.jsonl",
        )
        store = CheckpointStore(tmp_path)
        deltas = 0
        for path in sorted(tmp_path.glob("ckpt-*.json")):
            tip, state = store.resolve(path)
            trace = state["trace"]
            deltas += tip.is_delta
            for ledger, reference in _legs(trace):
                assert ledger == reference, f"{path.name}: stale ledger"
        assert deltas, "no delta checkpoint in the chain"
        # The newest checkpoint is a delta; resuming from it finishes
        # the run (whose end-of-run oracle re-checks the ledger).
        assert store.latest()[1].is_delta
        resumed = OpenSystemSimulator.resume(
            tmp_path, tmp_path / "journal.jsonl"
        ).resume_run()
        assert report_fingerprint(resumed) == report_fingerprint(truth)

    def test_located_type_hash_survives_another_hash_seed(self, tmp_path):
        """``str`` hashes are salted per process: a hash cached at
        construction must be recomputed, not unpickled, in the process
        that resumes."""
        blob = tmp_path / "ltypes.pickle"
        script = (
            "import pickle, sys\n"
            "from repro.resources import cpu, network\n"
            "path = sys.argv[2]\n"
            "fresh = [cpu('n1'), network('n0', 'n1')]\n"
            "if sys.argv[1] == 'dump':\n"
            "    open(path, 'wb').write(pickle.dumps(fresh))\n"
            "else:\n"
            "    loaded = pickle.loads(open(path, 'rb').read())\n"
            "    print([hash(a) == hash(b) and a in set(fresh)\n"
            "           for a, b in zip(loaded, fresh)])\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")

        def run(mode, seed):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            return subprocess.run(
                [sys.executable, "-c", script, mode, str(blob)],
                env=env, capture_output=True, text=True, check=True,
            ).stdout

        run("dump", "1")
        assert json.loads(run("load", "2").lower()) == [True, True]

    def test_ledger_rebuilds_from_lists_extended_in_place(self):
        trace = SimulationTrace()
        ltype = cpu("n2")
        trace.losses.append(ResourceLoss(0, "revocation", ltype, 2))
        assert trace.ledger_drift()  # bypassed record_loss(): stale
        trace.rebuild_ledger()
        assert trace.ledger_drift() == []
        assert trace.revoked_totals() == {ltype: 2}
