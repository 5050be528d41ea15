"""A durable mesh run writes the bytes it wrote before.

The journal encodes with one module-level encoder and takes a short path
with metrics and fsync off; a checkpoint digests its payload once and
writes its ASCII envelope in binary, the base64 payload spliced in.  On
a ``mesh-durable``-shaped run every journal line equals the two-pass
oracle, every checkpoint file equals a text-mode ``json.dumps`` envelope,
and both hash to the digests pinned from the code before those changes.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.system.checkpoint import (
    Journal,
    SimulatorCheckpoint,
    _reference_encode_record,
)

#: A mesh-durable-shaped run: E23's partitioned, lossy, jittery plan with
#: a journal and a checkpoint every 25 slices.
_PLAN_FIELDS = dict(
    seed=11, horizon=160, children=3, partition_start=40,
    partition_duration=24, link_delay=1, link_jitter=2, link_loss=0.1,
)
#: SHA-256 of its journal, as written before the encoder was cached.
JOURNAL_SHA256 = (
    "8c06f9f02454a8dfd7918aa328635b4eef05782a926728120c1860c28a345adc"
)
#: SHA-256 over its checkpoint files (name, then bytes, in name order),
#: as written before the digest was cached and the envelope written in
#: binary.  CPython 3.10 pickles some objects differently from later
#: versions.
CHECKPOINTS_SHA256 = {
    (3, 10): "b18cad9dbff62924c5a1d6805f4b88dd181d49704f1c928a2a405c5a4f82f0f8",
    "later": "5e1ebedc46bb7bf9e4958adcf568a68fe3f17dd039ddb0ff060167c99f95bde7",
}


def _text_envelope(checkpoint: SimulatorCheckpoint) -> bytes:
    """The envelope as a text-mode write of ``json.dumps`` laid it down."""
    envelope = {
        "magic": "rota-checkpoint",
        "format_version": 5,
        "step": checkpoint.step,
        "journal_records": checkpoint.journal_records,
        "sequence": checkpoint.sequence,
        "sha256": hashlib.sha256(checkpoint.payload).hexdigest(),
        "payload": base64.b64encode(checkpoint.payload).decode("ascii"),
    }
    if checkpoint.is_delta:
        envelope["kind"] = "delta"
        envelope["base_step"] = checkpoint.base_step
        envelope["base_sha256"] = checkpoint.base_sha256
    return (json.dumps(envelope, sort_keys=True) + "\n").encode("utf-8")


def _durable_run_in_a_fresh_process(directory) -> None:
    """Run the plan in a new interpreter: checkpoint pickles memoize
    shared objects, and which objects a run shares depends on what the
    process ran before it, so the pinned bytes are a fresh process's."""
    script = (
        "import sys\n"
        "from pathlib import Path\n"
        "from repro.faults import PartitionPlan, run_mesh\n"
        "directory = Path(sys.argv[1])\n"
        f"run_mesh(PartitionPlan(**{_PLAN_FIELDS!r}), checkpoint_every=25,\n"
        "         checkpoint_dir=directory,\n"
        "         journal=directory / 'journal.jsonl')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    subprocess.run(
        [sys.executable, "-c", script, str(directory)],
        env=dict(os.environ, PYTHONPATH=src), check=True,
    )


def test_durable_artifacts_are_the_bytes_written_before(tmp_path):
    _durable_run_in_a_fresh_process(tmp_path)
    journal = (tmp_path / "journal.jsonl").read_bytes()
    records, _ = Journal.scan(tmp_path / "journal.jsonl")
    assert journal.splitlines(keepends=True) == [
        _reference_encode_record(record) for record in records
    ]
    assert hashlib.sha256(journal).hexdigest() == JOURNAL_SHA256

    files = sorted(tmp_path.glob("ckpt-*.json"))
    assert len(files) == 7
    digest = hashlib.sha256()
    previous = None
    for path in files:
        raw = path.read_bytes()
        checkpoint = SimulatorCheckpoint.load(path)
        assert raw == _text_envelope(checkpoint), path.name
        assert checkpoint.sha256 == hashlib.sha256(checkpoint.payload).hexdigest()
        if checkpoint.is_delta:
            assert checkpoint.base_sha256 == previous.sha256
        previous = checkpoint
        digest.update(path.name.encode())
        digest.update(raw)
    version = sys.version_info[:2]
    expected = CHECKPOINTS_SHA256.get(version, CHECKPOINTS_SHA256["later"])
    assert digest.hexdigest() == expected
