"""The journal's one-pass record encoder against its two-pass oracle.

:func:`~repro.system.checkpoint._encode_record` splices one sorted-keys
JSON body into the CRC envelope; :func:`_reference_encode_record` encodes
the envelope as a second ``json.dumps``.  Every line must be byte-equal,
so journals stay byte-identical across the change and
:func:`_decode_record` (unchanged) reads them back.  The oracle is fed
hand-made records covering the JSON corners and every record a journaled
chaotic run and a journaled mesh run write.
"""

from __future__ import annotations

import copy
import math

import pytest

from repro.faults import run_mesh
from repro.system import checkpoint as checkpoint_module
from repro.system.checkpoint import (
    _decode_record,
    _encode_record,
    _reference_encode_record,
)

from tests.test_checkpoint_incremental import (
    MESH_PLAN,
    chaos_scenario,
    make_simulator,
)

HAND_MADE = [
    {},
    {"type": "decision", "admitted": True, "reason": ""},
    {"time": 0.1, "tiny": 5e-324, "big": 1.7976931348623157e308, "neg": -0.0},
    {"inf": math.inf, "ninf": -math.inf, "nan": math.nan},
    {"none": None, "list": [None, 1, 2.5, "x"], "empty": [], "obj": {}},
    {"nested": {"z": [1, {"b": 2, "a": [3, {"d": None, "c": 4.25}]}]}},
    {"label": "jéb-漢字", "note": "emoji \U0001f680 tab\t\"q\"\\"},
    {"über": 1, "ascii": 2, "Zed": 3, "a": 4},
    {"big_int": 2 ** 80, "neg_int": -7, "bool": False},
]


@pytest.mark.parametrize("record", HAND_MADE)
def test_hand_made_records_encode_identically(record):
    line = _encode_record(record)
    assert line == _reference_encode_record(record)
    decoded = _decode_record(line.rstrip(b"\n"))
    assert decoded is not None
    if "nan" not in record:  # NaN never equals itself
        assert decoded == record


def capture_records(monkeypatch):
    """Every record handed to the journal encoder, as it was handed."""
    seen = []
    encode = checkpoint_module._encode_record

    def spy(data):
        seen.append(copy.deepcopy(data))
        return encode(data)

    monkeypatch.setattr(checkpoint_module, "_encode_record", spy)
    return seen


def assert_journal_matches_oracle(path, records):
    assert records, "the run journaled nothing"
    for record in records:
        assert _encode_record(record) == _reference_encode_record(record)
    assert path.read_bytes() == b"".join(
        _reference_encode_record(record) for record in records
    )


def test_chaos_run_journal_matches_oracle(tmp_path, monkeypatch):
    seen = capture_records(monkeypatch)
    scenario = chaos_scenario()
    sim = make_simulator(scenario)
    sim.schedule(*scenario.events)
    journal = tmp_path / "journal.jsonl"
    sim.run(
        scenario.horizon, checkpoint_every=5,
        checkpoint_dir=tmp_path / "ckpt", journal=journal,
    )
    assert_journal_matches_oracle(journal, seen)


def test_mesh_run_journal_matches_oracle(tmp_path, monkeypatch):
    seen = capture_records(monkeypatch)
    journal = tmp_path / "journal.jsonl"
    run_mesh(
        MESH_PLAN, checkpoint_every=4,
        checkpoint_dir=tmp_path / "ckpt", journal=journal,
    )
    assert_journal_matches_oracle(journal, seen)
    assert any(record.get("type") == "wire" for record in seen)
