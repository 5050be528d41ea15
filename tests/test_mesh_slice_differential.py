"""What a mesh slice reads once, against what it used to re-read.

The slice loop reads its capacity from one per-window map
(:meth:`ResourceSet.capacities`) and the mesh advances its controllers
over its flat enclave map.  Neither may move an answer or a byte:

* the map equals ``{lt: quantity(lt, w)}`` in value and type, over int,
  ``Fraction``, float and mixed windows, and never enters a pickle;
* the flat advance leaves every controller pickling as the recursive
  ``Enclave.walk()`` leaves it, at every ``poll``/``decide`` of E23 runs;
* conservation gaps, whose oracle integral stays its own, are still
  worded in ``str`` order of their types.
"""

from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction

import pytest

from repro.faults import PartitionPlan, run_mesh
from repro.faults.netfaults import MeshPolicy
from repro.intervals import Interval
from repro.resources import ResourceSet, cpu, memory, network, term
from repro.system import SimulationTrace


def _same(new, old) -> bool:
    return type(new) is type(old) and new == old


# ----------------------------------------------------------------------
# The per-window capacity map
# ----------------------------------------------------------------------
def _types():
    """Located types at nodes no other test names: located types are
    interned process-wide, and a test may pin the identity of a location
    it builds itself."""
    return (
        cpu("cap-a"), cpu("cap-b"), memory("cap-a"),
        network("cap-a", "cap-b"),
    )


def _rate(rng: random.Random, exact: bool):
    if exact:
        return rng.choice((rng.randrange(1, 6), Fraction(rng.randrange(1, 9), 3)))
    return rng.choice((0.5, 1.25, 3.0))


def _time(rng: random.Random, kind: str):
    whole = rng.randrange(0, 12)
    if kind == "int":
        return whole
    if kind == "fraction":
        return Fraction(whole * 4 + rng.randrange(4), 4)
    return whole + rng.choice((0.0, 0.25, 0.5))


def _resources(seed: int) -> ResourceSet:
    rng = random.Random(f"capacity:{seed}")
    exact = seed % 3 != 2
    terms = []
    for ltype in _types():
        for _ in range(rng.randrange(1, 4)):
            start = _time(rng, rng.choice(("int", "fraction")) if exact else "float")
            terms.append(term(_rate(rng, exact), ltype, start, start + 1 + rng.randrange(6)))
    return ResourceSet(terms)


WINDOW_KINDS = (
    ("int", "int"),
    ("fraction", "fraction"),
    ("float", "float"),
    ("int", "fraction"),
    ("fraction", "int"),
    ("int", "float"),
    ("float", "fraction"),
)


def _window(rng: random.Random, kinds) -> Interval:
    while True:
        start, end = _time(rng, kinds[0]), _time(rng, kinds[1])
        if end > start:
            return Interval(start, end)


@pytest.mark.parametrize("seed", range(9))
def test_the_map_is_the_per_type_quantity_in_value_and_type(seed):
    resources = _resources(seed)
    rng = random.Random(f"windows:{seed}")
    for kinds in WINDOW_KINDS:
        for _ in range(6):
            window = _window(rng, kinds)
            capacities = resources.capacities(window)
            assert list(capacities) == list(resources.located_types)
            for ltype in resources.located_types:
                assert _same(
                    capacities[ltype], resources.quantity(ltype, window)
                ), (seed, window, ltype)


def test_equal_windows_of_other_types_do_not_share_a_map():
    """``Interval(1, 2) == Interval(1.0, 2.0)``, but their integrals'
    types differ: the cache key holds the endpoint types."""
    resources = ResourceSet.of(term(2, cpu("cap-a"), 0, 10))
    windows = (
        Interval(1, 2), Interval(1.0, 2.0), Interval(Fraction(1), 2),
        Interval(1, 2.0), Interval(1, 2),
    )
    assert len(set(windows)) == 1
    for window in windows:
        got = resources.capacities(window)[cpu("cap-a")]
        assert _same(got, resources.quantity(cpu("cap-a"), window)), window


def test_the_map_is_read_only_and_reused_for_its_window():
    resources = ResourceSet.of(term(2, cpu("cap-a"), 0, 10))
    first = resources.capacities(Interval(1, 3))
    with pytest.raises(TypeError):
        first[cpu("cap-a")] = 0  # type: ignore[index]
    assert resources.capacities(Interval(1, 3)) is first
    assert resources.capacities(Interval(1, 4)) is not first
    assert ResourceSet().capacities(Interval(0, 1)) == {}


@pytest.mark.parametrize("seed", range(3))
def test_a_map_read_leaves_the_pickle_bytes_alone(seed):
    resources = _resources(seed)
    protocols = range(2, pickle.HIGHEST_PROTOCOL + 1)
    before = [pickle.dumps(resources, protocol=p) for p in protocols]
    resources.capacities(Interval(1, 5))
    assert [pickle.dumps(resources, protocol=p) for p in protocols] == before
    clone = pickle.loads(before[-1])
    assert clone == resources
    assert dict(clone.capacities(Interval(1, 5))) == dict(
        resources.capacities(Interval(1, 5))
    )
    assert copy.deepcopy(resources) == resources


# ----------------------------------------------------------------------
# The flat enclave advance
# ----------------------------------------------------------------------
E23_PLANS = (
    PartitionPlan(
        seed=7, horizon=96, children=3, partition_start=40,
        partition_duration=24, link_delay=1, link_jitter=2, link_loss=0.1,
    ),
    PartitionPlan(seed=3, horizon=60, partition_start=12,
                  partition_duration=10, link_delay=1, link_loss=0.1),
)


@pytest.mark.parametrize("plan", E23_PLANS, ids=("children3", "quick"))
def test_flat_advance_pickles_every_controller_as_the_walk_does(
    plan, monkeypatch
):
    flat = MeshPolicy._advance
    checked = []

    def differential(self, now):
        # Advance a copy of the tree by the recursive walk, the real tree
        # by the flat enclave map, then compare every controller's pickle.
        if self._root is None:
            return flat(self, now)
        walked = pickle.loads(pickle.dumps(self._root))
        for enclave in walked.walk():
            enclave.controller.advance_to(now)
        flat(self, now)
        assert tuple(self._enclaves.values()) == tuple(self._root.walk())
        mine = [pickle.dumps(e.controller) for e in self._root.walk()]
        theirs = [pickle.dumps(e.controller) for e in walked.walk()]
        assert mine == theirs, now
        checked.append(now)

    monkeypatch.setattr(MeshPolicy, "_advance", differential)
    _, policy = run_mesh(plan)
    assert len(checked) > plan.horizon  # every poll, plus the decides
    restored = pickle.loads(pickle.dumps(policy))
    assert tuple(restored._enclaves.values()) == tuple(restored.root.walk())


# ----------------------------------------------------------------------
# Conservation gaps
# ----------------------------------------------------------------------
def test_gaps_across_types_are_worded_in_name_order():
    trace = SimulationTrace()
    types = [
        network("gap-b", "gap-a"), cpu("gap-z"), memory("gap-m"), cpu("gap-a"),
    ]
    for ltype in types:
        trace.record_loss(0, "crash", ltype, 1)
    offered = {ltype: 5 for ltype in reversed(types)}
    gaps = trace.conservation_gaps(offered)
    assert len(gaps) == len(types)
    named = sorted(types, key=str)
    for ltype, message in zip(named, gaps):
        assert message.startswith(f"conservation: {ltype} offered 5 ")
    balanced = {ltype: 1 for ltype in types}
    balanced[cpu("gap-z")] = 2
    assert trace.conservation_gaps(balanced) == [
        f"conservation: {cpu('gap-z')} offered 2 but accounted "
        "(consumed+expired+lost) = 1"
    ]
