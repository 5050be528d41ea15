"""Unit tests for CyberOrgs-style resource enclaves."""

from __future__ import annotations

import pytest

from repro.computation import ComplexRequirement, Demands
from repro.encapsulation import Enclave, EnclaveError
from repro.intervals import Interval
from repro.resources import ResourceSet, term


def creq(phases, s, d, label):
    return ComplexRequirement(phases, Interval(s, d), label=label)


@pytest.fixture
def root(cpu1, cpu2):
    return Enclave.root(
        ResourceSet.of(term(10, cpu1, 0, 100), term(10, cpu2, 0, 100))
    )


class TestSpawn:
    def test_spawn_carves_from_slack(self, root, cpu1):
        child = root.spawn("a", ResourceSet.of(term(4, cpu1, 0, 100)))
        assert child.parent is root
        assert root.slack.rate_at(cpu1, 0) == 6
        assert child.resources.rate_at(cpu1, 0) == 4

    def test_over_allotment_rejected(self, root, cpu1):
        with pytest.raises(EnclaveError):
            root.spawn("a", ResourceSet.of(term(11, cpu1, 0, 100)))

    def test_duplicate_name_rejected(self, root, cpu1):
        root.spawn("a", ResourceSet.of(term(1, cpu1, 0, 100)))
        with pytest.raises(EnclaveError):
            root.spawn("a", ResourceSet.of(term(1, cpu1, 0, 100)))

    def test_conservation_across_tree(self, root, cpu1):
        """Sum of children's resources + root slack + root commitments
        equals the root's resources (no resource is minted)."""
        a = root.spawn("a", ResourceSet.of(term(3, cpu1, 0, 100)))
        b = root.spawn("b", ResourceSet.of(term(5, cpu1, 0, 100)))
        window = Interval(0, 100)
        total = (
            root.slack.quantity(cpu1, window)
            + a.resources.quantity(cpu1, window)
            + b.resources.quantity(cpu1, window)
        )
        assert total == root.resources.quantity(cpu1, window)

    def test_nested_spawn(self, root, cpu1):
        child = root.spawn("a", ResourceSet.of(term(4, cpu1, 0, 100)))
        grandchild = child.spawn("a.a", ResourceSet.of(term(2, cpu1, 0, 100)))
        assert grandchild.parent is child
        assert child.slack.rate_at(cpu1, 0) == 2


class TestIsolation:
    def test_sibling_admissions_independent(self, root, cpu1):
        a = root.spawn("a", ResourceSet.of(term(4, cpu1, 0, 50)))
        b = root.spawn("b", ResourceSet.of(term(4, cpu1, 0, 50)))
        big = creq([Demands({cpu1: 200})], 0, 50, "big")
        assert a.admit(big).admitted          # 4*50 = 200, fits exactly
        # a's saturation does not affect b
        assert b.can_admit(creq([Demands({cpu1: 200})], 0, 50, "big2")).admitted

    def test_enclave_sees_only_its_slice(self, root, cpu1):
        a = root.spawn("a", ResourceSet.of(term(2, cpu1, 0, 50)))
        # globally 10/s available, but the enclave only has 2/s
        assert not a.can_admit(creq([Demands({cpu1: 101})], 0, 50, "x")).admitted
        assert a.can_admit(creq([Demands({cpu1: 100})], 0, 50, "x")).admitted

    def test_admit_anywhere_falls_through(self, root, cpu1):
        small = root.spawn("small", ResourceSet.of(term(1, cpu1, 0, 10)))
        roomy = small.spawn("roomy", ResourceSet.of(term(1, cpu1, 0, 10)))
        # 10 units: small has 10-10=0 slack after spawning roomy; roomy has 10
        placed = small.admit_anywhere(creq([Demands({cpu1: 10})], 0, 10, "j"))
        assert placed is roomy


class TestDissolveAndMigrate:
    def test_dissolve_returns_slack(self, root, cpu1):
        child = root.spawn("a", ResourceSet.of(term(4, cpu1, 0, 50)))
        child.admit(creq([Demands({cpu1: 100})], 0, 50, "j"))  # claims half
        recovered = root.dissolve("a")
        assert recovered.quantity(cpu1, Interval(0, 50)) == 100
        assert root.slack.quantity(cpu1, Interval(0, 50)) == 300 + 100

    def test_dissolve_after_part_of_the_allotment_expired(
        self, root, cpu1, cpu2
    ):
        """Time has cut the root's past (its own job finished): a spawn
        claims and a dissolve releases only what lies ahead, and the
        slack stays ``available - committed``."""
        root.admit(creq([Demands({cpu2: 10})], 0, 5, "short"))
        child = root.spawn("a", ResourceSet.of(term(4, cpu1, 0, 50)))
        child.admit(creq([Demands({cpu1: 100})], 20, 50, "j"))
        for enclave in root.walk():
            enclave.controller.advance_to(10)
        assert root.controller.admitted_labels == ()
        root.spawn("b", ResourceSet.of(term(1, cpu1, 0, 50)))
        recovered = root.dissolve("a")
        assert root.controller.verify_slack()
        ahead = Interval(10, 50)
        assert root.slack.quantity(cpu1, ahead) == (
            5 * 40 + recovered.quantity(cpu1, ahead)
        )

    def test_dissolve_unknown(self, root):
        with pytest.raises(EnclaveError):
            root.dissolve("ghost")

    def test_dissolve_requires_leaf(self, root, cpu1):
        child = root.spawn("a", ResourceSet.of(term(4, cpu1, 0, 50)))
        child.spawn("a.a", ResourceSet.of(term(1, cpu1, 0, 50)))
        with pytest.raises(EnclaveError):
            root.dissolve("a")

    def test_dissolved_enclave_unusable(self, root, cpu1):
        child = root.spawn("a", ResourceSet.of(term(4, cpu1, 0, 50)))
        root.dissolve("a")
        with pytest.raises(EnclaveError):
            child.admit(creq([Demands({cpu1: 1})], 0, 50, "late"))

    def test_migrate_between_siblings(self, root, cpu1, cpu2):
        a = root.spawn("a", ResourceSet.of(term(4, cpu1, 0, 50)))
        b = root.spawn("b", ResourceSet.of(term(4, cpu1, 0, 50)))
        job = creq([Demands({cpu1: 50})], 10, 50, "movable")
        assert a.admit(job).admitted
        decision = a.migrate("movable", b)
        assert decision.admitted
        assert "movable" not in a.controller.admitted_labels
        assert "movable" in b.controller.admitted_labels

    def test_migrate_rejection_restores(self, root, cpu1, cpu2):
        a = root.spawn("a", ResourceSet.of(term(4, cpu1, 0, 50)))
        b = root.spawn("b", ResourceSet.of(term(1, cpu2, 0, 50)))  # wrong type
        job = creq([Demands({cpu1: 50})], 10, 50, "stuck")
        assert a.admit(job).admitted
        decision = a.migrate("stuck", b)
        assert not decision.admitted
        assert "stuck" in a.controller.admitted_labels  # atomically restored


class TestNavigation:
    def test_walk_and_find(self, root, cpu1):
        a = root.spawn("a", ResourceSet.of(term(1, cpu1, 0, 10)))
        aa = a.spawn("aa", ResourceSet.of(term(1, cpu1, 0, 10)))
        names = [e.name for e in root.walk()]
        assert names == ["root", "a", "aa"]
        assert root.find("aa") is aa
        assert root.find("ghost") is None

    def test_child_accessor(self, root, cpu1):
        a = root.spawn("a", ResourceSet.of(term(1, cpu1, 0, 10)))
        assert root.child("a") is a
        with pytest.raises(EnclaveError):
            root.child("ghost")

    def test_is_root(self, root, cpu1):
        assert root.is_root
        assert not root.spawn("a", ResourceSet.of(term(1, cpu1, 0, 10))).is_root
