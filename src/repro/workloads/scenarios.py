"""Named end-to-end scenarios used by examples and benchmarks.

Each scenario is a fully seeded (resources, events, horizon) bundle
representing one of the environments the paper's introduction motivates:

* :func:`cloud_scenario` — a stable provider cluster with bursty
  deadline-constrained arrivals (grid/cloud computing framing).
* :func:`volunteer_scenario` — a small stable backbone plus heavy peer
  churn (peer-owned resources joining and leaving).
* :func:`pipeline_scenario` — multi-phase jobs whose resource *order*
  matters (CPU -> network -> CPU); this is the workload on which
  aggregate-quantity admission is unsound, the failure Section III's
  "right resources at the right time" remark predicts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List

from repro.computation.demands import Demands
from repro.computation.requirements import ComplexRequirement
from repro.intervals.interval import Interval
from repro.resources.located_type import cpu, network
from repro.resources.resource_set import ResourceSet
from repro.system.events import (
    ComputationArrivalEvent,
    Event,
    ResourceJoinEvent,
    arrival,
)
from repro.system.node import Topology
from repro.workloads.churn import churn_events, stable_base
from repro.workloads.generator import poisson_arrivals, random_requirement

#: Poisson arrival intensity of the volunteer scenario's jobs.
VOLUNTEER_ARRIVAL_RATE = 0.3
#: The pipeline scenario's horizon, arrival intensity, and the factor
#: its windows stretch each job's bare duration by.
PIPELINE_HORIZON = 100
PIPELINE_ARRIVAL_RATE = 0.35
PIPELINE_TIGHTNESS = 1.3


@dataclass
class Scenario:
    """Everything a simulator run needs, reproducibly."""

    name: str
    initial_resources: ResourceSet
    events: List[Event] = field(default_factory=list)
    horizon: int = 100


def cloud_scenario(
    seed: int = 7,
    *,
    nodes: int = 4,
    horizon: int = 120,
    arrival_rate: float = 0.4,
) -> Scenario:
    """Stable full-mesh cluster; Poisson arrivals of mixed jobs."""
    rng = random.Random(seed)
    topology = Topology.full_mesh(nodes, cpu_rate=8, bandwidth=6)
    ltypes = [lt for lt, _ in topology.located_types()]
    events: List[Event] = [
        arrival(t, random_requirement(rng, ltypes, start=t, max_quantity=24))
        for t in poisson_arrivals(rng, rate=arrival_rate, horizon=horizon - 8)
    ]
    return Scenario(
        "cloud", topology.resources(Interval(0, horizon)), events, horizon
    )


def volunteer_scenario(
    seed: int = 11,
    *,
    nodes: int = 6,
    horizon: int = 150,
    session_rate: float = 0.25,
) -> Scenario:
    """Thin stable backbone + churning volunteer peers."""
    rng = random.Random(seed)
    topology = Topology.full_mesh(nodes, cpu_rate=6, bandwidth=4)
    base = stable_base(topology, horizon, fraction=0.25)
    events: List[Event] = list(
        churn_events(
            rng,
            topology,
            horizon=horizon,
            session_rate=session_rate,
            min_session=10,
            max_session=40,
        )
    )
    ltypes = [lt for lt, _ in topology.located_types()]
    events.extend(
        arrival(t, random_requirement(rng, ltypes, start=t, max_quantity=16))
        for t in poisson_arrivals(
            rng, rate=VOLUNTEER_ARRIVAL_RATE, horizon=horizon - 8
        )
    )
    return Scenario("volunteer", base, events, horizon)


def pipeline_scenario(seed: int = 13) -> Scenario:
    """CPU -> network -> CPU pipelines where ordering is everything.

    Resources are shaped adversarially for order-blind checks: the two
    nodes' CPU is plentiful *early*, the link capacity *late*.  A job
    needs CPU(src) first, then the link, then CPU(dst) — so aggregate
    totals look fine even when the job's third phase has no CPU left
    inside its feasible tail.  :data:`PIPELINE_TIGHTNESS` scales
    windows: below ~1.0 most jobs are infeasible, far above it
    everything fits.
    """
    horizon = PIPELINE_HORIZON
    rng = random.Random(seed)
    src_cpu, dst_cpu = cpu("src"), cpu("dst")
    link = network("src", "dst")
    half = horizon // 2
    resources = ResourceSet.of(
        # CPU available all along, but thinner late.
        *(
            [
                _term(8, src_cpu, 0, half),
                _term(2, src_cpu, half, horizon),
                _term(8, dst_cpu, 0, half),
                _term(2, dst_cpu, half, horizon),
                # Link capacity only in the late half.
                _term(6, link, half, horizon),
            ]
        )
    )
    events: List[Event] = []
    for index, t in enumerate(
        poisson_arrivals(rng, rate=PIPELINE_ARRIVAL_RATE, horizon=horizon - 10)
    ):
        work = rng.randint(4, 12)
        base_duration = work * 2
        duration = max(6, int(base_duration * PIPELINE_TIGHTNESS))
        window = Interval(t, min(horizon, t + duration))
        requirement = ComplexRequirement(
            [
                Demands({src_cpu: work}),
                Demands({link: work}),
                Demands({dst_cpu: work}),
            ],
            window,
            label=f"pipe{index}",
        )
        events.append(arrival(t, requirement))
    return Scenario("pipeline", resources, events, horizon)


def _term(rate, ltype, start, end):
    from repro.resources.term import ResourceTerm

    return ResourceTerm(rate, ltype, Interval(start, end))
