"""Discrete-event simulation kernel used by every subsystem in repro.

Public surface:

* :class:`Simulator` — clock + ``heapq`` event queue (events and direct calls).
* :class:`Event`, :class:`Timeout`, :class:`AnyOf`, :class:`AllOf` — waitables.
* :class:`Process` — generator-based coroutine; also an event.
* :class:`Store`, :class:`Resource`, :class:`Container` — shared resources.
* :class:`ShardedSimulation`, :class:`ShardChannel` — conservative-lookahead
  sharding of one run across per-shard simulators.
* :class:`PartitionPlan`, :func:`plan_partition` — event-weight-driven
  placement of host planes (inter-host *and* intra-host cuts) on shards.
* :data:`NANOS`, :data:`MICROS`, :data:`MILLIS` — time-unit helpers.
"""

from .engine import MICROS, MILLIS, NANOS, Simulator
from .events import AllOf, AnyOf, Event, Interrupt, SimulationError, Timeout
from .fluid import FidelityController, FluidFlow, FluidRoute
from .partition import DEFAULT_RING_LATENCY, PartitionPlan, PlanUnit, plan_partition
from .process import Process
from .resources import Container, Resource, Store
from .sharded import ShardChannel, ShardedSimulation, shard_for_host

__all__ = [
    "Simulator",
    "FidelityController",
    "FluidFlow",
    "FluidRoute",
    "ShardedSimulation",
    "ShardChannel",
    "shard_for_host",
    "PartitionPlan",
    "PlanUnit",
    "plan_partition",
    "DEFAULT_RING_LATENCY",
    "Event",
    "Timeout",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "SimulationError",
    "Process",
    "Store",
    "Resource",
    "Container",
    "NANOS",
    "MICROS",
    "MILLIS",
]
