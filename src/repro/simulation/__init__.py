"""Streaming spatial-crowdsourcing simulator.

The simulator replays an :class:`~repro.core.problem.ATAInstance` as a
stream of worker/task arrivals, lets an assignment strategy (re)plan at
every decision point, executes the dispatched tasks with travel-time
semantics, and collects the two headline metrics of the paper's evaluation:
the total number of assigned tasks and the average CPU time per planning
call.
"""

from repro.simulation.clock import SimulationClock
from repro.simulation.metrics import SimulationMetrics
from repro.simulation.platform import SCPlatform, PlatformConfig
from repro.simulation.record import EpochRecord
from repro.simulation.runner import SimulationRunner, SimulationReport

__all__ = [
    "SimulationClock",
    "SimulationMetrics",
    "EpochRecord",
    "SCPlatform",
    "PlatformConfig",
    "SimulationRunner",
    "SimulationReport",
]
