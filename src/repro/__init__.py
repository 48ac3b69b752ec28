"""repro — a reproduction of DATA-WA (ICDE 2025).

DATA-WA is a spatial-crowdsourcing framework that maximises the number of
assigned location-based tasks by predicting future task demand with a
Dynamic Dependency-based Graph Neural Network and adaptively re-planning
worker task sequences with a worker-dependency-separation search guided by
a reinforcement-learned Task Value Function.

The package is organised as follows:

* :mod:`repro.nn` — NumPy autograd / neural-network substrate.
* :mod:`repro.spatial` — geometry, grids, travel models and per-epoch travel
  matrices, the bucket index road networks snap points with.
* :mod:`repro.core` — tasks, workers, sequences, assignments, the ATA problem.
* :mod:`repro.demand` — the DDGNN demand predictor and its baselines.
* :mod:`repro.assignment` — worker dependency separation, DFSearch, TVF,
  the TPA planner (Alg. 4), and the five evaluated strategies.
* :mod:`repro.simulation` — the streaming SC platform: the adaptive
  algorithm (Alg. 3) driving a strategy over an arrival stream.
* :mod:`repro.datasets` — Yueche / DiDi-like synthetic workload generators.
* :mod:`repro.experiments` — drivers regenerating every figure and table.
"""

from repro.core import (
    Assignment,
    ATAInstance,
    AvailabilityWindow,
    Task,
    TaskSequence,
    Worker,
    WorkerPlan,
)
from repro.spatial import BoundingBox, GridSpec, Point
from repro.demand import (
    DDGNN,
    DemandPredictor,
    DemandTrainer,
    GraphWaveNetDemandModel,
    LSTMDemandModel,
)
from repro.assignment import (
    DataWAStrategy,
    DTAPlusTPStrategy,
    DTAStrategy,
    FTAStrategy,
    GreedyStrategy,
    PlannerConfig,
    TaskPlanner,
    TaskValueFunction,
    make_strategy,
)
from repro.simulation import PlatformConfig, SCPlatform, SimulationRunner
from repro.datasets import (
    SyntheticWorkloadGenerator,
    WorkloadConfig,
    generate_didi,
    generate_yueche,
)
from repro.experiments import AssignmentExperiment, ExperimentScale, PredictionExperiment

__version__ = "1.0.0"

__all__ = [
    "Task",
    "Worker",
    "AvailabilityWindow",
    "TaskSequence",
    "Assignment",
    "WorkerPlan",
    "ATAInstance",
    "Point",
    "BoundingBox",
    "GridSpec",
    "DDGNN",
    "LSTMDemandModel",
    "GraphWaveNetDemandModel",
    "DemandTrainer",
    "DemandPredictor",
    "TaskPlanner",
    "PlannerConfig",
    "TaskValueFunction",
    "GreedyStrategy",
    "FTAStrategy",
    "DTAStrategy",
    "DTAPlusTPStrategy",
    "DataWAStrategy",
    "make_strategy",
    "SCPlatform",
    "PlatformConfig",
    "SimulationRunner",
    "SyntheticWorkloadGenerator",
    "WorkloadConfig",
    "generate_yueche",
    "generate_didi",
    "ExperimentScale",
    "PredictionExperiment",
    "AssignmentExperiment",
    "__version__",
]
