"""Task assignment (Section IV): worker dependency separation, the exact
component search, the Task Value Function and the evaluated assignment
strategies.

Module map
----------

==========================  ====================================================
:mod:`reachability`          reachable-task computation (Section IV-A.1): one
                             entry point with a validity horizon, over a
                             scalar oracle and a vector kernel
:mod:`sequences`             maximal valid task sequence generation (Eq. 10)
:mod:`fast_partition`        worker dependency graph, MCS clique partition
                             and RTC (IV-A.2 – IV-A.4) on plain adjacency
:mod:`tree`                  the partition tree's node types
:mod:`dfsearch`              the optimum of Alg. 1 by anytime branch-and-bound
                             (also collects RL data)
:mod:`tvf`                   Task Value Function, Eq. 11–12
:mod:`dfsearch_tvf`          TVF-guided search, Alg. 2
:mod:`executor`              one component search as a value (job + runner)
:mod:`incremental`           the TPA plan pipeline, Alg. 4 — the one
                             implementation, with dirty-region reuse across
                             epochs (a full replan is an empty cache)
:mod:`planner`               ``PlannerConfig`` and the ``TaskPlanner`` facade
:mod:`baselines`             the Greedy comparison method
:mod:`strategies`            the five evaluated strategies behind one API
==========================  ====================================================

The adaptive streaming loop (Alg. 3) is
:class:`repro.simulation.platform.SCPlatform`, which drives a strategy.
Reference/oracle variants of these stages (scalar pipeline, graph-library
partitioner, plain DFSearch, scalar TVF featuriser) live in
``tests/assignment/``.
"""

from repro.assignment.reachability import (
    reachable_tasks,
    reachable_tasks_matrix,
    reachable_tasks_with_horizon,
)
from repro.assignment.sequences import maximal_valid_sequences
from repro.assignment.fast_partition import (
    build_adjacency,
    build_partition_tree_fast,
    connected_components,
)
from repro.assignment.tree import PartitionTree, PartitionNode
from repro.assignment.dfsearch import DFSearchResult, dfsearch_bnb
from repro.assignment.tvf import (
    TaskValueFunction,
    Experience,
    featurize_state,
    featurize_actions_batch,
)
from repro.assignment.dfsearch_tvf import dfsearch_tvf
from repro.assignment.executor import (
    ComponentJob,
    ComponentResult,
    run_component_job,
)
from repro.assignment.planner import TaskPlanner, PlannerConfig
from repro.assignment.baselines import greedy_assignment
from repro.assignment.strategies import (
    AssignmentStrategy,
    GreedyStrategy,
    FTAStrategy,
    DTAStrategy,
    DTAPlusTPStrategy,
    DataWAStrategy,
    make_strategy,
)

__all__ = [
    "reachable_tasks",
    "reachable_tasks_matrix",
    "reachable_tasks_with_horizon",
    "maximal_valid_sequences",
    "build_adjacency",
    "build_partition_tree_fast",
    "connected_components",
    "PartitionTree",
    "PartitionNode",
    "DFSearchResult",
    "dfsearch_bnb",
    "TaskValueFunction",
    "Experience",
    "featurize_state",
    "featurize_actions_batch",
    "dfsearch_tvf",
    "ComponentJob",
    "ComponentResult",
    "run_component_job",
    "TaskPlanner",
    "PlannerConfig",
    "greedy_assignment",
    "AssignmentStrategy",
    "GreedyStrategy",
    "FTAStrategy",
    "DTAStrategy",
    "DTAPlusTPStrategy",
    "DataWAStrategy",
    "make_strategy",
]
