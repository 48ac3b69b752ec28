"""Task assignment (Section IV): worker dependency separation, DFSearch,
the Task Value Function and the adaptive assignment algorithm.

Module map
----------

==========================  ====================================================
:mod:`reachability`          reachable-task computation (Section IV-A.1): one
                             entry point with a validity horizon, over a
                             scalar oracle and a vector kernel
:mod:`sequences`             maximal valid task sequence generation (Eq. 10)
:mod:`dependency_graph`      worker dependency graph construction (IV-A.2)
:mod:`partition`             MCS graph partition into cliques (IV-A.3)
:mod:`tree`                  recursive tree construction, RTC (IV-A.4)
:mod:`fast_partition`        IV-A.2 – IV-A.4 on plain adjacency (hot path)
:mod:`dfsearch`              exact DFSearch, Alg. 1 (also collects RL data)
                             and the anytime branch-and-bound engine
:mod:`tvf`                   Task Value Function, Eq. 11–12
:mod:`dfsearch_tvf`          TVF-guided search, Alg. 2
:mod:`executor`              pluggable search backends (serial / process pool)
:mod:`incremental`           the TPA plan pipeline, Alg. 4 — the one
                             implementation, with dirty-region reuse across
                             epochs (a full replan is an empty cache)
:mod:`planner`               ``PlannerConfig`` and the ``TaskPlanner`` facade
:mod:`adaptive`              the adaptive streaming algorithm, Alg. 3
:mod:`baselines`             Greedy and FTA comparison methods
:mod:`strategies`            the five evaluated strategies behind one API
==========================  ====================================================
"""

from repro.assignment.reachability import (
    reachable_tasks,
    reachable_tasks_matrix,
    reachable_tasks_with_horizon,
)
from repro.assignment.sequences import maximal_valid_sequences, best_order_for_subset
from repro.assignment.dependency_graph import build_worker_dependency_graph
from repro.assignment.fast_partition import (
    build_adjacency,
    build_partition_tree_fast,
    connected_components,
)
from repro.assignment.partition import chordal_cliques, maximum_cardinality_search
from repro.assignment.tree import PartitionTree, PartitionNode, build_partition_tree
from repro.assignment.dfsearch import (
    DFSearchResult,
    dfsearch,
    dfsearch_bnb,
    collect_training_experience,
)
from repro.assignment.tvf import (
    TaskValueFunction,
    Experience,
    featurize_state_action,
    featurize_state,
    featurize_actions_batch,
)
from repro.assignment.dfsearch_tvf import dfsearch_tvf
from repro.assignment.executor import (
    ComponentJob,
    ComponentResult,
    ParallelExecutor,
    SearchExecutor,
    SerialExecutor,
    make_executor,
    run_component_job,
    shutdown_shared_pools,
)
from repro.assignment.planner import TaskPlanner, PlannerConfig
from repro.assignment.adaptive import AdaptiveAssigner
from repro.assignment.baselines import greedy_assignment, fixed_task_assignment
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
    "best_order_for_subset",
    "build_worker_dependency_graph",
    "build_adjacency",
    "build_partition_tree_fast",
    "connected_components",
    "chordal_cliques",
    "maximum_cardinality_search",
    "PartitionTree",
    "PartitionNode",
    "build_partition_tree",
    "DFSearchResult",
    "dfsearch",
    "dfsearch_bnb",
    "collect_training_experience",
    "TaskValueFunction",
    "Experience",
    "featurize_state_action",
    "featurize_state",
    "featurize_actions_batch",
    "dfsearch_tvf",
    "ComponentJob",
    "ComponentResult",
    "SearchExecutor",
    "SerialExecutor",
    "ParallelExecutor",
    "make_executor",
    "run_component_job",
    "shutdown_shared_pools",
    "TaskPlanner",
    "PlannerConfig",
    "AdaptiveAssigner",
    "greedy_assignment",
    "fixed_task_assignment",
    "AssignmentStrategy",
    "GreedyStrategy",
    "FTAStrategy",
    "DTAStrategy",
    "DTAPlusTPStrategy",
    "DataWAStrategy",
    "make_strategy",
]
