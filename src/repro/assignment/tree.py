"""The partition tree of Recursive Tree Construction (Section IV-A.4).

RTC selects the clique of the worker dependency graph whose removal splits
it into the most components, makes it the root, and recurses on each
component (:mod:`repro.assignment.fast_partition` builds the tree; these
are its node types).  The tree has two properties the search exploits:

i.  the union of all node worker-sets is the full worker set, and
ii. workers in *sibling* subtrees are independent (their sub-problems can
    be solved separately).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class PartitionNode:
    """A node of the partition tree holding a cluster of dependent workers."""

    workers: List[int]
    children: List["PartitionNode"] = field(default_factory=list)

    def all_workers(self) -> List[int]:
        """Workers in this node and every descendant (preorder)."""
        out = list(self.workers)
        for child in self.children:
            out.extend(child.all_workers())
        return out

    def descendant_workers(self) -> List[int]:
        """Workers strictly below this node."""
        out: List[int] = []
        for child in self.children:
            out.extend(child.all_workers())
        return out

    @property
    def num_nodes(self) -> int:
        return 1 + sum(child.num_nodes for child in self.children)

    @property
    def depth(self) -> int:
        if not self.children:
            return 1
        return 1 + max(child.depth for child in self.children)


@dataclass
class PartitionTree:
    """A forest of partition trees, one per WDG connected component."""

    roots: List[PartitionNode]

    def all_workers(self) -> List[int]:
        out: List[int] = []
        for root in self.roots:
            out.extend(root.all_workers())
        return out

    @property
    def num_nodes(self) -> int:
        return sum(root.num_nodes for root in self.roots)

    @property
    def depth(self) -> int:
        return max((root.depth for root in self.roots), default=0)
