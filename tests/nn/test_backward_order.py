"""``Tensor.backward`` visits nodes in the order of the reference sort.

The order in which backward functions run fixes the order in which a
node's consumers add into its gradient, and so the last bits of every
gradient.  The reference below is the explicit-stack topological sort the
tape used before its depth-first walk was rewritten; the tape must call the
backward functions of a graph in exactly its reversed post-order.
"""

import numpy as np
import pytest

from repro import nn
from repro.demand.ddgnn import DDGNN
from repro.nn.tensor import Tensor, concatenate, pad, stack


def reference_order(root):
    """Non-leaf nodes in the order the reference sort runs their backward."""
    order, visited, pending = [], set(), [(root, False)]
    while pending:
        node, processed = pending.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        pending.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                pending.append((parent, False))
    return [node for node in reversed(order) if node._backward is not None]


def recorded_order(root):
    """Run ``root.backward()`` and return the nodes whose backward ran, in
    call order."""
    calls, pending, seen = [], [root], set()
    while pending:
        node = pending.pop()
        if id(node) in seen or node._backward is None:
            continue
        seen.add(id(node))

        def record(grad, node=node, inner=node._backward):
            calls.append(node)
            inner(grad)

        node._backward = record
        pending.extend(node._parents)
    root.backward()
    return calls


def _random_graph(rng):
    leaves = [Tensor(rng.standard_normal(3), requires_grad=bool(rng.random() < 0.8)) for _ in range(4)]
    pool = list(leaves)
    for _ in range(int(rng.integers(1, 40))):
        x, y = (pool[i] for i in rng.integers(0, len(pool), size=2))
        op = int(rng.integers(0, 5))
        if op == 0:
            pool.append(x + y)
        elif op == 1:
            pool.append(x * y)
        elif op == 2:
            pool.append(concatenate([x, y, x])[2:5])
        elif op == 3:
            pool.append(stack([x, y]).sum(axis=0))
        else:
            pool.append(pad(x, 1, 2)[1:4] - y)
    root = pool[-1].sum()
    for extra in pool[-5:-1]:
        root = root + extra.sum()
    return root


@pytest.mark.parametrize("seed", range(60))
def test_random_graph_order_matches_reference(seed):
    root = _random_graph(np.random.default_rng(seed))
    if not root.requires_grad:
        pytest.skip("no leaf of this graph requires a gradient")
    expected = reference_order(root)
    assert [id(node) for node in recorded_order(root)] == [id(node) for node in expected]


def test_ddgnn_training_graph_order_matches_reference():
    rng = np.random.default_rng(0)
    model = DDGNN(num_cells=6, k=2, history=4, hidden=4, embedding_dim=4, seed=0)
    windows = Tensor((rng.random((2, 4, 6, 2)) < 0.3).astype(np.float64))
    targets = Tensor((rng.random((2, 6, 2)) < 0.3).astype(np.float64))
    loss = nn.BCELoss()(model(windows), targets)
    expected = reference_order(loss)
    assert len(expected) > 100
    assert [id(node) for node in recorded_order(loss)] == [id(node) for node in expected]
