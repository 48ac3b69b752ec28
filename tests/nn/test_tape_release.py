"""The autograd tape's lifetime contract (see ``repro.nn.tensor``).

Reference counting alone frees a graph -- after ``backward()`` and also when
a forward is dropped without one -- so nothing here may depend on the cyclic
garbage collector: the ``no_gc`` fixture (``tests/conftest.py``) switches it
off, and it is only used, under ``DEBUG_SAVEALL``, to prove it would have
found no ``Tensor`` to collect.
"""

import gc
import weakref

import numpy as np
import pytest

from repro import nn
from repro.demand.ddgnn import DDGNN
from repro.nn.tensor import Tensor, concatenate, stack

M, K, HISTORY, BATCH = 6, 2, 4, 3


def _cyclic_tensors():
    """Tensors only the cycle collector could reclaim right now."""
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return [obj for obj in gc.garbage if isinstance(obj, Tensor)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def _intermediates(root):
    """Weak references to every non-leaf node of the graph under ``root``."""
    refs, seen, pending = [], set(), [root]
    while pending:
        node = pending.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._parents:
            refs.append(weakref.ref(node))
            pending.extend(node._parents)
    return refs


def _ddgnn_graph(model):
    """One training-shaped forward: the loss and weakrefs to its whole tape."""
    rng = np.random.default_rng(0)
    windows = Tensor((rng.random((BATCH, HISTORY, M, K)) < 0.3).astype(np.float64))
    targets = Tensor((rng.random((BATCH, M, K)) < 0.3).astype(np.float64))
    loss = nn.BCELoss()(model(windows), targets)
    watched = _intermediates(loss)
    assert len(watched) > 100 * BATCH
    return loss, watched


@pytest.fixture
def model():
    return DDGNN(num_cells=M, k=K, history=HISTORY, hidden=4, embedding_dim=4, seed=0)


def test_backward_releases_every_intermediate_by_refcount(model, no_gc):
    loss, watched = _ddgnn_graph(model)
    assert all(ref() is not None for ref in watched)
    loss.backward()
    del loss
    assert not any(ref() is not None for ref in watched)
    assert _cyclic_tensors() == []
    assert all(p.grad is not None for p in model.parameters())


def test_dropped_forward_is_freed_without_backward(model, no_gc):
    loss, watched = _ddgnn_graph(model)
    del loss
    assert not any(ref() is not None for ref in watched)
    assert _cyclic_tensors() == []


def test_concatenate_and_stack_nodes_hold_no_cycle(no_gc):
    leaf = Tensor(np.ones((2, 3)), requires_grad=True)
    joined = concatenate([leaf * 2.0, leaf], axis=0)
    piled = stack([joined, joined + 1.0], axis=0)
    watched = [weakref.ref(joined), weakref.ref(piled)]
    del joined, piled
    assert [ref() for ref in watched] == [None, None]
    assert _cyclic_tensors() == []


def test_long_chain_is_freed_without_recursion_error(no_gc):
    node = Tensor(np.ones(2), requires_grad=True)
    for _ in range(20_000):
        node = node + 1.0
    bottom = weakref.ref(node._parents[0])
    del node
    assert bottom() is None


def test_second_backward_through_released_graph_raises():
    leaf = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    hidden = leaf * 3.0
    loss = hidden.sum()
    loss.backward()
    np.testing.assert_array_equal(leaf.grad, [3.0, 3.0])
    with pytest.raises(RuntimeError, match="released"):
        loss.backward()
    # A new graph that reuses a consumed intermediate is refused as well.
    with pytest.raises(RuntimeError, match="released"):
        (hidden * 2.0).sum().backward()
    np.testing.assert_array_equal(leaf.grad, [3.0, 3.0])


def test_intermediate_grads_are_dropped_and_leaf_grads_kept():
    leaf = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    hidden = leaf * leaf
    loss = hidden.sum()
    loss.backward()
    assert hidden.grad is None and loss.grad is None
    assert hidden._parents == () and loss._parents == ()
    np.testing.assert_array_equal(leaf.grad, [2.0, -4.0])


def test_leaf_grads_accumulate_across_graphs_sharing_a_parameter():
    weight = nn.Parameter(np.array([[1.0, 2.0], [3.0, 4.0]]))
    first = Tensor(np.array([[1.0, 0.0]]))
    second = Tensor(np.array([[0.0, 5.0]]))
    (first @ weight).sum().backward()
    after_first = weight.grad.copy()
    (second @ weight).sum().backward()
    np.testing.assert_array_equal(after_first, [[1.0, 1.0], [0.0, 0.0]])
    np.testing.assert_array_equal(weight.grad, [[1.0, 1.0], [5.0, 5.0]])


def test_seed_gradient_is_not_aliased_by_a_leaf_root():
    leaf = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    seed = np.array([1.0, 1.0])
    leaf.backward(seed)
    (leaf * 2.0).sum().backward()
    np.testing.assert_array_equal(seed, [1.0, 1.0])
    np.testing.assert_array_equal(leaf.grad, [3.0, 3.0])
