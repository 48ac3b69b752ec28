"""Gradient-buffer ownership on the autograd tape (see ``repro.nn.tensor``).

Backward functions hand freshly allocated gradients to their parent instead
of copying them, and a basic-index ``getitem`` adds into its parent's buffer
in place.  Both are only correct while every ``grad`` array belongs to one
tensor alone.  Each graph below feeds one tensor to several consumers and
checks two things after ``backward``:

* every leaf gradient equals a value computed with plain NumPy -- all data
  are small integers, so every sum is exact and the comparison is equality;
* no leaf gradient shares memory with another leaf's gradient, with the
  ``data`` of any node of the forward graph, or with the seed gradient.
"""

import numpy as np
import pytest

from repro.nn import CausalConv1d
from repro.nn.tensor import Tensor, pad


def _integers(rng, shape):
    return rng.integers(-4, 5, size=shape).astype(np.float64)


def _nodes(root):
    """Every tensor of the graph under ``root``, taken before ``backward``
    releases the parent links."""
    nodes, seen, pending = [], set(), [root]
    while pending:
        node = pending.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            pending.extend(node._parents)
    return nodes


def _backward_and_check(root, seed, expected):
    """``expected``: ``[(leaf, gradient)]``."""
    forward = [node.data for node in _nodes(root)]
    root.backward(seed)
    leaves = [leaf for leaf, _ in expected]
    for index, (leaf, gradient) in enumerate(expected):
        np.testing.assert_array_equal(leaf.grad, gradient)
        others = [other.grad for other in leaves[:index] + leaves[index + 1:]]
        for array in others + forward + [seed]:
            assert not np.shares_memory(leaf.grad, array)


def _add_self(rng):
    x = Tensor(_integers(rng, (3, 4)), requires_grad=True)
    seed = _integers(rng, (3, 4))
    return x + x, seed, [(x, seed + seed)]


def _mul_self(rng):
    x = Tensor(_integers(rng, (3, 4)), requires_grad=True)
    seed = _integers(rng, (3, 4))
    return x * x, seed, [(x, seed * x.data + seed * x.data)]


def _add_two_leaves(rng):
    x = Tensor(_integers(rng, (3, 4)), requires_grad=True)
    y = Tensor(_integers(rng, (3, 4)), requires_grad=True)
    seed = _integers(rng, (3, 4))
    return x + y, seed, [(x, seed), (y, seed)]


def _diamond(rng):
    """One intermediate read through reshape, transpose, getitem, pad and
    directly, the branches summed back together."""
    x = Tensor(_integers(rng, (2, 3, 4)), requires_grad=True)
    y = Tensor(_integers(rng, (2, 3, 4)), requires_grad=True)
    p = x * y
    viewed = p.reshape(6, 4).reshape(2, 3, 4)
    swapped = p.transpose(2, 0, 1).transpose(1, 2, 0)
    cropped = pad(p, 2, 1)[..., 2:6]
    middle = pad(p[:, :, 1:3], 1, 1)
    root = viewed + swapped + cropped + middle + p
    seed = _integers(rng, (2, 3, 4))
    p_grad = 4 * seed
    p_grad[:, :, 1:3] += seed[:, :, 1:3]
    return root, seed, [(x, p_grad * y.data), (y, p_grad * x.data)]


def _broadcast_bias(rng):
    x = Tensor(_integers(rng, (5, 3)), requires_grad=True)
    w = Tensor(_integers(rng, (3, 4)), requires_grad=True)
    b = Tensor(_integers(rng, (4,)), requires_grad=True)
    hidden = x @ w + b
    root = hidden * hidden + b
    seed = _integers(rng, (5, 4))
    hidden_grad = 2 * seed * hidden.data
    return root, seed, [
        (x, hidden_grad @ w.data.T),
        (w, x.data.T @ hidden_grad),
        (b, hidden_grad.sum(axis=0) + seed.sum(axis=0)),
    ]


def _conv_taps(rng):
    """A causal convolution: three overlapping tap windows of one padded
    input, and three ``weight[k]`` slices of one parameter."""
    conv = CausalConv1d(3, 2, kernel_size=3, dilation=1, seed=0)
    conv.weight.data = _integers(rng, conv.weight.data.shape)
    conv.bias.data = _integers(rng, conv.bias.data.shape)
    x = Tensor(_integers(rng, (2, 3, 5)), requires_grad=True)
    root = conv(x)
    seed = _integers(rng, (2, 2, 5))

    moved = np.concatenate([np.zeros((2, 3, 2)), x.data], axis=2).transpose(0, 2, 1)
    seed_moved = seed.transpose(0, 2, 1)  # (batch, length, out)
    moved_grad = np.zeros_like(moved)
    weight_grad = np.zeros_like(conv.weight.data)
    for k in range(3):
        moved_grad[:, k:k + 5, :] += seed_moved @ conv.weight.data[k].T
        weight_grad[k] = sum(moved[b, k:k + 5, :].T @ seed_moved[b] for b in range(2))
    return root, seed, [
        (x, moved_grad.transpose(0, 2, 1)[:, :, 2:]),
        (conv.weight, weight_grad),
        (conv.bias, seed.sum(axis=(0, 2))),
    ]


GRAPHS = {
    "add_self": _add_self,
    "mul_self": _mul_self,
    "add_two_leaves": _add_two_leaves,
    "diamond_reshape_transpose_getitem_pad": _diamond,
    "broadcast_bias": _broadcast_bias,
    "conv_taps": _conv_taps,
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_leaf_gradients_are_exact_and_owned(name):
    root, seed, expected = GRAPHS[name](np.random.default_rng(5))
    _backward_and_check(root, seed, expected)


def test_leaf_gradient_accumulates_across_graphs_without_aliasing():
    rng = np.random.default_rng(6)
    x = Tensor(_integers(rng, (4, 3)), requires_grad=True)
    first, second = _integers(rng, (2, 3)), _integers(rng, (4, 3))
    x[1:3].backward(first)
    owned = x.grad
    (x * 2.0).backward(second)
    assert x.grad is owned  # added in place, not replaced
    expected = 2.0 * second
    expected[1:3] += first
    np.testing.assert_array_equal(x.grad, expected)
    assert not np.shares_memory(x.grad, first) and not np.shares_memory(x.grad, second)
