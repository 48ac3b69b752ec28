"""Reverse-mode automatic differentiation on NumPy arrays.

The :class:`Tensor` class wraps a ``numpy.ndarray`` and records the
operations applied to it so that gradients can be propagated backwards with
:meth:`Tensor.backward`.  The implementation is intentionally small: it
covers exactly the operations required by the models in this repository
(element-wise arithmetic, matrix multiplication, reductions, reshaping,
slicing, concatenation, and the usual nonlinearities) while keeping the
semantics of broadcasting identical to NumPy's.

Tape contract.  A non-leaf tensor references its parents and a backward
function that receives the tensor's gradient as an argument; nothing points
from a parent to its result, so the graph holds no reference cycle and
reference counting alone frees it -- a forward that is simply dropped, or a
graph that has been differentiated, needs no garbage-collector pass.
:meth:`Tensor.backward` *consumes* the graph: each node is released (backward
function, parent links, intermediate ``grad``) right after its gradient has
been handed on.  Leaf gradients (``Parameter.grad``) persist and accumulate
across graphs until ``zero_grad``.  There is no double backward: a second
``backward()`` through a released graph raises ``RuntimeError``.

Gradient buffers.  Every ``grad`` array is C-contiguous and owned by its
tensor alone, so accumulation adds into it in place.  A backward function
that allocates a new array for exactly one parent hands it over
(``_accumulate(..., owned=True)``) and the parent keeps it as its ``grad``
instead of copying it: ``neg``, ``mul``, ``div``, ``pow``, ``matmul``,
``mean``, ``max``, ``exp``, ``log``, ``tanh``, ``sigmoid``, ``relu``,
``softmax``, ``clip`` and the advanced-index ``getitem`` scatter do so, as
does the sum that undoes broadcasting.  Anything shared or a view is copied
on first accumulate: the one ``grad`` that ``add`` sends to both parents,
the views of ``reshape`` and ``transpose``, ``sum``'s ``broadcast_to``, and
the slices that ``concatenate``, ``stack`` and padding hand back.  A
basic-index ``getitem`` adds straight into the parent's buffer at the index,
so only its first contribution allocates.  None of this changes a
floating-point operation or its order -- a handed-over buffer that is not
C-contiguous is copied like a shared one, so later reductions see the same
memory layout -- except that a slice added in place skips the ``0.0 +``
that a full-size zero scatter applied, which can only change the sign of a
zero.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Optional, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, list, tuple, "Tensor"]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient tracking.

    Used during evaluation / inference so that forward passes do not build a
    computation graph.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether gradient tracking is currently enabled."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` (of another shape) so that it has ``shape``, undoing NumPy
    broadcasting.  The result never shares memory with ``grad``."""
    summed = grad
    # Sum over leading axes that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        summed = summed.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and summed.shape[i] != 1)
    if axes:
        summed = summed.sum(axis=axes, keepdims=True)
    return summed.reshape(shape) if summed is not grad else grad.reshape(shape).copy()


def _is_basic_index(index) -> bool:
    """Whether ``index`` is NumPy basic indexing, which selects no position twice."""
    items = index if isinstance(index, tuple) else (index,)
    return all(
        item is None or item is Ellipsis or isinstance(item, slice)
        or (isinstance(item, (int, np.integer)) and not isinstance(item, bool))
        for item in items
    )


def _released(grad: np.ndarray) -> None:
    """``_backward`` of a node whose graph a ``backward()`` already consumed."""
    raise RuntimeError("backward() through a graph that an earlier backward() released")


def _node(data, parents: tuple, op: str, backward: Callable[[np.ndarray], None]) -> "Tensor":
    """The result of ``op`` on ``parents``, built without ``Tensor.__init__``:
    ``data`` comes from NumPy arithmetic on float64 arrays, so only a scalar
    needs wrapping.  It records ``parents`` and ``backward`` only when one of
    them requires a gradient and tracking is on."""
    out = object.__new__(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data, dtype=np.float64)
    out.grad = None
    out._op = op
    if _GRAD_ENABLED:
        for parent in parents:
            if parent.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._backward = backward
                return out
    out.requires_grad = False
    out._parents = ()
    out._backward = None
    return out


class Tensor:
    """A NumPy-backed tensor with reverse-mode autodiff support."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op", "__weakref__")

    def __init__(self, data: ArrayLike, requires_grad: bool = False) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: tuple = ()
        self._op = ""

    # ------------------------------------------------------------------ #
    # Basic protocol
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """Return the underlying data as a (read-write) NumPy array."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # Gradient accumulation
    # ------------------------------------------------------------------ #
    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into ``self.grad``.  ``owned``: the caller allocated
        ``grad`` for this tensor alone, which may keep it (module docstring)."""
        if grad.shape != self.data.shape:
            grad = _unbroadcast(grad, self.data.shape)
            owned = True
        if self.grad is not None:
            self.grad += grad  # in place: the buffer is this tensor's own
        elif owned and type(grad) is np.ndarray and grad.flags.c_contiguous:
            self.grad = grad
        else:  # a C-ordered copy; a NumPy scalar becomes a 0-d array
            self.grad = np.array(grad, order="C")

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        return _node(data, (self, other), "add", backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(-grad, owned=True)

        return _node(data, (self,), "neg", backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * other.data, owned=True)
            if other.requires_grad:
                other._accumulate(grad * self.data, owned=True)

        return _node(data, (self, other), "mul", backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad / other.data, owned=True)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data ** 2), owned=True)

        return _node(data, (self, other), "div", backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        data = self.data ** exponent

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1), owned=True)

        return _node(data, (self,), "pow", backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other.data

        def backward(grad):
            if self.requires_grad:
                if other.data.ndim == 1:
                    mine = np.outer(grad, other.data) if grad.ndim == 1 else grad[..., None] * other.data
                    if self.data.ndim == 1:
                        mine = grad * other.data
                    self._accumulate(np.asarray(mine).reshape(self.data.shape), owned=True)
                else:
                    self._accumulate(grad @ other.data.swapaxes(-1, -2), owned=True)
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad), owned=True)
                else:
                    other._accumulate(self.data.swapaxes(-1, -2) @ grad, owned=True)

        return _node(data, (self, other), "matmul", backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            if not self.requires_grad:
                return
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            self._accumulate(np.broadcast_to(grad, self.data.shape))

        return _node(data, (self,), "sum", backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.mean(axis=axis, keepdims=keepdims)
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))

        def backward(grad):
            if not self.requires_grad:
                return
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            self._accumulate(np.broadcast_to(grad, self.data.shape) / count, owned=True)

        return _node(data, (self,), "mean", backward)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad):
            if not self.requires_grad:
                return
            full = self.data.max(axis=axis, keepdims=True)
            mask = (self.data == full).astype(np.float64)
            mask = mask / np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            self._accumulate(np.broadcast_to(grad, self.data.shape) * mask, owned=True)

        return _node(data, (self,), "max", backward)

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.reshape(self.data.shape))

        return _node(data, (self,), "reshape", backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        data = self.data.transpose(axes)
        inverse = [0] * len(axes)
        for position, axis in enumerate(axes):
            inverse[axis % len(axes)] = position

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return _node(data, (self,), "transpose", backward)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad):
            if not self.requires_grad:
                return
            if _is_basic_index(index):  # no position repeats: add in place
                if self.grad is None:
                    self.grad = np.zeros(self.data.shape)
                self.grad[index] += grad
            else:
                scattered = np.zeros(self.data.shape)
                np.add.at(scattered, index, grad)
                self._accumulate(scattered, owned=True)

        return _node(data, (self,), "getitem", backward)

    # ------------------------------------------------------------------ #
    # Nonlinearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * data, owned=True)

        return _node(data, (self,), "exp", backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad / self.data, owned=True)

        return _node(data, (self,), "log", backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * (1.0 - data ** 2), owned=True)

        return _node(data, (self,), "tanh", backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * data * (1.0 - data), owned=True)

        return _node(data, (self,), "sigmoid", backward)

    def relu(self) -> "Tensor":
        mask = (self.data > 0).astype(np.float64)
        data = self.data * mask

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * mask, owned=True)

        return _node(data, (self,), "relu", backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exps = np.exp(shifted)
        data = exps / exps.sum(axis=axis, keepdims=True)

        def backward(grad):
            if not self.requires_grad:
                return
            dot = (grad * data).sum(axis=axis, keepdims=True)
            self._accumulate(data * (grad - dot), owned=True)

        return _node(data, (self,), "softmax", backward)

    def clip(self, low: float, high: float) -> "Tensor":
        data = np.clip(self.data, low, high)
        mask = ((self.data >= low) & (self.data <= high)).astype(np.float64)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * mask, owned=True)

        return _node(data, (self,), "clip", backward)

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        Parameters
        ----------
        grad:
            Gradient of the loss with respect to this tensor.  Defaults to 1
            for scalar tensors.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        # A copy: later accumulation into a leaf root adds in place.
        self.grad = np.array(grad, dtype=np.float64).reshape(self.data.shape)

        # Post-order of a depth-first search that explores each node's
        # parents last to first; the walk below runs it backwards.  This order
        # fixes the order in which a node's consumers add into its ``grad``.
        # Leaves are left out: their ``grad`` is the result.
        order: list[Tensor] = []
        visited = {self}
        stack = [(self, reversed(self._parents))]
        while stack:
            node, parents = stack[-1]
            for parent in parents:
                if parent._backward is not None and parent not in visited:
                    visited.add(parent)
                    stack.append((parent, reversed(parent._parents)))
                    break
            else:
                stack.pop()
                order.append(node)

        # Walk from the root, releasing each node as soon as its gradient has
        # been handed on, so the tape shrinks while gradients flow.
        while order:
            node = order.pop()
            if node._backward is None:  # leaf: its grad is the result
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node._backward, node._parents, node.grad = _released, (), None


def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = tuple(t if isinstance(t, Tensor) else Tensor(t) for t in tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(grad):
        start = 0
        for t, size in zip(tensors, sizes):
            if t.requires_grad:
                index = [slice(None)] * data.ndim
                index[axis] = slice(start, start + size)
                t._accumulate(grad[tuple(index)])
            start += size

    return _node(data, tensors, "concat", backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    tensors = tuple(t if isinstance(t, Tensor) else Tensor(t) for t in tensors)
    data = np.stack([t.data for t in tensors], axis=axis)
    leading = (slice(None),) * (axis % data.ndim)

    def backward(grad):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(grad[leading + (i,)])

    return _node(data, tensors, "stack", backward)


def pad(x: Tensor, left: int, right: int) -> Tensor:
    """Zero-pad the last axis of ``x`` with ``left`` and ``right`` steps.

    One node: the zeros are part of its data, not tensors of their own, and
    its backward hands ``x`` the slice of the gradient that ``x`` occupies.
    """
    length = x.data.shape[-1]
    data = np.zeros(x.data.shape[:-1] + (left + length + right,))
    data[..., left:left + length] = x.data

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad[..., left:left + length])

    return _node(data, (x,), "pad", backward)
