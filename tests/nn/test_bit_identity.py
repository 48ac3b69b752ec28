"""Bit-identity of every ``repro.nn`` training path, pinned to goldens.

The autograd tape may change how long nodes live and how gradients are
buffered, but never a floating-point operation or its order.  The goldens
below were recorded from the commit *before* the tape-lifetime change
(PR 18, ``e546c13``) by running this file as a script against that tree::

    PYTHONPATH=<tree>/src python tests/nn/test_bit_identity.py

Each entry is the ``float.hex()`` loss curve of a seeded fit plus a SHA-256
over the concatenated parameter bytes after it.

``ddgnn_e2e_shape`` and ``tvf_scoring`` were recorded the same way from the
commit before the tape-ownership change (``664bb9a``).  The first trains a
DDGNN at the ``didi_datawa`` benchmark's shape (64 cells, k 4, history 8,
batch 8) and adds a SHA-256 of ``DDGNN.predict`` on 4 windows; the second
is a SHA-256 of one ``no_grad`` ``TaskValueFunction.values`` pass after a
seeded fit.  Both inference paths run the tape under ``no_grad``.
"""

import hashlib

import numpy as np
import pytest

from repro.assignment.tvf import TaskValueFunction
from repro.core.task import Task
from repro.core.worker import Worker
from repro.demand.baselines import GraphWaveNetDemandModel, LSTMDemandModel
from repro.demand.ddgnn import DDGNN
from repro.demand.training import DemandTrainer
from repro.nn.tensor import Tensor
from repro.spatial.geometry import Point

M, K, HISTORY = 12, 3, 5


def _parameter_digest(parameters) -> str:
    digest = hashlib.sha256()
    for parameter in parameters:
        digest.update(np.ascontiguousarray(parameter.data).tobytes())
    return digest.hexdigest()


def _demand_fit(model_class):
    rng = np.random.default_rng(42)
    inputs = (rng.random((20, HISTORY, M, K)) < 0.3).astype(np.float64)
    targets = (rng.random((20, M, K)) < 0.3).astype(np.float64)
    model = model_class(num_cells=M, k=K, history=HISTORY, seed=3)
    trainer = DemandTrainer(model, epochs=2, batch_size=8, patience=None, seed=5)
    losses = trainer.fit(inputs, targets).losses
    return [loss.hex() for loss in losses], _parameter_digest(model.parameters())


def _tvf_fit():
    rng = np.random.default_rng(7)
    workers = {
        wid: Worker(wid, Point(*rng.random(2) * 4), 3.0 + wid, 0.0, 100.0)
        for wid in range(1, 5)
    }
    tasks = {
        tid: Task(tid, Point(*rng.random(2) * 4), 0.0, 20.0 + 3.0 * tid)
        for tid in range(1, 11)
    }
    experience = []
    for _ in range(40):
        remaining = tuple(int(t) for t in rng.choice(10, size=rng.integers(2, 8), replace=False) + 1)
        chosen = remaining[: int(rng.integers(1, 3))]
        state = {"num_workers": int(rng.integers(1, 5)), "num_tasks": len(remaining), "task_ids": remaining}
        action = {"worker_id": int(rng.integers(1, 5)), "task_ids": chosen, "sequence_length": len(chosen)}
        experience.append((state, action, float(rng.integers(1, 6))))
    tvf = TaskValueFunction(hidden=16, learning_rate=0.01, seed=2)
    losses = tvf.fit(experience, workers, tasks, epochs=3, batch_size=16)
    return [loss.hex() for loss in losses], _parameter_digest(tvf.network.parameters())


def _ddgnn_e2e_shape():
    cells, k, history = 64, 4, 8
    rng = np.random.default_rng(21)
    inputs = (rng.random((24, history, cells, k)) < 0.15).astype(np.float64)
    targets = (rng.random((24, cells, k)) < 0.15).astype(np.float64)
    windows = (rng.random((4, history, cells, k)) < 0.15).astype(np.float64)
    model = DDGNN(num_cells=cells, k=k, history=history, seed=0)
    trainer = DemandTrainer(model, epochs=2, batch_size=8, patience=None, seed=0)
    losses = trainer.fit(inputs, targets).losses
    predicted = hashlib.sha256(np.ascontiguousarray(model.predict(windows)).tobytes())
    return (
        [loss.hex() for loss in losses],
        _parameter_digest(model.parameters()),
        predicted.hexdigest(),
    )


def _tvf_scoring():
    rng = np.random.default_rng(13)
    workers = {
        wid: Worker(wid, Point(*rng.random(2) * 6), 2.0 + wid, 0.0, 200.0)
        for wid in range(1, 9)
    }
    tasks = {
        tid: Task(tid, Point(*rng.random(2) * 6), 0.0, 30.0 + 2.0 * tid)
        for tid in range(1, 25)
    }
    experience = []
    for _ in range(64):
        remaining = tuple(int(t) for t in rng.choice(24, size=rng.integers(2, 12), replace=False) + 1)
        chosen = remaining[: int(rng.integers(1, 4))]
        state = {"num_workers": int(rng.integers(1, 9)), "num_tasks": len(remaining), "task_ids": remaining}
        action = {"worker_id": int(rng.integers(1, 9)), "task_ids": chosen, "sequence_length": len(chosen)}
        experience.append((state, action, float(rng.integers(1, 8))))
    tvf = TaskValueFunction(seed=4)
    tvf.fit(experience, workers, tasks, epochs=2, batch_size=32)
    remaining = tuple(range(1, 25))
    state = {"num_workers": 8, "num_tasks": len(remaining), "task_ids": remaining}
    actions = [
        {"worker_id": int(rng.integers(1, 9)), "task_ids": tuple(int(t) for t in chosen)}
        for chosen in (rng.choice(24, size=rng.integers(1, 4), replace=False) + 1 for _ in range(64))
    ]
    values = tvf.values(state, actions, workers, tasks)
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


FITS = {
    "ddgnn": lambda: _demand_fit(DDGNN),
    "lstm": lambda: _demand_fit(LSTMDemandModel),
    "graph_wavenet": lambda: _demand_fit(GraphWaveNetDemandModel),
    "tvf": _tvf_fit,
    "ddgnn_e2e_shape": _ddgnn_e2e_shape,
    "tvf_scoring": _tvf_scoring,
}

GOLDEN = {
    "ddgnn": (
        ["0x1.eadbacb916ad5p-1", "0x1.e2c007ea0d0d8p-1"],
        "198e7821376fcbc82756486834c8b4c0066dad12eb7e6a871aa5efef2414f9dd",
    ),
    "graph_wavenet": (
        ["0x1.e3f5a4f85d7a9p-1", "0x1.dede548bbf800p-1"],
        "9171b735fc7dd8edc311c3596e3889aaf22218a767cdd2fed0f10956dc0a83f0",
    ),
    "lstm": (
        ["0x1.e15cbc50b8655p-1", "0x1.e12eddf046325p-1"],
        "afe75b98a2f230edd4a79d8a97b448e5807aeb3de4d5699075a995ea707af90a",
    ),
    "tvf": (
        ["0x1.0cea24749d8c6p+3", "0x1.68794ee399fdbp+2", "0x1.ca59c1e631b69p+1"],
        "5d25d75e7a069e794890708680f37055c2d26b40c50a22763755adf789c161c1",
    ),
    "ddgnn_e2e_shape": (
        ["0x1.2cc50c693a8bfp+0", "0x1.29556342c9f59p+0"],
        "fb09cd1810c7c1763fbbd2549a15fdb5eec5b82fd99f96bd9dd4bdb5819ca0d6",
        "efb6196656ddfab4079906b4dc2dc95882225c54fee776eb1ce5613ab2ae3b2c",
    ),
    "tvf_scoring": "034ef3694a141fec5ac92c88cc16fb8733f7ede11a929c317d2bb3f9f3dd5e5f",
}


@pytest.mark.parametrize("name", sorted(FITS))
def test_fit_matches_parent_commit_bit_for_bit(name):
    assert FITS[name]() == GOLDEN[name]


# --------------------------------------------------------------------- #
# __getitem__ backward: basic indices scatter with ``+=``, advanced ones
# with ``np.add.at``; both must equal the ``np.add.at`` oracle exactly.
# --------------------------------------------------------------------- #
SHAPE = (4, 5, 6)
INDICES = {
    "int": 2,
    "negative_int": -1,
    "slice": slice(1, 3),
    "stepped_slice": slice(None, None, 2),
    "reversed_slice": slice(None, None, -1),
    "none": None,
    "ellipsis": Ellipsis,
    "tuple_int_slice": (1, slice(None), slice(2, 5)),
    "tuple_none_ellipsis": (None, Ellipsis, -2),
    "tuple_slices_int": (slice(None), slice(None), 5),
    "int_array_duplicates": np.array([0, 2, 2, 0, 3]),
    "int_list_duplicates": [1, 1, 1],
    "tuple_with_int_array": (slice(None), np.array([4, 4, 0]), 1),
    "paired_int_arrays": (np.array([0, 0, 3]), np.array([1, 1, 2])),
    "bool_mask": np.arange(4 * 5 * 6).reshape(SHAPE) % 3 == 0,
    "bool_row_mask": np.array([True, False, True, True]),
    "numpy_integer": np.int64(3),
}


@pytest.mark.parametrize("name", sorted(INDICES))
def test_getitem_backward_equals_add_at_oracle(name):
    index = INDICES[name]
    rng = np.random.default_rng(11)
    source = Tensor(rng.standard_normal(SHAPE), requires_grad=True)
    picked = source[index]
    upstream = rng.standard_normal(picked.shape)
    picked.backward(upstream)

    expected = np.zeros(SHAPE)
    np.add.at(expected, index, upstream)
    assert np.array_equal(source.grad, expected)


if __name__ == "__main__":
    for fit_name in sorted(FITS):
        print(f'    "{fit_name}": {FITS[fit_name]()!r},')
