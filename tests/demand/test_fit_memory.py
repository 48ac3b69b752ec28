"""Machine-invariant memory ceiling for the DDGNN fit.

A training step's autograd tape must be gone when the step returns, without
help from the cyclic garbage collector: the ``tracemalloc`` peak over several
consecutive ``DemandTrainer._train_batch`` calls is then the peak of one
call.  With a tape that only a GC pass can free the peak grows linearly with
the number of batches (this is what made ``didi_datawa`` a 500 MB workload).
Shapes are the e2e benchmark's: 64 cells, k = 4, history 8, batch 8.
"""

import tracemalloc

import numpy as np

from repro.demand.ddgnn import DDGNN
from repro.demand.training import DemandTrainer

CELLS, K, HISTORY, BATCH = 64, 4, 8, 8


def _traced_peak(trainer, inputs, targets, calls):
    tracemalloc.start()
    try:
        for _ in range(calls):
            trainer._train_batch(inputs, targets)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_does_not_grow_with_the_number_of_batches(no_gc):
    rng = np.random.default_rng(0)
    inputs = (rng.random((BATCH, HISTORY, CELLS, K)) < 0.2).astype(np.float64)
    targets = (rng.random((BATCH, CELLS, K)) < 0.2).astype(np.float64)
    model = DDGNN(num_cells=CELLS, k=K, history=HISTORY, seed=0)
    trainer = DemandTrainer(model, batch_size=BATCH, patience=None, seed=0)

    trainer._train_batch(inputs, targets)  # gradient buffers now exist
    one = _traced_peak(trainer, inputs, targets, calls=1)
    three = _traced_peak(trainer, inputs, targets, calls=3)

    assert one > 1_000_000, "the step should allocate a measurable tape"
    assert three <= 1.25 * one, f"peak grew from {one} to {three} bytes over three batches"
