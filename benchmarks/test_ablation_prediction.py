"""Ablation: DATA-WA with a correct forecast serves more than DTA.

The planner-side half of the paper's thesis, on the ``didi_datawa`` stream
of ``benchmarks/e2e``: shown a perfect set of predicted tasks as large as
the benchmark's DDGNN set, DATA-WA serves more real tasks than DTA on the
default and the held-out seed.  ``prediction_ablation.py`` prints the full
table (DDGNN, perfect and every-task forecasts for all three methods).
"""

import pytest

from prediction_ablation import WORKLOAD, perfect_predictions, served

#: DATA-WA / DTA served at the commit this was recorded on: 928 / 908 and
#: 917 / 888.
SEEDS = (WORKLOAD.seed, WORKLOAD.heldout_seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_data_wa_with_a_perfect_forecast_serves_more_than_dta(seed):
    inputs = WORKLOAD.build(seed, 1.0)
    perfect = perfect_predictions(inputs.instance.tasks)
    assert len(perfect) == 180 and all(task.predicted for task in perfect)
    dta = served(inputs, "DTA", [])
    data_wa = served(inputs, "DATA-WA", perfect)
    assert data_wa > dta, f"seed {seed}: DATA-WA served {data_wa}, DTA {dta}"
