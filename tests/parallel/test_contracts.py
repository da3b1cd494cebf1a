"""Empty-input contracts of the sharded entry point and the sweep grid.

The fan-out raises ``ValueError`` on empty work rather than silently
returning an empty payload — downstream consumers (plotting, BENCH
writers) treat an empty result as a *finished* computation, which would
hide the bug.  One contract, asserted at the sharded entry point
(``run_batch_sharded``) and at the serial fault-sweep grid.
"""

import numpy as np
import pytest

from repro.experiments import ExperimentContext, fault_sweep_data
from repro.parallel import run_batch_sharded


class TestEmptyBatchContracts:
    def test_run_batch_sharded_rejects_empty_batch(
        self, noisy_simulator, small_operator
    ):
        empty = np.empty((0, small_operator.n))
        with pytest.raises(ValueError, match="empty batch"):
            run_batch_sharded(
                noisy_simulator, small_operator.drift, empty, duration=1.0
            )


class TestFaultSweepContracts:
    @pytest.fixture(scope="class")
    def context(self):
        return ExperimentContext(size="small")

    def test_rejects_empty_datasets(self, context):
        with pytest.raises(ValueError, match="empty datasets"):
            fault_sweep_data(context, datasets=())

    def test_rejects_empty_fault_rates(self, context):
        with pytest.raises(ValueError, match="empty fault_rates"):
            fault_sweep_data(context, fault_rates=())

    def test_rejects_zero_trials(self, context):
        with pytest.raises(ValueError, match="trials"):
            fault_sweep_data(context, trials=0)
