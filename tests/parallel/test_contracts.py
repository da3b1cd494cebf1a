"""Empty-input contracts of the sharded entry points.

Every fan-out layer raises ``ValueError`` on empty work rather than
silently returning an empty payload — downstream consumers (plotting,
BENCH writers, restart selection) treat an empty result as a *finished*
computation, which would hide the bug.  One contract, asserted at every
sharded entry point (``run_batch_sharded``, ``infer_batch_sharded``,
``restart_fanout``) and at the serial fault-sweep grid.
"""

import numpy as np
import pytest

from repro.experiments import ExperimentContext, fault_sweep_data
from repro.parallel import (
    infer_batch_sharded,
    restart_fanout,
    run_batch_sharded,
)


class TestEmptyBatchContracts:
    def test_run_batch_sharded_rejects_empty_batch(
        self, noisy_simulator, small_operator
    ):
        empty = np.empty((0, small_operator.n))
        with pytest.raises(ValueError, match="empty batch"):
            run_batch_sharded(
                noisy_simulator, small_operator.drift, empty, duration=1.0
            )

    def test_infer_batch_sharded_rejects_empty_batch(self, engine):
        observed = np.arange(3)
        empty = np.empty((0, 3))
        with pytest.raises(ValueError, match="empty batch"):
            infer_batch_sharded(engine, observed, empty, duration=1.0)

    def test_restart_fanout_rejects_empty_pool(self, engine):
        observed = np.arange(3)
        values = np.zeros(3)
        for restarts in (0, -1):
            with pytest.raises(ValueError, match="empty restart pool"):
                restart_fanout(
                    engine, observed, values, restarts, 1.0,
                    root_seed=0, max_retries=0, workers=1, shards=None,
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
