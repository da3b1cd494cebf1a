"""Degenerate and stress configurations of the hardware stack."""

import numpy as np
import pytest

from repro.core import TrainingConfig, fit_precision
from repro.decompose import DecompositionConfig, decompose
from repro.hardware import HardwareConfig, ScalableDSPU, build_schedule


@pytest.fixture(scope="module")
def small_model(gaussian_samples):
    samples, _cov = gaussian_samples
    return fit_precision(samples, TrainingConfig(ridge=1e-2)), samples


class TestSinglePEGrid:
    def test_everything_is_intra_pe(self, small_model):
        model, samples = small_model
        system = decompose(
            model,
            samples,
            DecompositionConfig(density=0.3, pattern="dmesh", grid_shape=(1, 1)),
        )
        dspu = ScalableDSPU(system)
        assert dspu.mode == "spatial"
        assert dspu.num_phases == 1
        assert dspu.schedule.assignments == []

    def test_single_pe_anneal_matches_equilibrium(self, small_model):
        from repro.core import NaturalAnnealingEngine

        model, samples = small_model
        system = decompose(
            model,
            samples,
            DecompositionConfig(density=0.5, pattern="mesh", grid_shape=(1, 1)),
        )
        dspu = ScalableDSPU(system, node_time_constant_ns=10.0)
        observed = np.arange(6)
        values = samples[0][:6]
        outcome = dspu.anneal(observed, values, duration_ns=20000.0)
        engine = NaturalAnnealingEngine(system.model)
        equilibrium = engine.infer_equilibrium(observed, values)
        assert np.allclose(outcome.prediction, equilibrium.prediction, atol=0.05)


class TestExtremeLaneScarcity:
    def test_one_lane_still_schedules_everything(self, small_model):
        model, samples = small_model
        system = decompose(
            model,
            samples,
            DecompositionConfig(density=0.4, pattern="dmesh", grid_shape=(2, 2)),
        )
        config = HardwareConfig(
            grid_shape=(2, 2), pe_capacity=system.placement.capacity, lanes=1
        )
        schedule = build_schedule(system.model.J, system.placement, config)
        # Every inter-PE coupling still gets a slot, just across many slices.
        J = system.model.J
        pe = system.placement.pe_of_node
        rows, cols = np.nonzero(np.triu(J, 1))
        inter = int(np.sum(pe[rows] != pe[cols]))
        assert len(schedule.assignments) == inter
        assert schedule.num_phases >= 1
        # Lane budget respected per phase.
        for phase in range(schedule.num_phases):
            usage: dict = {}
            for a in schedule.active_in_phase(phase):
                usage.setdefault((a.cu, a.pe_a), set()).add(a.node_a)
                usage.setdefault((a.cu, a.pe_b), set()).add(a.node_b)
            for nodes in usage.values():
                assert len(nodes) <= 1

    def test_scarce_lanes_anneal_converges_with_budget(self, small_model):
        model, samples = small_model
        system = decompose(
            model,
            samples,
            DecompositionConfig(density=0.3, pattern="dmesh", grid_shape=(2, 2)),
        )
        config = HardwareConfig(
            grid_shape=(2, 2), pe_capacity=system.placement.capacity, lanes=2
        )
        dspu = ScalableDSPU(system, config, node_time_constant_ns=500.0)
        observed = np.arange(5)
        outcome = dspu.anneal(observed, samples[0][:5], duration_ns=50000.0)
        assert np.all(np.isfinite(outcome.prediction))
        assert np.all(np.abs(outcome.state) <= 1.0 + 1e-9)


class TestObservedSetExtremes:
    def test_all_but_one_observed(self, small_model):
        model, _samples = small_model
        dspu = ScalableDSPU(
            _decomposed_trivial(model, _samples), node_time_constant_ns=10.0
        )
        observed = np.arange(model.n - 1)
        outcome = dspu.anneal(observed, np.zeros(model.n - 1), duration_ns=500.0)
        assert outcome.prediction.shape == (1,)

    def test_nothing_observed(self, small_model):
        """With no clamped nodes the convex system relaxes to the origin
        (the unconditional mean in the data domain)."""
        model, _samples = small_model
        dspu = ScalableDSPU(
            _decomposed_trivial(model, _samples), node_time_constant_ns=10.0
        )
        outcome = dspu.anneal(
            np.zeros(0, dtype=int), np.zeros(0), duration_ns=50000.0
        )
        assert np.allclose(outcome.state, 0.0, atol=0.05)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_everything_observed_under_coupler_noise(
        self, small_model, backend
    ):
        """No free rows to build: the noisy build must still succeed."""
        model, _samples = small_model
        dspu = ScalableDSPU(
            _decomposed_trivial(model, _samples), node_time_constant_ns=10.0,
            backend=backend,
        )
        values = np.linspace(-0.5, 0.5, model.n)
        outcome = dspu.anneal(
            np.arange(model.n), values, duration_ns=500.0,
            coupling_noise_std=0.1,
        )
        assert outcome.prediction.shape == (0,)
        assert np.array_equal(
            outcome.state, dspu._normalize_subset(np.arange(model.n), values)
        )


def _decomposed_trivial(model, samples):
    return decompose(
        model,
        samples,
        DecompositionConfig(density=0.5, pattern="mesh", grid_shape=(1, 1)),
    )
