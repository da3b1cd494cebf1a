"""Shared experiment plumbing: train-once caches and evaluation loops.

Every table and figure of the evaluation needs the same ingredients — a
trained dense DS-GL system per dataset, its decompositions at various
densities/patterns, and trained GNN baselines.  This module provides those
with memoization so a benchmark session never trains the same model or maps
the same design point twice.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..core import (
    NaturalAnnealingEngine,
    TemporalWindowing,
    TrainingConfig,
    fit_precision,
    rmse,
    select_ridge,
)
from ..core.model import DSGLModel
from ..datasets import SpatioTemporalDataset, load_dataset
from ..decompose import DecompositionConfig, DecomposedSystem, decompose
from ..gnn import DDGCRN, GNNTrainConfig, GNNTrainer, GraphWaveNet, MTGNN, default_adjacency
from ..hardware import HardwareConfig, ScalableDSPU

__all__ = [
    "ExperimentContext",
    "DSGL_WINDOW",
    "GNN_BASELINES",
    "evaluate_equilibrium",
    "evaluate_hardware",
]

logger = logging.getLogger("repro.experiments")

#: History window used when unrolling temporal tasks into one system.
DSGL_WINDOW = 3

#: Baseline model constructors keyed by their paper names.
GNN_BASELINES = {
    "GWN": GraphWaveNet,
    "MTGNN": MTGNN,
    "DDGCRN": DDGCRN,
}


@dataclass
class TrainedDSGL:
    """A trained dense system plus the windowing that built it."""

    dataset: SpatioTemporalDataset
    train: SpatioTemporalDataset
    val: SpatioTemporalDataset
    test: SpatioTemporalDataset
    windowing: TemporalWindowing
    samples: np.ndarray
    model: DSGLModel


def evaluate_equilibrium(
    model: DSGLModel,
    windowing: TemporalWindowing,
    series: np.ndarray,
    max_windows: int = 40,
) -> float:
    """RMSE of equilibrium (infinite-time) inference over a test series.

    Uses the batched fixed-point solve (one LU factorization for the whole
    sweep), since every window clamps the same observed-variable set.
    """
    engine = NaturalAnnealingEngine(model)
    frames = windowing.prediction_frames(series)[:max_windows]
    histories = np.stack([windowing.history_of(series, t) for t in frames])
    predictions = engine.infer_equilibrium_batch(
        windowing.observed_index, histories
    )
    targets = np.stack([series[t] for t in frames])
    return rmse(predictions, targets)


def evaluate_hardware(
    dspu: ScalableDSPU,
    windowing: TemporalWindowing,
    series: np.ndarray,
    duration_ns: float,
    max_windows: int = 15,
    **anneal_kwargs,
) -> float:
    """RMSE of finite-time co-annealing inference on the Scalable DSPU.

    Each prediction window anneals independently; every ``anneal`` call
    self-seeds from the DSPU's own seed.
    """
    frames = windowing.prediction_frames(series)[:max_windows]
    predictions, targets = [], []
    for t in frames:
        history = windowing.history_of(series, t)
        outcome = dspu.anneal(
            windowing.observed_index,
            history,
            duration_ns=duration_ns,
            **anneal_kwargs,
        )
        predictions.append(outcome.prediction)
        targets.append(series[t])
    return rmse(np.asarray(predictions), np.asarray(targets))


def _design_point(
    name: str, density: float, pattern: str, wormhole_budget: int
) -> tuple:
    """Cache key of one design point (decomposition and DSPU mapping)."""
    return (name, round(density, 6), pattern, wormhole_budget)


@dataclass
class ExperimentContext:
    """Memoizing factory for every trained artifact the evaluation needs.

    Attributes:
        size: Dataset size preset handed to the registry.
        grid_shape: PE grid used for decompositions.
        lanes: Hardware communication capability ``L``.  The paper uses 30
            for 500-node PEs; the default here is scaled down with the
            laptop-sized datasets so temporal co-annealing still triggers.
        ridge: Dense-training regularization; ``None`` (default) selects
            it per dataset by chronological holdout validation.
        gnn_epochs: Baseline training epochs.
    """

    size: str = "small"
    grid_shape: tuple[int, int] = (3, 3)
    lanes: int = 8
    ridge: float | None = None
    gnn_epochs: int = 20
    _datasets: dict = field(default_factory=dict)
    _dense: dict = field(default_factory=dict)
    _decomposed: dict = field(default_factory=dict)
    _dspus: dict = field(default_factory=dict)
    _gnn: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def dataset(self, name: str) -> SpatioTemporalDataset:
        """Load (and cache) a registry dataset."""
        if name not in self._datasets:
            self._datasets[name] = load_dataset(name, size=self.size)
        return self._datasets[name]

    def dense(self, name: str) -> TrainedDSGL:
        """Train (and cache) the dense DS-GL system for a dataset."""
        if name not in self._dense:
            ds = self.dataset(name)
            train, val, test = ds.split()
            series = train.flat_series()
            windowing = TemporalWindowing(series.shape[1], DSGL_WINDOW)
            samples = windowing.windows(series)
            with obs.tracer().span(
                "experiments.train_dense", dataset=name,
                variables=int(samples.shape[1]),
            ), obs.metrics().timer("experiments.train_ms"):
                if self.ridge is None:
                    _ridge, model = select_ridge(samples)
                    model.metadata["dataset"] = name
                else:
                    model = fit_precision(
                        samples,
                        TrainingConfig(ridge=self.ridge),
                        metadata={"dataset": name},
                    )
            logger.info("trained dense system for %s (%d variables)",
                        name, samples.shape[1])
            self._dense[name] = TrainedDSGL(
                dataset=ds,
                train=train,
                val=val,
                test=test,
                windowing=windowing,
                samples=samples,
                model=model,
            )
        return self._dense[name]

    def decomposed(
        self,
        name: str,
        density: float,
        pattern: str,
        wormhole_budget: int = 3,
    ) -> DecomposedSystem:
        """Decompose (and cache) a dense system for one design point."""
        key = _design_point(name, density, pattern, wormhole_budget)
        if key not in self._decomposed:
            trained = self.dense(name)
            config = DecompositionConfig(
                density=density,
                pattern=pattern,
                grid_shape=self.grid_shape,
                wormhole_budget=wormhole_budget,
                # The predicted frame's variables must stay coupled to the
                # history frames regardless of the global magnitude cut.
                anchor_index=tuple(trained.windowing.target_index.tolist()),
            )
            with obs.tracer().span(
                "experiments.decompose", dataset=name, density=density,
                pattern=pattern,
            ), obs.metrics().timer("experiments.decompose_ms"):
                self._decomposed[key] = decompose(
                    trained.model, trained.samples, config
                )
            logger.info(
                "decomposed %s at density %.3f (%s pattern)",
                name, density, pattern,
            )
        return self._decomposed[key]

    def dspu(
        self,
        name: str,
        density: float,
        pattern: str,
        wormhole_budget: int = 3,
    ) -> ScalableDSPU:
        """A Scalable DSPU built on a cached decomposition.

        The node time constant is set to 2.5x the switch interval so the
        switch-in-turn rotation averages cleanly (the hardware-design
        pairing of node capacitance and mapping-switch rate).

        Each design point is mapped once.  Every call returns a shallow
        copy of that mapping: it shares the schedule and the phase
        matrices, which ``anneal`` only reads, and its propagator cache
        starts cold (``ScalableDSPU.__getstate__``), so no figure call
        inherits another's builds.
        """
        key = _design_point(name, density, pattern, wormhole_budget)
        registry = obs.metrics()
        if key in self._dspus:
            registry.counter("experiments.dspu_map_reuses").inc()
        else:
            system = self.decomposed(name, density, pattern, wormhole_budget)
            config = HardwareConfig(
                grid_shape=self.grid_shape,
                pe_capacity=system.placement.capacity,
                lanes=self.lanes,
            )
            with obs.tracer().span(
                "experiments.map_dspu", dataset=name, density=density,
                pattern=pattern,
            ) as span:
                dspu = ScalableDSPU(
                    system,
                    config,
                    node_time_constant_ns=2.5 * config.sync_interval_ns,
                )
                span.set("num_phases", dspu.num_phases)
                span.set("mode", dspu.mode)
            self._dspus[key] = dspu
            registry.counter("experiments.dspu_maps").inc()
        return copy.copy(self._dspus[key])

    def gnn(self, baseline: str, name: str) -> GNNTrainer:
        """Train (and cache) one GNN baseline on one dataset."""
        key = (baseline, name)
        if key not in self._gnn:
            if baseline not in GNN_BASELINES:
                raise ValueError(
                    f"unknown baseline {baseline!r}; pick from {sorted(GNN_BASELINES)}"
                )
            ds = self.dataset(name)
            train, val, _test = ds.split()
            features = ds.num_features
            model = GNN_BASELINES[baseline](
                ds.num_nodes,
                default_adjacency(ds),
                in_features=features,
                out_features=features,
                hidden=16,
            )
            trainer = GNNTrainer(
                model, GNNTrainConfig(window=6, epochs=self.gnn_epochs)
            )
            with obs.tracer().span(
                "experiments.train_gnn", baseline=baseline, dataset=name
            ), obs.metrics().timer("experiments.train_gnn_ms"):
                trainer.fit(train, val)
            self._gnn[key] = trainer
        return self._gnn[key]

    # ------------------------------------------------------------------
    def dsgl_rmse(self, name: str, density: float, pattern: str) -> float:
        """Equilibrium RMSE of a decomposed design point on the test split."""
        trained = self.dense(name)
        system = self.decomposed(name, density, pattern)
        return evaluate_equilibrium(
            system.model, trained.windowing, trained.test.flat_series()
        )

    def dense_rmse(self, name: str) -> float:
        """Equilibrium RMSE of the dense (un-decomposed) system."""
        trained = self.dense(name)
        return evaluate_equilibrium(
            trained.model, trained.windowing, trained.test.flat_series()
        )

    def gnn_rmse(self, baseline: str, name: str) -> float:
        """Test RMSE of one baseline."""
        trainer = self.gnn(baseline, name)
        return trainer.evaluate(self.dense(name).test)

    def best_gnn_rmse(self, name: str) -> float:
        """The best (lowest) baseline RMSE — the red dotted line of Fig. 10."""
        return min(self.gnn_rmse(b, name) for b in GNN_BASELINES)
