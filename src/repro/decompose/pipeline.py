"""The three-step decomposition pipeline of Fig. 5.

``decompose`` turns a dense trained :class:`~repro.core.model.DSGLModel`
into a sparse, hardware-mappable one:

1. **Sparsify** the fully-connected coupling matrix to the communication
   demand density ``D`` (magnitude pruning).
2. **Cluster** the sparse matrix with Louvain and **redistribute** the
   communities into per-PE super-communities on the 2D grid.
3. **Fine-tune** the coupling parameters under the pattern's controlling
   mask (Chain/Mesh/DMesh + Wormholes) to restore the accuracy lost to
   sparsification, then prune back to ``D`` so the mask *and* the density
   constraint both hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..core.model import DSGLModel
from ..core.training import TrainingConfig, fit_precision_masked, fit_regression
from .community import louvain_communities
from .patterns import pattern_mask
from .redistribute import PlacementResult, redistribute
from .sparsify import coupling_density, prune_to_density

__all__ = ["DecompositionConfig", "DecomposedSystem", "decompose"]


@dataclass
class DecompositionConfig:
    """Settings of the decomposition pipeline.

    Attributes:
        density: Communication demand density ``D`` (fraction of non-zero
            couplings to preserve).
        pattern: Base inter-PE pattern: ``"chain"``, ``"mesh"``, ``"dmesh"``.
        grid_shape: PE array dimensions.
        capacity: Nodes per PE (``None`` = ``capacity_slack`` x balanced).
        capacity_slack: Headroom factor over the perfectly balanced
            capacity when ``capacity`` is automatic.  Real DSPU grids have
            spare spins (Table I: 8000 spins for ~2000-node problems);
            slack lets communities stay whole instead of being fragmented
            to fill every PE exactly.
        cluster_density: Density of the initial sparse matrix handed to
            Louvain (Sec. IV.B: "we limit the number of non-zero elements
            ... to attain an initial sparse coupling matrix for communities
            extraction").  ``None`` uses ``min(density, 0.05)`` so the
            communities come from the strongest couplings and stay stable
            across density sweeps.
        wormhole_budget: Remote PE pairs granted Wormhole connections.
        finetune: Fine-tuning hyper-parameters.
        finetune_method: ``"closed_form"`` (masked neighborhood-selection
            refit, fast and exact) or ``"sgd"`` (the paper's
            backpropagation path) or ``"none"`` (keep pruned parameters).
        anchor_index: Variables guaranteed a minimum coupling degree to
            the rest of the system during sparsification (the predicted
            frame of a temporal task); see
            :func:`repro.decompose.sparsify.prune_to_density`.
        anchor_degree: Couplings each anchor keeps to non-anchor variables.
        resolution: Louvain modularity resolution.
        seed: Clustering seed.
    """

    density: float = 0.1
    pattern: str = "dmesh"
    grid_shape: tuple[int, int] = (4, 4)
    capacity: int | None = None
    capacity_slack: float = 1.5
    cluster_density: float | None = None
    wormhole_budget: int = 3
    finetune: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(epochs=15, lr=0.02)
    )
    finetune_method: str = "closed_form"
    anchor_index: tuple[int, ...] | None = None
    anchor_degree: int = 3
    resolution: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.density <= 1:
            raise ValueError("density must be in (0, 1]")
        if self.wormhole_budget < 0:
            raise ValueError("wormhole_budget must be non-negative")
        if self.finetune_method not in ("closed_form", "sgd", "none"):
            raise ValueError(
                f"unknown finetune_method {self.finetune_method!r}"
            )


@dataclass
class DecomposedSystem:
    """A dense system decomposed for the Scalable DSPU.

    Attributes:
        model: The sparse fine-tuned model (mask and density enforced).
        placement: Node-to-PE assignment on the grid.
        mask: The hardware-realizable coupling mask used in fine-tuning.
        config: The pipeline configuration that produced this system.
        dense_model: The original dense model (kept for ablations).
    """

    model: DSGLModel
    placement: PlacementResult
    mask: np.ndarray
    config: DecompositionConfig
    dense_model: DSGLModel

    @property
    def density(self) -> float:
        """Achieved off-diagonal density of the sparse coupling matrix."""
        return coupling_density(self.model.J)

    def operator(self, backend: str = "auto", **kwargs):
        """A :class:`~repro.core.operators.CouplingOperator` over the
        decomposed system.

        Decomposed couplings are sparse by construction (the pipeline
        prunes to density ``D``), so ``backend="auto"`` typically yields
        CSR storage — large systems serve drift, energy, and the
        clamped-reduced solves without ever densifying.
        """
        return self.model.operator(backend=backend, **kwargs)

    def inter_pe_fraction(self) -> float:
        """Fraction of surviving couplings that cross PE boundaries."""
        J = self.model.J
        nz_rows, nz_cols = np.nonzero(np.triu(J, 1))
        if nz_rows.size == 0:
            return 0.0
        pe = self.placement.pe_of_node
        crossing = pe[nz_rows] != pe[nz_cols]
        return float(np.mean(crossing))

    def boundary_demand(self) -> np.ndarray:
        """Per-PE count of nodes that couple to at least one external node.

        This is the communication demand the schedulers compare against the
        per-portal lane budget ``L`` (Sec. IV.D).
        """
        J = self.model.J
        pe = self.placement.pe_of_node
        demand = np.zeros(self.placement.num_pes, dtype=int)
        for p, group in enumerate(self.placement.groups):
            if group.size == 0:
                continue
            external = np.setdiff1d(np.arange(J.shape[0]), group)
            talks = np.abs(J[np.ix_(group, external)]).sum(axis=1) > 0
            demand[p] = int(np.count_nonzero(talks))
        return demand


def decompose(
    model: DSGLModel,
    samples: np.ndarray,
    config: DecompositionConfig | None = None,
) -> DecomposedSystem:
    """Run the full Fig. 5 pipeline on a trained dense model.

    Args:
        model: Dense trained system.
        samples: Training samples (raw domain) for the fine-tuning step.
        config: Pipeline settings.

    Returns:
        The :class:`DecomposedSystem`.

    Each closed-form fine-tune counts in ``decompose.finetune_fits``, and
    in ``decompose.finetune_capped`` too when it stopped at its sweep cap
    short of its tolerance.
    """
    config = config or DecompositionConfig()

    # Step 1: prune the fully-connected coupling matrix to an initial
    # sparse matrix for community extraction.
    cluster_density = (
        config.cluster_density
        if config.cluster_density is not None
        else min(config.density, 0.05)
    )
    anchors = (
        np.asarray(config.anchor_index, dtype=int)
        if config.anchor_index is not None
        else None
    )
    J_sparse = prune_to_density(
        model.J,
        cluster_density,
        anchor_index=anchors,
        anchor_degree=config.anchor_degree,
    )

    # Step 2: extract communities from the sparse matrix, then pack them
    # into per-PE super-communities (with capacity headroom so communities
    # survive packing intact).
    labels = louvain_communities(
        J_sparse, resolution=config.resolution, seed=config.seed
    )
    capacity = config.capacity
    if capacity is None:
        rows, cols = config.grid_shape
        balanced = model.n / max(1, rows * cols)
        capacity = int(np.ceil(config.capacity_slack * balanced))
    placement = redistribute(
        labels, J_sparse, config.grid_shape, capacity=capacity
    )

    # Step 3: the controlling mask is the pattern-feasible region trimmed
    # to the pre-set communication demand density D (the strongest
    # pattern-feasible couplings survive); parameters are then fine-tuned
    # on exactly that support.
    feasible = pattern_mask(
        model.J, placement, pattern=config.pattern, wormhole_budget=config.wormhole_budget
    )
    mask = (
        prune_to_density(
            model.J * feasible,
            config.density,
            anchor_index=anchors,
            anchor_degree=config.anchor_degree,
        )
        != 0.0
    )
    provenance = {
        "stage": "finetune",
        "pattern": config.pattern,
        "density": config.density,
        "method": config.finetune_method,
    }
    if config.finetune_method == "closed_form":
        tuned = fit_precision_masked(
            samples, mask, config.finetune, metadata=provenance
        )
        registry = obs.metrics()
        registry.counter("decompose.finetune_fits").inc()
        registry.counter("decompose.finetune_capped").inc(
            int(tuned.metadata["finetune_capped"])
        )
    elif config.finetune_method == "sgd":
        tuned = fit_regression(
            samples,
            config.finetune,
            mask=mask,
            init=model.with_coupling(model.J * mask),
            metadata=provenance,
        )
    else:
        tuned = model.with_coupling(model.J * mask).stabilized(
            margin=config.finetune.margin
        )
    final = DSGLModel(
        J=tuned.J,
        h=tuned.h,
        mean=tuned.mean,
        scale=tuned.scale,
        metadata={**tuned.metadata, "decomposed": True},
    )
    return DecomposedSystem(
        model=final,
        placement=placement,
        mask=mask,
        config=config,
        dense_model=model,
    )
