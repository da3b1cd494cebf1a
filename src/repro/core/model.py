"""The trained DS-GL model: a parameterized real-valued dynamical system.

A :class:`DSGLModel` owns the coupling matrix ``J`` and self-reaction vector
``h`` of a Real-Valued DSPU, together with normalization statistics of the
data it was trained on.  It is the object produced by
:mod:`repro.core.training`, consumed by :mod:`repro.core.inference`, and
decomposed by :mod:`repro.decompose` into a sparse, PE-mapped system.

The module also draws the seeded random convex systems that the
benchmarks, the tuner and the stream replay run on
(:func:`random_sparse_system`, and :func:`random_sparse_mesh` at 100k-node
scale).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .hamiltonian import RealValuedHamiltonian, symmetrize_coupling
from .operators import CouplingOperator
from .stability import convexity_margin, enforce_convexity

__all__ = ["DSGLModel", "random_sparse_mesh", "random_sparse_system"]


@dataclass
class DSGLModel:
    """Parameters of a trained real-valued dynamical system.

    Attributes:
        J: Symmetric ``(n, n)`` coupling matrix with zero diagonal.
        h: ``(n,)`` strictly negative self-reaction vector.
        mean: Per-variable normalization offset applied to data.
        scale: Per-variable normalization scale applied to data.
        metadata: Free-form provenance (dataset name, training config...).
    """

    J: np.ndarray
    h: np.ndarray
    mean: np.ndarray | None = None
    scale: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.J = symmetrize_coupling(self.J)
        self.h = np.asarray(self.h, dtype=float).reshape(-1)
        if self.h.shape[0] != self.J.shape[0]:
            raise ValueError("J and h sizes disagree")
        if np.any(self.h >= 0):
            raise ValueError("DSGLModel requires strictly negative h")
        if self.mean is not None:
            self.mean = np.asarray(self.mean, dtype=float).reshape(-1)
        if self.scale is not None:
            self.scale = np.asarray(self.scale, dtype=float).reshape(-1)
            if np.any(self.scale <= 0):
                raise ValueError("normalization scale must be positive")

    @property
    def n(self) -> int:
        """Number of system variables."""
        return self.J.shape[0]

    @property
    def density(self) -> float:
        """Fraction of non-zero off-diagonal couplings."""
        n = self.n
        if n < 2:
            return 0.0
        nnz = int(np.count_nonzero(self.J)) - int(np.count_nonzero(np.diag(self.J)))
        return nnz / (n * (n - 1))

    def hamiltonian(self) -> RealValuedHamiltonian:
        """The energy function this system descends."""
        return RealValuedHamiltonian(self.J, self.h)

    def operator(self, backend: str = "auto", **kwargs) -> CouplingOperator:
        """A backend-selected :class:`CouplingOperator` over ``(J, h)``.

        ``backend="auto"`` picks CSR storage for large sparse (decomposed)
        systems and dense storage otherwise; extra keyword arguments are
        forwarded to :class:`CouplingOperator` (e.g. ``density_threshold``).
        """
        return CouplingOperator(self.J, self.h, backend=backend, **kwargs)

    def convexity_margin(self) -> float:
        """Smallest eigenvalue of ``-(J + diag(h))``; positive = convergent."""
        return convexity_margin(self.J, self.h)

    def stabilized(self, margin: float = 0.05) -> "DSGLModel":
        """Return a copy with ``h`` deepened to guarantee convexity margin."""
        h = enforce_convexity(self.J, self.h, margin=margin)
        return DSGLModel(
            J=self.J.copy(),
            h=h,
            mean=None if self.mean is None else self.mean.copy(),
            scale=None if self.scale is None else self.scale.copy(),
            metadata=dict(self.metadata),
        )

    def normalize(self, values: np.ndarray) -> np.ndarray:
        """Map raw data into the system's voltage domain."""
        values = np.asarray(values, dtype=float)
        if self.mean is not None:
            values = values - self.mean
        if self.scale is not None:
            values = values / self.scale
        return values

    def denormalize(self, values: np.ndarray) -> np.ndarray:
        """Map node voltages back into the data domain."""
        values = np.asarray(values, dtype=float)
        if self.scale is not None:
            values = values * self.scale
        if self.mean is not None:
            values = values + self.mean
        return values

    def with_coupling(self, J: np.ndarray) -> "DSGLModel":
        """Return a copy with a new coupling matrix (e.g. after pruning)."""
        return DSGLModel(
            J=J,
            h=self.h.copy(),
            mean=None if self.mean is None else self.mean.copy(),
            scale=None if self.scale is None else self.scale.copy(),
            metadata=dict(self.metadata),
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Serialize to an ``.npz`` archive with a JSON metadata sidecar entry."""
        path = Path(path)
        np.savez_compressed(
            path,
            J=self.J,
            h=self.h,
            mean=np.zeros(0) if self.mean is None else self.mean,
            scale=np.zeros(0) if self.scale is None else self.scale,
            metadata=np.frombuffer(
                json.dumps(self.metadata).encode("utf-8"), dtype=np.uint8
            ),
        )

    @classmethod
    def load(cls, path: str | Path) -> "DSGLModel":
        """Deserialize a model written by :meth:`save`."""
        with np.load(Path(path)) as archive:
            J = archive["J"]
            h = archive["h"]
            mean = archive["mean"]
            scale = archive["scale"]
            metadata = json.loads(bytes(archive["metadata"]).decode("utf-8"))
        return cls(
            J=J,
            h=h,
            mean=mean if mean.size else None,
            scale=scale if scale.size else None,
            metadata=metadata,
        )


def random_sparse_system(
    n: int, density: float, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """A random symmetric coupling matrix at a target off-diagonal density.

    Couplings are drawn for a uniform random subset of node pairs;
    ``h`` is set diagonally dominant (strictly negative, exceeding each
    row's absolute coupling sum) so the system is convex and every
    execution path converges to the same unique fixed point.

    Returns:
        ``(J, h)`` with ``J`` dense ``(n, n)`` and ``h`` of shape ``(n,)``.
    """
    if not 0 < density <= 1:
        raise ValueError(f"density must be in (0, 1], got {density}")
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    num_pairs = iu.size
    keep = max(1, int(round(density * num_pairs)))
    selected = rng.choice(num_pairs, size=keep, replace=False)
    weights = rng.normal(size=keep) * 0.5
    J = np.zeros((n, n))
    J[iu[selected], ju[selected]] = weights
    J[ju[selected], iu[selected]] = weights
    h = -(np.abs(J).sum(axis=1) + 1.0)
    return J, h


def random_sparse_mesh(
    n: int, density: float, seed: int = 0
) -> tuple["object", np.ndarray]:
    """A random symmetric CSR coupling matrix at 100k-node scale.

    :func:`random_sparse_system` materializes every node pair via
    ``np.triu_indices`` — fine to a few thousand nodes, hopeless at 100k
    (5e9 pairs).  This generator samples ``density * n * (n-1) / 2``
    upper-triangle pairs directly and never builds a dense matrix, so a
    100k-node / 0.1%-density system costs ~10M entries, not 80 GB.

    Returns:
        ``(J, h)`` with ``J`` a ``scipy.sparse.csr_matrix`` of shape
        ``(n, n)`` and ``h`` of shape ``(n,)``.
    """
    if not 0 < density <= 1:
        raise ValueError(f"density must be in (0, 1], got {density}")
    rng = np.random.default_rng(seed)
    num_pairs = n * (n - 1) // 2
    keep = max(1, min(num_pairs, int(round(density * num_pairs))))
    # Sample pair indices with replacement, then dedupe: at low density
    # collisions are rare and the realized density stays within a hair of
    # the target, without a 5e9-element permutation.
    flat = np.unique(rng.integers(0, num_pairs, size=int(keep * 1.05) + 8))
    # Keep a random subset of the distinct pairs: ``np.unique`` sorts, so
    # its head would drop the pairs of the last rows.
    flat = rng.choice(flat, size=min(keep, flat.size), replace=False)
    # Invert the row-major upper-triangle linearization k = i*n - i(i+3)/2
    # + j - 1 via the quadratic formula (float64 is exact for n <= ~1e6).
    i = (
        n - 2 - np.floor(
            (np.sqrt(4.0 * n * (n - 1) - 8.0 * flat - 7.0) - 1.0) / 2.0
        )
    ).astype(np.int64)
    j = (flat + i * (i + 3) // 2 - i * n + 1).astype(np.int64)
    weights = rng.normal(size=flat.size) * 0.5
    J = sp.coo_matrix(
        (
            np.concatenate([weights, weights]),
            (np.concatenate([i, j]), np.concatenate([j, i])),
        ),
        shape=(n, n),
    ).tocsr()
    h = -(np.abs(J).sum(axis=1).A1 + 1.0)
    return J, h
