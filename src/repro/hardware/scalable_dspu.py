"""The Scalable DSPU: distributed spatial-temporal co-annealing (Sec. IV).

A :class:`ScalableDSPU` is a decomposed system mapped onto the PE/CU grid.
Its annealing simulator reproduces the paper's two operating modes:

* **Spatial co-annealing** — every CU fits its couplings in one slice; all
  inter-PE couplings conduct continuously.  Inter-PE node values are
  exchanged at the hardware synchronization interval (200 ns on DS-GL;
  Fig. 12 sweeps it), held constant (zero-order hold) in between.
* **Temporal & Spatial co-annealing** — some CU needs several slices; the
  Switch-in-turn rotation activates one slice per switch interval.  While
  a coupling is inactive, its last-sampled contribution is held by the PE
  buffers, so the rotation converges to the same fixed point given enough
  phases — buying accuracy with annealing time (Fig. 11).

Simulation method: between digital control events (sync/switch edges) the
analog dynamics are *linear*, ``dsigma/dt = A sigma + b`` with constant
``A`` and ``b``, so each interval is integrated exactly with the matrix
exponential — no step-size error regardless of interval length.  The few
distinct ``A`` matrices (one per live-slice phase) are factored once per
clamp set and control interval, not once per call.  Each DSPU caches its
last build in two stages: the per-phase free-node blocks, growth bounds
and forcing couplings per clamp set (and spatial-only flag), and the
``expm`` propagators and forcing integrals per clamp set and interval.  A
latency sweep or a run of prediction windows thus reuses one build.
Coupler noise and fault injection perturb each call's couplings, so those
calls build afresh and leave the cache untouched.

A build reads only the free-node rows of the live matrices, so it builds
only those rows: the duty-boosted phases are stored as one stacked
``(phases * n, n)`` matrix, and one slice of it and of the always-live
part, the coupler noise on those entries alone, and one sum give every
phase's rows at once.  Those rows split into the dense free-node blocks
and one stacked forcing coupling, so each call computes every phase's
clamped-node drive with one product.  The growth bounds are Gershgorin
bounds, and an exact eigenvalue is computed only for a phase whose bound
comes within a factor of two of the per-phase cap.  Every build runs with
numpy's and scipy's bundled OpenBLAS pools held at one thread each: the
free-node blocks are small, and two spinning 2-thread pools cost several
times the arithmetic (EXPERIMENTS.md).

Physical timescale: trained parameters are conductances up to an arbitrary
global scale (scaling ``J`` and ``h`` together leaves the fixed point
unchanged).  The simulator normalizes that scale so the fastest node time
constant equals ``node_time_constant_ns``, anchoring annealing latency in
nanoseconds like the paper's circuit.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import logging
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy
from scipy import sparse as sp
from scipy.linalg import expm

from .. import obs
from ..core.inference import split_nodes
from ..core.operators import select_backend
from ..decompose.pipeline import DecomposedSystem
from ..faults.model import NO_FAULTS, FaultScenario, NullFaultScenario
from ..faults.resilience import check_finite
from .config import HardwareConfig
from .pe import ProcessingElement
from .scheduler import CoAnnealingSchedule, build_schedule

__all__ = ["AnnealingOutcome", "ScalableDSPU"]

logger = logging.getLogger("repro.hardware")

#: ``backend="auto"`` only switches the per-phase matrices to CSR storage
#: for systems at least this large; small grids gain nothing from sparsity.
SPARSE_AUTO_MIN_NODES = 128

#: Largest growth exponent of one phase over one control interval.
GROWTH_CAP = 30.0

#: The OpenBLAS builds bundled in the numpy and scipy wheels: the package,
#: the library's file pattern in ``<package>.libs/`` and the suffix of its
#: exported thread-count functions.
_BUNDLED_OPENBLAS = (
    (np, "libscipy_openblas64_*.so", "64_"),
    (scipy, "libscipy_openblas*.so", ""),
)


@functools.cache
def _openblas_thread_controls() -> tuple:
    """``(get, set)`` thread-count functions of each bundled OpenBLAS.

    Resolved once through ctypes on the libraries numpy and scipy already
    loaded; empty when neither wheel bundles one (e.g. a system BLAS).
    """
    controls = []
    for package, pattern, suffix in _BUNDLED_OPENBLAS:
        site = os.path.dirname(os.path.dirname(package.__file__))
        libs = os.path.join(site, f"{package.__name__}.libs")
        symbol = "scipy_openblas_{}_num_threads" + suffix
        for path in sorted(glob.glob(os.path.join(libs, pattern))):
            try:
                library = ctypes.CDLL(path)
                get = getattr(library, symbol.format("get"))
                set_ = getattr(library, symbol.format("set"))
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
    return tuple(controls)


@contextmanager
def _one_blas_thread():
    """Hold every bundled OpenBLAS at one thread for the block.

    Yields the thread count in effect (1), or ``None`` when no library was
    found and nothing changed.  The previous counts come back on exit,
    also when the block raises.  The setting is process-wide, so the
    block must not hand BLAS work to another thread.
    """
    controls = _openblas_thread_controls()
    previous = [get() for get, _set in controls]
    for _get, set_threads in controls:
        set_threads(1)
    try:
        yield 1 if controls else None
    finally:
        for (_get, set_threads), count in zip(controls, previous):
            set_threads(count)


def _pairs_matrix(
    entries: list[tuple[int, int, float]], n: int, sparse: bool
):
    """Symmetric matrix from ``(i, j, weight)`` coupling pairs.

    Duplicate ``(i, j)`` entries *accumulate* — two conductances wired in
    parallel add — and they must do so identically in both storage
    backends: the CSR constructor sums duplicate coordinates, so the
    dense path accumulates with ``+=`` rather than assigning
    (last-write-wins would silently diverge from the sparse backend;
    regression-tested by ``tests/hardware/test_scalable_dspu.py``).
    """
    if not sparse:
        M = np.zeros((n, n))
        for i, j, w in entries:
            M[i, j] += w
            M[j, i] += w
        return M
    rows = [i for i, _j, _w in entries] + [j for _i, j, _w in entries]
    cols = [j for _i, j, _w in entries] + [i for i, _j, _w in entries]
    data = [w for _i, _j, w in entries] * 2
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


def _forcing_integral(B: np.ndarray, t: float, phi: np.ndarray) -> np.ndarray:
    """Forcing integral ``int_0^t e^{Bs} ds``, robust to singular ``B``.

    The closed form ``B^{-1} (e^{Bt} - I)`` is the fast path, but a
    free-node block can be exactly singular — an isolated free node with
    zero self-reaction yields a zero 1x1 block, where the integral is
    simply ``t * I`` — or close enough to singular that the solve returns
    garbage without raising.  Both cases fall back to the augmented-matrix
    identity (Van Loan)::

        expm([[B*t, I*t], [0, 0]]) = [[e^{Bt}, int_0^t e^{Bs} ds], [0, I]]

    which is well-defined for every ``B``.
    """
    m = B.shape[0]
    identity = np.eye(m)
    target = phi - identity
    try:
        integral = np.linalg.solve(B, target)
    except np.linalg.LinAlgError:
        integral = None
    if integral is not None and np.isfinite(integral).all():
        residual = float(np.abs(B @ integral - target).max())
        if residual <= 1e-8 * max(float(np.abs(target).max()), 1.0):
            return integral
    augmented = np.zeros((2 * m, 2 * m))
    augmented[:m, :m] = B * t
    augmented[:m, m:] = identity * t
    return expm(augmented)[:m, m:]


def _scale_entries(matrix, factor: np.ndarray):
    """``matrix`` times ``factor`` entry by entry, repeated down a stack.

    A dense ``(m, n)`` or ``(phases, m, n)`` matrix broadcasts.  A CSR
    ``(phases * m, n)`` matrix scales row ``r`` by row ``r % m`` of
    ``factor`` and keeps its sparsity pattern and entry order.
    """
    if not sp.issparse(matrix):
        return matrix * factor
    row = np.repeat(
        np.arange(matrix.shape[0]) % factor.shape[0], np.diff(matrix.indptr)
    )
    return sp.csr_matrix(
        (matrix.data * factor[row, matrix.indices], matrix.indices,
         matrix.indptr),
        shape=matrix.shape,
    )


def _gershgorin_bounds(blocks: np.ndarray) -> np.ndarray:
    """Upper bound on the top eigenvalue of each block's symmetric part.

    Gershgorin's circle theorem: every eigenvalue of a symmetric ``S``
    lies below ``max_i (S_ii + sum_{j != i} |S_ij|)``.  Here
    ``S = (B + B^T) / 2``; the halving is exact, so it is applied once to
    the row sums, and one array is reused for every step.
    """
    twice_off = blocks + blocks.transpose(0, 2, 1)
    np.abs(twice_off, out=twice_off)
    index = np.arange(blocks.shape[1])
    twice_off[:, index, index] = 0.0
    diagonal = np.diagonal(blocks, axis1=1, axis2=2)
    # ``initial`` only matters for an empty free set (no eigenvalues).
    return (diagonal + twice_off.sum(axis=2) / 2.0).max(
        axis=1, initial=-np.inf
    )


@dataclass(frozen=True)
class _ClampStage:
    """Interval-independent half of a propagator build, for one clamp set."""

    blocks: np.ndarray  # (phases, m, m) dense free-node blocks A_p[free, free]
    bounds: np.ndarray  # Gershgorin bound on each block's top growth rate
    # Forcing couplings A_p[free, clamp] of every phase: a contiguous dense
    # (phases, m, c) stack or one (phases * m, c) CSR matrix.
    coupling: np.ndarray | sp.csr_matrix


@dataclass(frozen=True)
class _IntervalStage:
    """Per-phase ``(phi, integral)`` propagators for one control interval."""

    propagators: list[tuple[np.ndarray, np.ndarray]]
    rotation_radius: float  # of the capped, undamped rotation map
    damping_delta: float  # uniform damping applied, per ns; 0.0 if none
    capped_phases: int  # phases whose growth ``GROWTH_CAP`` capped
    exact_bounds: int  # phases whose exact top eigenvalue was computed


def _clamp_stage(
    A_local,
    A_inter,
    free: np.ndarray,
    clamp: np.ndarray,
    faults: FaultScenario | NullFaultScenario = NO_FAULTS,
    coupler_noise: np.ndarray | None = None,
) -> _ClampStage:
    """Free-node blocks, growth bounds and forcing couplings of each phase.

    Phase ``p`` lives ``A_local + A_inter[p*n:(p+1)*n]``: ``A_inter``
    stacks the phases' inter-PE matrices as one ``(phases * n, n)``
    matrix, dense or CSR like ``A_local``.  Only the free rows of a live
    matrix are ever read, so only they are built: one slice of each
    operand, the coupler noise on those entries alone, and one sum that
    yields every phase's ``(m, n)`` rows at once.  The matrix exponential
    is inherently dense, so only the free-node blocks are densified —
    never an ``(n, n)`` system.
    """
    n = A_local.shape[0]
    phases = A_inter.shape[0] // n
    sparse = sp.issparse(A_local)
    if faults.affects_coupling:
        # Fault offsets scale with the mean programmed magnitude of the
        # matrix they hit, so every full matrix is faulted before slicing.
        A_local = faults.apply_coupling(A_local)
        faulted = [
            faults.apply_coupling(A_inter[p * n:(p + 1) * n])
            for p in range(phases)
        ]
        A_inter = (
            sp.vstack(faulted, format="csr") if sparse
            else np.concatenate(faulted)
        )
    m = free.size
    local = A_local[free]
    inter = (
        A_inter[(np.arange(phases)[:, None] * n + free).ravel()] if sparse
        else A_inter.reshape(phases, n, n)[:, free]
    )
    if coupler_noise is not None:
        noise = coupler_noise[free]
        # The self-reaction resistor is inside the node, not a coupler:
        # its conductance keeps the nominal value (x * 1.0 == x exactly).
        nominal = noise.copy()
        nominal[np.arange(m), free] = 1.0
        local = _scale_entries(local, nominal)
        inter = _scale_entries(inter, noise)
    if sparse:
        live = sp.vstack([local] * phases, format="csr") + inter
        blocks = live[:, free].toarray().reshape(phases, m, m)
        coupling = live[:, clamp]
    else:
        live = local + inter
        blocks = np.take(live, free, axis=2)
        # ``take`` returns a C-contiguous stack, so each phase's forcing
        # product runs the same BLAS gemv as on its own (m, c) block.
        coupling = np.take(live, clamp, axis=2)
    return _ClampStage(blocks, _gershgorin_bounds(blocks), coupling)


def _interval_stage(stage: _ClampStage, interval: float) -> _IntervalStage:
    """Exact per-phase propagators with a rotation-level stability guard.

    Individual duty-boosted phases may be transiently unstable; what
    must contract is the *rotation map* — the product of the phase
    propagators, whose time-average equals the trained (convex)
    dynamics.  Damping is therefore applied in two bias-minimizing
    steps: (i) a per-phase cap that only prevents numerical overflow
    within one interval, and (ii) a *uniform* damping conductance, the
    minimum that brings the rotation's spectral radius to 0.99.  Uniform
    damping shifts every phase equally, so the bias on the averaged
    dynamics is the smallest that stabilizes the orbit (and is zero
    whenever the rotation already contracts).

    The cap applies where a block's top growth rate (the top eigenvalue
    of its symmetric part) exceeds ``GROWTH_CAP / interval``, and shifts
    the block by the excess.  The clamp stage's Gershgorin bounds gate
    the exact rate: one stacked ``eigvalsh`` runs only over the phases
    whose bound exceeds *half* the limit.  A block bounded below half the
    limit cannot reach it, and the factor of two keeps rounding in the
    bound from ever flipping the decision, so every phase is capped
    exactly as exact bounds on all phases would cap it.

    The forcing integrals are computed once, for the final matrices.
    The order of numpy and scipy calls does not matter for speed: numpy
    and scipy each bundle an OpenBLAS, and the build runs with both held
    at one thread (:func:`_one_blas_thread`), so neither pool spins
    against the other when calls interleave (EXPERIMENTS.md).
    """
    phases, m, _m = stage.blocks.shape
    if m == 0:
        empty = np.zeros((0, 0))
        return _IntervalStage([(empty, empty)] * phases, 0.0, 0.0, 0, 0)
    identity = np.eye(m)
    limit = GROWTH_CAP / interval
    exact = np.flatnonzero(stage.bounds > limit / 2.0)
    excess = np.zeros(phases)
    if exact.size:
        blocks = stage.blocks[exact]
        symmetric = (blocks + blocks.transpose(0, 2, 1)) / 2.0
        excess[exact] = np.linalg.eigvalsh(symmetric).max(axis=1) - limit
    capped = [
        B - e * identity if e > 0 else B
        for B, e in zip(stage.blocks, excess)
    ]
    phis = [expm(B * interval) for B in capped]
    rotation = identity
    for phi in phis:
        rotation = phi @ rotation
    radius = float(np.max(np.abs(np.linalg.eigvals(rotation))))
    delta = 0.0
    if radius >= 0.999:
        delta = float(np.log(radius / 0.99) / (interval * phases))
        capped = [B - delta * identity for B in capped]
        phis = [expm(B * interval) for B in capped]
    propagators = [
        (phi, _forcing_integral(B, interval, phi))
        for B, phi in zip(capped, phis)
    ]
    return _IntervalStage(
        propagators, radius, delta,
        capped_phases=int(np.count_nonzero(excess > 0)),
        exact_bounds=int(exact.size),
    )


@dataclass
class AnnealingOutcome:
    """Result of one co-annealing inference run.

    Attributes:
        prediction: Denormalized free-node values.
        state: Final node voltages (normalized domain).
        latency_ns: Simulated annealing time.  Quantized to whole control
            intervals, rounding *up*: the machine always anneals at least
            the requested ``duration_ns`` — unless ``early_exit`` settled
            the run first, in which case it reflects the intervals
            actually integrated.
        mode: ``"spatial"`` or ``"temporal+spatial"``.
        phases_completed: Switch-in-turn phases executed — one per control
            interval actually integrated.
        sync_skips: Synchronization events lost to injected faults (the
            mapping rotation stalls for each; 0 without fault injection).
        exited_early: The run settled (state unchanged over
            ``settle_patience`` consecutive full rotations) and stopped
            before the requested duration.
        rotations_completed: Full Switch-in-turn rotations the phase
            cursor completed.  A stalled sync edge does not advance the
            cursor.  ``0`` on a multi-phase mapping means the readout
            ended inside the first rotation: some phases never ran.
    """

    prediction: np.ndarray
    state: np.ndarray
    latency_ns: float
    mode: str
    phases_completed: int
    energy_trace: np.ndarray | None = None
    sync_skips: int = 0
    exited_early: bool = False
    rotations_completed: int = 0


class ScalableDSPU:
    """A decomposed DS-GL system mapped onto the multi-PE hardware.

    Args:
        system: Output of :func:`repro.decompose.decompose`.
        config: Hardware parameters; the grid must match the placement.
        node_time_constant_ns: Time constant assigned to the fastest node
            after conductance normalization.
        seed: Initialization randomness seed.
        backend: Storage of the per-phase dynamics matrices — ``"dense"``,
            ``"sparse"`` (CSR), or ``"auto"``, which picks sparse for
            large low-density decompositions so every switch phase avoids
            holding (and multiplying) an ``(n, n)`` dense matrix.

    The DSPU caches its last clamp-set and interval propagator builds
    (see the module docstring); pickling drops them.
    """

    def __init__(
        self,
        system: DecomposedSystem,
        config: HardwareConfig | None = None,
        node_time_constant_ns: float = 1.0,
        seed: int = 0,
        backend: str = "auto",
    ):
        if config is None:
            rows, cols = system.placement.grid_shape
            config = HardwareConfig(
                grid_shape=(rows, cols),
                pe_capacity=system.placement.capacity,
            )
        self.system = system
        self.config = config
        self.seed = seed
        model = system.model
        self.model = model
        if backend not in ("auto", "dense", "sparse"):
            raise ValueError(f"unknown backend {backend!r}")
        if backend == "auto":
            backend = select_backend(
                model.J, min_sparse_size=SPARSE_AUTO_MIN_NODES
            )
        self.backend = backend

        self.pes = [
            ProcessingElement(
                index=p,
                nodes=group,
                capacity=config.pe_capacity,
                lanes=config.lanes,
            )
            for p, group in enumerate(system.placement.groups)
        ]
        self.schedule: CoAnnealingSchedule = build_schedule(
            model.J, system.placement, config
        )

        # Conductance normalization: fastest eigen-rate of -(J + diag(h))
        # maps to 1 / node_time_constant_ns.
        if node_time_constant_ns <= 0:
            raise ValueError("node_time_constant_ns must be positive")
        A_raw = model.J + np.diag(model.h)
        rates = np.abs(np.linalg.eigvalsh((A_raw + A_raw.T) / 2.0))
        fastest = float(rates.max()) if rates.size else 1.0
        self.time_scale = 1.0 / (fastest * node_time_constant_ns)
        A = A_raw * self.time_scale  # dsigma/dt = A sigma (free part)

        # Split the dynamics into the always-live part (intra-PE plus the
        # self-reaction) and per-phase inter-PE parts.
        pe_of = system.placement.pe_of_node
        n = model.n
        inter_mask = np.zeros((n, n), dtype=bool)
        rows_nz, cols_nz = np.nonzero(model.J)
        crossing = pe_of[rows_nz] != pe_of[cols_nz]
        inter_mask[rows_nz[crossing], cols_nz[crossing]] = True
        sparse = self.backend == "sparse"
        local = np.where(inter_mask, 0.0, A)
        self._A_local = sp.csr_matrix(local) if sparse else local
        boosted: list = []
        for phase in range(self.schedule.num_phases):
            pairs: list[tuple[int, int, float]] = []
            for a in self.schedule.active_in_phase(phase):
                # Duty-cycle compensation: a coupler time-shared by s
                # slices conducts for 1/s of the time, so its programmed
                # conductance is scaled by s — the time-averaged coupling
                # then equals the trained parameter (Weight Select swaps
                # the stronger value in at switch time).
                s = self.schedule.slices_per_cu[a.cu]
                pairs.append((a.node_a, a.node_b, A[a.node_a, a.node_b] * s))
            boosted.append(_pairs_matrix(pairs, n, sparse))
        # Every boosted phase in one (phases * n, n) stack.
        self._A_inter_boosted = (
            sp.vstack(boosted, format="csr") if sparse
            else np.concatenate(boosted)
        )
        # Phase 0 without compensation: the DS-GL-Spatial design point.
        self._A_inter_spatial = _pairs_matrix(
            [
                (a.node_a, a.node_b, A[a.node_a, a.node_b])
                for a in self.schedule.active_in_phase(0)
            ],
            n, sparse,
        )
        # (key, stage) of the last noise-free, fault-free build per stage.
        self._clamp_slot = self._interval_slot = (None, None)

    def __getstate__(self) -> dict:
        # A pickled DSPU carries the mapping, not its cached propagators.
        state = self.__dict__.copy()
        state["_clamp_slot"] = state["_interval_slot"] = (None, None)
        return state

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """Which co-annealing mode the mapping requires."""
        return "spatial" if self.schedule.is_spatial_only else "temporal+spatial"

    @property
    def num_phases(self) -> int:
        """Switch-in-turn period of the mapping."""
        return self.schedule.num_phases

    def utilization(self) -> float:
        """Mean PE occupancy relative to capacity."""
        return float(
            np.mean([pe.occupancy / pe.capacity for pe in self.pes])
        )

    # ------------------------------------------------------------------
    # Co-annealing
    # ------------------------------------------------------------------
    def anneal(
        self,
        observed_index: np.ndarray,
        observed_values: np.ndarray,
        duration_ns: float = 5000.0,
        sync_interval_ns: float | None = None,
        rng: np.random.Generator | None = None,
        node_noise_std: float = 0.0,
        coupling_noise_std: float = 0.0,
        force_spatial_only: bool = False,
        record_energy: bool = False,
        faults: FaultScenario | NullFaultScenario = NO_FAULTS,
        early_exit: bool = False,
        settle_tolerance: float = 1e-4,
        settle_patience: int = 2,
    ) -> AnnealingOutcome:
        """Run co-annealing inference.

        During each switch phase the live circuit — every intra-PE
        crossbar plus the active slice of each CU crossbar — is a linear
        analog system integrated exactly over the phase.  Time-multiplexed
        couplings are *duty-cycle compensated*: a coupler shared by ``s``
        slices is programmed ``s`` times stronger, so the time-averaged
        dynamics equal the trained system and the rotation converges to
        the true fixed point with a ripple that shrinks as the
        synchronization (switch) interval shrinks — the Fig. 12 behaviour.
        The reported state is the average over the last full rotation
        (ripple filtering).

        The ``dspu.anneal`` span's ``propagators`` attribute records
        whether the cached propagator builds were reused.  A call that
        built records the BLAS thread count of its build in
        ``blas_threads``, the phases the growth cap shifted in
        ``capped_phases``, and the phases whose exact top eigenvalue the
        cap gate computed in ``exact_bounds``.  With metrics enabled, the
        span's ``clipped_intervals`` counts the control intervals in which
        the ±rail clip moved a free node, and the ``dspu.rail_clips``
        counter the node values it moved.  The span's
        ``rotations_completed`` counts the full Switch-in-turn rotations
        (see :class:`AnnealingOutcome`), and the ``dspu.partial_rotations``
        counter the multi-phase anneals that ended inside their first.

        Args:
            observed_index: Clamped (observed) node indices: in range and
                duplicate-free.
            observed_values: Raw-domain observed values, one per index.
            duration_ns: Requested annealing time.  Digital control
                quantizes it to whole control intervals, rounding *up*, so
                the realized ``latency_ns`` is the smallest whole number
                of intervals covering the request (500 ns at a 200 ns sync
                interval anneals 3 intervals = 600 ns, never 400 ns).
            sync_interval_ns: Interval between mapping switches (the
                inter-tile synchronization interval of Sec. V.D);
                defaults to the hardware's 200 ns.
            rng: Randomness source for initialization/noise.
            node_noise_std: Gaussian node-voltage noise per control
                interval, as a fraction of rail (Sec. V.G).
            coupling_noise_std: Multiplicative Gaussian coupler noise.
            force_spatial_only: Keep only phase-0 couplings live, without
                compensation (the "DS-GL-Spatial" design point of Table
                II: temporal co-annealing disabled, trading accuracy for
                latency).
            record_energy: Record the trained Hamiltonian's value at each
                control interval in ``energy_trace``.
            faults: A sampled :class:`~repro.faults.model.FaultScenario`
                to inject — stuck nodes anneal as forced rail clamps,
                coupler faults transform every live coupling matrix, and
                missed sync events stall the Switch-in-turn rotation.  The
                default null scenario adds no work and leaves results
                bit-for-bit unchanged.
            early_exit: Stop annealing once the rotation orbit has
                settled.  Settling is judged over *full rotations* (every
                ``num_phases`` control intervals): the inf-norm change of
                the state across one rotation must stay at or below
                ``settle_tolerance`` for ``settle_patience`` consecutive
                rotations.  Comparing rotation-to-rotation (not
                interval-to-interval) keeps the time-multiplexing ripple
                from masking or faking convergence.  The readout stays
                ripple-filtered over the last full rotation; with
                ``early_exit=False`` (the default) the schedule, readout,
                and counters are bit-for-bit unchanged.
            settle_tolerance: Normalized-volts threshold on the
                per-rotation state change; must be positive.
            settle_patience: Consecutive settled rotations required
                before exiting; must be >= 1.

        Returns:
            :class:`AnnealingOutcome`.

        Raises:
            DivergenceError: Fault injection is active and the state went
                non-finite mid-run (fault-perturbed dynamics may lose the
                trained system's contractivity).
        """
        if duration_ns <= 0:
            raise ValueError("duration_ns must be positive")
        if early_exit:
            if settle_tolerance <= 0:
                raise ValueError(
                    f"settle_tolerance must be positive, got {settle_tolerance}"
                )
            if settle_patience < 1:
                raise ValueError(
                    f"settle_patience must be >= 1, got {settle_patience}"
                )
        model = self.model
        n = model.n
        cfg = self.config
        sync = sync_interval_ns if sync_interval_ns is not None else cfg.sync_interval_ns
        if sync <= 0:
            raise ValueError("sync interval must be positive")
        rng = rng or np.random.default_rng(self.seed)

        observed_values = np.asarray(observed_values, dtype=float).reshape(-1)
        observed_index, free = split_nodes(observed_index, n, observed_values)
        clamp = self._normalize_subset(observed_index, observed_values)

        # Stuck-at-rail nodes are driven capacitors: exact within the
        # clamp machinery.  The fault overrides an observation on the same
        # node (the device pins the voltage regardless of the drive).
        stuck = faults.stuck_index
        if stuck.size:
            keep = ~np.isin(observed_index, stuck)
            clamp_index = np.concatenate([observed_index[keep], stuck])
            clamp_value = np.concatenate(
                [clamp[keep], faults.stuck_values(cfg.rail_volts)]
            )
            free_dyn = np.setdiff1d(np.arange(n), clamp_index)
        else:
            clamp_index, clamp_value = observed_index, clamp
            free_dyn = free

        sigma = rng.uniform(-cfg.rail_volts, cfg.rail_volts, size=n)
        sigma[clamp_index] = clamp_value

        # Digital control quantizes time to whole intervals, rounding up:
        # the machine never anneals for less than the requested duration.
        interval = min(sync, duration_ns)
        num_intervals = max(1, math.ceil(duration_ns / interval - 1e-9))

        coupler_noise = None
        if coupling_noise_std > 0:
            factor = rng.normal(1.0, coupling_noise_std, size=(n, n))
            coupler_noise = (factor + factor.T) / 2.0

        num_phases = 1 if force_spatial_only else max(1, self.num_phases)
        mode = (
            "spatial"
            if (force_spatial_only or self.mode == "spatial")
            else "temporal+spatial"
        )
        span = obs.tracer().span(
            "dspu.anneal",
            mode=mode,
            n=n,
            num_phases=num_phases,
            sync_interval_ns=float(interval),
            num_intervals=num_intervals,
            clamped_nodes=int(observed_index.size),
            free_nodes=int(free.size),
        )
        with span:
            if faults.enabled and obs.enabled():
                obs.tracer().event(
                    "faults.injected", where="dspu", **faults.summary()
                )
            clamp_stage, interval_stage, source, blas_threads = (
                self._propagators(
                    observed_index, free_dyn, clamp_index, interval,
                    force_spatial_only, faults, coupler_noise,
                )
            )
            span.set("propagators", source)
            if blas_threads is not None:
                span.set("blas_threads", blas_threads)
            if source != "hit":
                span.set("capped_phases", interval_stage.capped_phases)
                span.set("exact_bounds", interval_stage.exact_bounds)
            span.set("rotation_radius", interval_stage.rotation_radius)
            span.set("damping_delta", interval_stage.damping_delta)
            # The clamped-node drive of each phase is constant across the
            # whole run, so it is computed once instead of per interval,
            # from one forcing product over every phase.
            phis = [phi for phi, _integral in interval_stage.propagators]
            forcing = np.asarray(clamp_stage.coupling @ clamp_value).reshape(
                clamp_stage.blocks.shape[:2]
            )
            drives = [
                integral @ drive
                for (_phi, integral), drive in zip(
                    interval_stage.propagators, forcing
                )
            ]

            def propagate(phase: int, state: np.ndarray) -> np.ndarray:
                out = state.copy()
                out[free_dyn] = phis[phase] @ state[free_dyn] + drives[phase]
                return out

            skip_mask = faults.sync_skip_mask(num_intervals)
            guard = faults.enabled
            collect = obs.metrics().enabled
            rail = cfg.rail_volts
            rail_clips = clipped_intervals = 0
            phase_elapsed = [0.0] * num_phases
            phases_completed = 0
            sync_skips = 0
            phase_cursor = 0
            rotation = min(num_phases, num_intervals)
            tail_states: list[np.ndarray] = []
            hamiltonian = self.model.hamiltonian() if record_energy else None
            energy_trace: list[float] = []
            # Early-exit bookkeeping: a rolling window of the last
            # `rotation` states (so the ripple-filtered readout survives a
            # mid-run stop) plus the state one rotation ago.
            settle_reference = sigma.copy() if early_exit else None
            settle_streak = 0
            exited_early = False
            intervals_done = num_intervals
            for k in range(num_intervals):
                phase = phase_cursor % num_phases
                if collect:
                    started = time.perf_counter()
                    sigma = propagate(phase, sigma)
                    phase_elapsed[phase] += time.perf_counter() - started
                else:
                    sigma = propagate(phase, sigma)
                # Every integrated interval executes one switch phase
                # (counting only completed rotations undercounted: 4
                # intervals over 4 phases used to report 0).
                phases_completed += 1
                if skip_mask is not None and skip_mask[k]:
                    # The sync edge was missed: the PEs keep integrating
                    # the same live slice, and the Weight Select rotation
                    # stalls for one interval.
                    sync_skips += 1
                else:
                    phase_cursor += 1
                if node_noise_std > 0:
                    sigma[free] += rng.normal(
                        0.0, node_noise_std * rail, size=free.size
                    )
                if collect:
                    # Free-node values the rail clip is about to move; the
                    # clamped ones are re-asserted right after it.
                    clips = int(
                        np.count_nonzero(np.abs(sigma[free_dyn]) > rail)
                    )
                    rail_clips += clips
                    clipped_intervals += clips > 0
                np.clip(sigma, -rail, rail, out=sigma)
                sigma[clamp_index] = clamp_value
                if guard:
                    check_finite(
                        sigma, "dspu.anneal", k + 1, (k + 1) * interval
                    )
                if hamiltonian is not None:
                    energy_trace.append(hamiltonian.energy(sigma))
                if early_exit:
                    tail_states.append(sigma.copy())
                    if len(tail_states) > rotation:
                        tail_states.pop(0)
                    if (k + 1) % rotation == 0:
                        moved = float(
                            np.max(np.abs(sigma - settle_reference))
                        )
                        settle_streak = (
                            settle_streak + 1
                            if moved <= settle_tolerance
                            else 0
                        )
                        settle_reference = sigma.copy()
                        if settle_streak >= settle_patience:
                            exited_early = True
                            intervals_done = k + 1
                            break
                elif k >= num_intervals - rotation:
                    tail_states.append(sigma.copy())

            rotations_completed = phase_cursor // num_phases
            if collect:
                registry = obs.metrics()
                registry.counter("dspu.anneal_runs").inc()
                # Every interval boundary is a digital control event: an
                # inter-PE synchronization plus one clamp re-assert per
                # clamped node and one forcing application per phase.
                registry.counter("dspu.sync_events").inc(
                    intervals_done - sync_skips
                )
                registry.counter("dspu.clamp_asserts").inc(
                    intervals_done * int(clamp_index.size)
                )
                registry.counter("dspu.forcing_applies").inc(intervals_done)
                if sync_skips:
                    registry.counter("dspu.sync_skips").inc(sync_skips)
                if exited_early:
                    registry.counter("dspu.early_exits").inc()
                # The readout of a multi-phase anneal that never completed
                # a rotation averages a partial rotation: some phases
                # never ran.
                registry.counter("dspu.partial_rotations").inc(
                    int(num_phases > 1 and rotations_completed == 0)
                )
                registry.counter("dspu.rail_clips").inc(rail_clips)
                span.set("clipped_intervals", clipped_intervals)
                for phase, elapsed in enumerate(phase_elapsed):
                    registry.histogram(f"dspu.phase{phase}_ms").observe(
                        elapsed * 1000.0
                    )

            # Ripple filtering: read out the mean over the final rotation.
            readout = np.mean(tail_states, axis=0)
            readout[clamp_index] = clamp_value
            prediction = self._denormalize_subset(free, readout)
            span.set("phases_completed", phases_completed)
            span.set("rotations_completed", rotations_completed)
            if sync_skips:
                span.set("sync_skips", sync_skips)
            if exited_early:
                span.set("early_exit_intervals", intervals_done)
            logger.debug(
                "dspu anneal: mode=%s intervals=%d phases_completed=%d "
                "latency=%.0fns propagators=%s rotation_radius=%.4f "
                "damping_delta=%.3e",
                mode, intervals_done, phases_completed,
                intervals_done * interval, source,
                interval_stage.rotation_radius, interval_stage.damping_delta,
            )
        return AnnealingOutcome(
            prediction=prediction,
            state=readout,
            latency_ns=intervals_done * interval,
            mode=mode,
            phases_completed=phases_completed,
            energy_trace=np.asarray(energy_trace) if record_energy else None,
            sync_skips=sync_skips,
            exited_early=exited_early,
            rotations_completed=rotations_completed,
        )

    def _propagators(
        self,
        observed_index: np.ndarray,
        free: np.ndarray,
        clamp_index: np.ndarray,
        interval: float,
        force_spatial_only: bool,
        faults: FaultScenario | NullFaultScenario,
        coupler_noise: np.ndarray | None,
    ) -> tuple[_ClampStage, _IntervalStage, str, int | None]:
        """Both propagator stages of one call, through the cache slots.

        Returns the two stages, where they came from — ``"hit"`` (both
        slots matched), ``"interval"`` (the clamp-set slot matched and the
        interval stage was rebuilt), ``"built"`` (both rebuilt), or
        ``"bypass"`` (perturbed couplings: both built, slots untouched) —
        and the BLAS thread count the build ran at (``None`` on a hit, or
        when no bundled OpenBLAS was found).
        """
        registry = obs.metrics()
        cacheable = coupler_noise is None and not faults.enabled
        clamp_key = (observed_index.tobytes(), force_spatial_only)
        interval_key = (clamp_key, interval)
        # The interval slot is always refilled together with the clamp-set
        # slot, so a matching interval key implies a matching clamp key.
        if cacheable and self._interval_slot[0] == interval_key:
            registry.counter("dspu.propagator_hits").inc()
            return self._clamp_slot[1], self._interval_slot[1], "hit", None
        with (
            registry.timer("dspu.build_propagators_ms"),
            _one_blas_thread() as blas_threads,
        ):
            if cacheable and self._clamp_slot[0] == clamp_key:
                clamp_stage, source = self._clamp_slot[1], "interval"
            else:
                clamp_stage = _clamp_stage(
                    self._A_local,
                    self._A_inter_spatial if force_spatial_only
                    else self._A_inter_boosted,
                    free, clamp_index, faults, coupler_noise,
                )
                source = "built" if cacheable else "bypass"
            interval_stage = _interval_stage(clamp_stage, interval)
        if cacheable:
            self._clamp_slot = (clamp_key, clamp_stage)
            self._interval_slot = (interval_key, interval_stage)
        registry.counter("dspu.propagator_builds").inc()
        if interval_stage.damping_delta:
            registry.counter("dspu.damped_builds").inc()
        registry.counter("dspu.capped_phases").inc(interval_stage.capped_phases)
        registry.counter("dspu.exact_growth_bounds").inc(
            interval_stage.exact_bounds
        )
        return clamp_stage, interval_stage, source, blas_threads

    # ------------------------------------------------------------------
    # Normalization helpers
    # ------------------------------------------------------------------
    def _normalize_subset(self, index: np.ndarray, raw: np.ndarray) -> np.ndarray:
        model = self.model
        values = np.asarray(raw, dtype=float)
        if model.mean is not None:
            values = values - model.mean[index]
        if model.scale is not None:
            values = values / model.scale[index]
        return values

    def _denormalize_subset(self, index: np.ndarray, state: np.ndarray) -> np.ndarray:
        model = self.model
        values = state[index]
        if model.scale is not None:
            values = values * model.scale[index]
        if model.mean is not None:
            values = values + model.mean[index]
        return values
