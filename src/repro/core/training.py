"""Training algorithms that tame the dynamical system (Sec. III.B).

Training constructs a data distribution *described by a dynamical system*:
it finds ``J`` and ``h`` (with ``h`` forced negative) such that, for every
training sample, each variable sits at the regression point

    sigma_i = - sum_j J_ij sigma_j / h_i                         (Eq. 10)

which is exactly the hardware stability criterion (Eq. 5).  Two fitters are
provided:

* :func:`fit_precision` — closed form.  Eq. (10) is the self-consistency
  condition of a Gaussian graphical model whose precision matrix is
  ``P = -(J + diag(h))``: for a Gaussian, ``E[x_i | x_-i] = -sum_j P_ij x_j
  / P_ii``.  Fitting the maximum-likelihood precision (ridge-regularized
  inverse covariance) therefore yields the parameters whose annealed fixed
  point is the optimal linear conditional predictor.  Symmetric by
  construction, convex by construction.
* :func:`fit_regression` — the paper's path: mini-batch gradient descent on
  the per-node regression loss with ``h`` parameterized strictly negative,
  followed by symmetrization and a convexity-margin repair.  Slower but
  supports coupling masks, which the decomposition fine-tuning (Sec. IV.B
  step 3) requires.

Both return a :class:`~repro.core.model.DSGLModel` carrying the
normalization used to map data into the voltage domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import symmetrize_coupling
from .model import DSGLModel
from .stability import enforce_convexity

__all__ = [
    "TrainingConfig",
    "normalization_stats",
    "fit_precision",
    "fit_precision_masked",
    "fit_regression",
    "regression_loss",
    "select_ridge",
]


@dataclass
class TrainingConfig:
    """Hyper-parameters shared by the fitters.

    Attributes:
        ridge: Tikhonov regularization added to the sample covariance /
            regression normal equations.
        margin: Convexity margin enforced on the returned system,
            relative to the strongest self-reaction magnitude.
        target_rail_fraction: Fraction of the voltage rail that one data
            standard deviation maps to; keeps annealed values off the rails.
        epochs: Gradient-descent epochs (regression fitter only).
        lr: Adam learning rate (regression fitter only).
        batch_size: Mini-batch size (regression fitter only).
        seed: Randomness seed (regression fitter only).
    """

    ridge: float = 1e-2
    margin: float = 0.01
    target_rail_fraction: float = 0.3
    epochs: int = 60
    lr: float = 0.05
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.ridge < 0:
            raise ValueError("ridge must be non-negative")
        if not 0 < self.target_rail_fraction <= 1:
            raise ValueError("target_rail_fraction must be in (0, 1]")
        if self.margin <= 0:
            raise ValueError("margin must be positive")


def normalization_stats(
    samples: np.ndarray, target_rail_fraction: float = 0.3
) -> tuple[np.ndarray, np.ndarray]:
    """Per-variable (mean, scale) mapping data into the voltage domain.

    One standard deviation of each variable maps to ``target_rail_fraction``
    of the supply rail so that typical annealed voltages stay in the linear
    region of the circuit.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValueError(f"samples must be (num_samples, n), got {samples.shape}")
    mean = samples.mean(axis=0)
    std = samples.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    scale = std / target_rail_fraction
    return mean, scale


def fit_precision(
    samples: np.ndarray,
    config: TrainingConfig | None = None,
    metadata: dict | None = None,
) -> DSGLModel:
    """Closed-form fit of ``(J, h)`` via the regularized precision matrix.

    Args:
        samples: ``(num_samples, n)`` matrix of full system configurations
            (for temporal tasks, windows flattened by
            :mod:`repro.core.temporal`).
        config: Hyper-parameters; defaults used when omitted.
        metadata: Stored on the returned model for provenance.

    Returns:
        A convex :class:`DSGLModel` whose clamped fixed points reproduce the
        optimal linear conditional estimates of the training distribution.
    """
    config = config or TrainingConfig()
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValueError(f"samples must be (num_samples, n), got {samples.shape}")
    num_samples, n = samples.shape
    if num_samples < 2:
        raise ValueError("need at least two samples to estimate a covariance")

    mean, scale = normalization_stats(samples, config.target_rail_fraction)
    z = (samples - mean) / scale

    cov = (z.T @ z) / num_samples
    cov.flat[:: n + 1] += config.ridge
    precision = np.linalg.inv(cov)
    precision = (precision + precision.T) / 2.0

    # P = -(J + diag(h))  =>  J = -offdiag(P),  h = -diag(P).
    h = -np.diag(precision).copy()
    J = -precision
    np.fill_diagonal(J, 0.0)
    J = symmetrize_coupling(J)
    # The margin is relative to the strongest self-reaction so the
    # trained system's conditioning (and hence its annealing settling
    # time in node time constants) is scale-free.
    h = enforce_convexity(J, h, margin=config.margin * float(np.max(-h)))

    model = DSGLModel(
        J=J,
        h=h,
        mean=mean,
        scale=scale,
        metadata={"fitter": "precision", **(metadata or {})},
    )
    return model


def fit_precision_masked(
    samples: np.ndarray,
    mask: np.ndarray,
    config: TrainingConfig | None = None,
    metadata: dict | None = None,
    max_sweeps: int = 40,
    tol: float = 1e-6,
) -> DSGLModel:
    """Refit ``(J, h)`` on a fixed sparsity support (the fine-tune step).

    The decomposition pipeline needs the best symmetric parameters *within*
    the hardware-realizable mask.  This is sparse precision estimation with
    known support; we solve it with the CONCORD pseudo-likelihood estimator
    (Khare, Oh & Rajaratnam, JRSS-B 2015): a jointly convex objective in
    the symmetric precision matrix, minimized by cyclic coordinate descent
    with closed-form per-entry updates.  Unlike per-node regression folding,
    the symmetry constraint is part of the optimization, so at the optimum
    nested supports yield monotonically better fits — the property behind
    the paper's "accuracy increases with density" curves (Fig. 10).  The
    descent stops at ``max_sweeps`` or ``tol``, whichever comes first, and
    the default budget ends short of the optimum on the paper's datasets,
    so a denser mask is not guaranteed a better fit.

    Args:
        samples: ``(num_samples, n)`` training configurations (raw domain).
        mask: Boolean ``(n, n)``; couplings outside are forced to zero.
        config: Hyper-parameters (``ridge``, ``margin``, normalization).
        metadata: Stored on the returned model.
        max_sweeps: Coordinate-descent sweep budget.
        tol: Convergence threshold on the largest coordinate update.

    Returns:
        A convex :class:`DSGLModel` supported only on ``mask``.  Its
        metadata records how the descent stopped: ``finetune_sweeps`` (the
        sweeps it ran), ``finetune_last_update`` (the largest update of the
        last sweep) and ``finetune_capped`` (it ran ``max_sweeps`` and that
        update was still at least ``tol``).
    """
    config = config or TrainingConfig()
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValueError(f"samples must be (num_samples, n), got {samples.shape}")
    num_samples, n = samples.shape
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (n, n):
        raise ValueError(f"mask must be ({n}, {n}), got {mask.shape}")
    mask = mask & mask.T & ~np.eye(n, dtype=bool)

    mean, scale = normalization_stats(samples, config.target_rail_fraction)
    z = (samples - mean) / scale
    S = z.T @ z / num_samples
    S.flat[:: n + 1] += config.ridge
    # The descent divides by every diagonal entry of S.
    degenerate = np.flatnonzero(~(np.diag(S) > 0.0))
    if degenerate.size:
        j = int(degenerate[0])
        raise ValueError(
            f"variable {j} has regularized variance {S[j, j]!r}; a constant "
            "variable needs ridge > 0"
        )

    omega, sweeps, last_update = _concord_descent(S, mask, max_sweeps, tol)

    h = -np.diag(omega).copy()
    J = symmetrize_coupling(-omega)  # J is minus the off-diagonal precision
    # The margin is relative to the strongest self-reaction so the
    # trained system's conditioning (and hence its annealing settling
    # time in node time constants) is scale-free.
    h = enforce_convexity(J, h, margin=config.margin * float(np.max(-h)))
    return DSGLModel(
        J=J,
        h=h,
        mean=mean,
        scale=scale,
        metadata={
            "fitter": "precision_masked",
            **(metadata or {}),
            "finetune_sweeps": sweeps,
            "finetune_last_update": last_update,
            "finetune_capped": sweeps == max_sweeps and not last_update < tol,
        },
    )


def _concord_descent(
    S: np.ndarray, mask: np.ndarray, max_sweeps: int, tol: float
) -> tuple[np.ndarray, int, float]:
    """CONCORD coordinate descent for a support-constrained precision.

    Minimizes ``-sum_i log omega_ii + (1/2) sum_i (Omega S Omega)_ii`` over
    symmetric ``Omega`` with off-diagonal support in ``mask``.  The running
    product ``U = Omega @ S`` is maintained incrementally so each
    coordinate update is O(n).  Each sweep visits the upper-triangle pairs
    in row-major order, then the diagonal; the descent stops after
    ``max_sweeps`` sweeps or after the first sweep whose largest update is
    below ``tol``.

    The scalar work runs on Python floats and the O(n) row updates in place
    on row views, which saves most of the interpreter overhead of indexing
    numpy arrays per entry.  The loop still computes the same bits as the
    plain numpy update ``U[i, :] += delta * S[j, :]``:

    * Python floats and numpy float64 scalars are the same IEEE binary64
      numbers under the same round-to-nearest arithmetic, so every scalar
      expression, evaluated in the same order, rounds the same way.
    * Each entry of a row update is rounded twice either way: once when
      ``delta * S[j, k]`` is formed (here into ``buf``), once when it is
      added to ``U[i, k]``.
    * ``math.sqrt`` and ``np.sqrt`` both return the correctly rounded square
      root, as IEEE 754 requires; ``x ** 0.5`` goes through ``pow`` and is
      not guaranteed to.
    * A pair's off-diagonal entry is read and written only by that pair's
      own update, so it lives in a list and is written into ``Omega`` once
      at the end.  An update whose ``delta`` is zero writes nothing, so the
      sign of a zero entry is kept as well.

    ``tests/core/test_concord_descent.py`` pins this against the plain
    numpy loop bit for bit.

    Returns:
        ``(Omega, sweeps, last_update)``: the estimate, the number of sweeps
        run and the largest update of the last sweep (0.0 if none ran).
    """
    n = S.shape[0]
    omega = np.diag(1.0 / np.maximum(np.diag(S), 1e-8)).copy()
    U = omega @ S
    rows, cols = np.nonzero(np.triu(mask, 1))
    s_diag = np.diag(S).tolist()
    diag = np.diag(omega).tolist()
    S_rows = list(S)
    U_rows = list(U)
    pairs = [
        (k, i, j, s_diag[i], s_diag[j], s_diag[i] + s_diag[j])
        for k, (i, j) in enumerate(zip(rows.tolist(), cols.tolist()))
    ]
    off = [0.0] * len(pairs)
    buf = np.empty(n)
    sweeps = 0
    largest = 0.0
    while sweeps < max_sweeps:
        sweeps += 1
        largest = 0.0
        for k, i, j, s_ii, s_jj, s_sum in pairs:
            w = off[k]
            partial_i = U.item(i, j) - w * s_jj
            partial_j = U.item(j, i) - w * s_ii
            new = -(partial_i + partial_j) / s_sum
            delta = new - w
            if delta != 0.0:
                off[k] = new
                U_i, U_j = U_rows[i], U_rows[j]
                np.multiply(S_rows[j], delta, out=buf)
                np.add(U_i, buf, out=U_i)
                np.multiply(S_rows[i], delta, out=buf)
                np.add(U_j, buf, out=U_j)
                largest = max(largest, abs(delta))
        for i in range(n):
            s_ii = s_diag[i]
            partial = U.item(i, i) - diag[i] * s_ii
            new = (-partial + math.sqrt(partial * partial + 4.0 * s_ii)) / (
                2.0 * s_ii
            )
            delta = new - diag[i]
            if delta != 0.0:
                diag[i] = new
                U_i = U_rows[i]
                np.multiply(S_rows[i], delta, out=buf)
                np.add(U_i, buf, out=U_i)
                largest = max(largest, abs(delta))
        if largest < tol:
            break
    omega[rows, cols] = off
    omega[cols, rows] = off
    np.fill_diagonal(omega, diag)
    return omega, sweeps, largest


def regression_loss(
    J: np.ndarray, h: np.ndarray, z: np.ndarray
) -> float:
    """Mean squared residual of Eq. (10) over normalized samples ``z``.

    For each sample and node, the residual is
    ``z_i - (sum_j J_ij z_j) / (-h_i)``.
    """
    pred = (z @ J.T) / (-h)[None, :]
    return float(np.mean((pred - z) ** 2))


def fit_regression(
    samples: np.ndarray,
    config: TrainingConfig | None = None,
    mask: np.ndarray | None = None,
    init: DSGLModel | None = None,
    metadata: dict | None = None,
) -> DSGLModel:
    """Gradient-descent fit of the Eq. (10) regression (the paper's path).

    ``h`` is parameterized as ``-exp(phi)`` so it stays strictly negative
    throughout training, exactly as the paper forces negative ``h`` to
    guarantee convexity.  An optional boolean ``mask`` confines non-zero
    couplings — the controlling mask of the decomposition fine-tune step.

    Args:
        samples: ``(num_samples, n)`` training configurations (raw domain).
        config: Hyper-parameters.
        mask: Boolean ``(n, n)``; ``False`` entries of ``J`` are frozen at 0.
        init: Warm start (e.g. the pruned dense model being fine-tuned).
            When given, its normalization is reused so voltages stay
            comparable before/after fine-tuning.
        metadata: Stored on the returned model.

    Returns:
        A convex :class:`DSGLModel`.
    """
    config = config or TrainingConfig()
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValueError(f"samples must be (num_samples, n), got {samples.shape}")
    num_samples, n = samples.shape

    if init is not None and init.mean is not None and init.scale is not None:
        mean, scale = init.mean.copy(), init.scale.copy()
    else:
        mean, scale = normalization_stats(samples, config.target_rail_fraction)
    z = (samples - mean) / scale

    if mask is None:
        mask_arr = ~np.eye(n, dtype=bool)
    else:
        mask_arr = np.asarray(mask, dtype=bool)
        if mask_arr.shape != (n, n):
            raise ValueError(f"mask must be ({n}, {n}), got {mask_arr.shape}")
        mask_arr = mask_arr & mask_arr.T & ~np.eye(n, dtype=bool)

    rng = np.random.default_rng(config.seed)
    if init is not None:
        J = init.J.copy() * mask_arr
        phi = np.log(np.maximum(-init.h, 1e-6))
    else:
        J = rng.normal(0.0, 0.01, size=(n, n))
        J = symmetrize_coupling(J) * mask_arr
        phi = np.zeros(n)  # h = -1

    # Adam state for (J, phi).
    m_J = np.zeros_like(J)
    v_J = np.zeros_like(J)
    m_phi = np.zeros_like(phi)
    v_phi = np.zeros_like(phi)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    indices = np.arange(num_samples)
    batch = min(config.batch_size, num_samples)
    for _epoch in range(config.epochs):
        rng.shuffle(indices)
        for start in range(0, num_samples, batch):
            zb = z[indices[start : start + batch]]
            b = zb.shape[0]
            h = -np.exp(phi)
            inv = 1.0 / (-h)  # = exp(-phi)
            # prediction p_{si} = (sum_j J_ij z_sj) * inv_i
            field_term = zb @ J.T
            pred = field_term * inv[None, :]
            resid = pred - zb  # (b, n)
            # dL/dJ_ij = (2/bn) sum_s resid_si * inv_i * z_sj
            grad_J = (2.0 / (b * n)) * (resid * inv[None, :]).T @ zb
            # Symmetric parameterization: J and J.T are tied.
            grad_J = (grad_J + grad_J.T) / 2.0
            grad_J *= mask_arr
            grad_J += 2.0 * config.ridge * J
            # dL/dphi_i: pred depends on inv_i = exp(-phi_i);
            # d pred/d phi_i = -pred  =>  grad = (2/bn) sum_s resid * (-pred)
            grad_phi = (2.0 / (b * n)) * np.sum(resid * (-pred), axis=0)

            step += 1
            m_J = beta1 * m_J + (1 - beta1) * grad_J
            v_J = beta2 * v_J + (1 - beta2) * grad_J**2
            m_phi = beta1 * m_phi + (1 - beta1) * grad_phi
            v_phi = beta2 * v_phi + (1 - beta2) * grad_phi**2
            corr1 = 1 - beta1**step
            corr2 = 1 - beta2**step
            J -= config.lr * (m_J / corr1) / (np.sqrt(v_J / corr2) + eps)
            phi -= config.lr * (m_phi / corr1) / (np.sqrt(v_phi / corr2) + eps)
            J *= mask_arr

    h = -np.exp(phi)
    J = symmetrize_coupling(J) * mask_arr
    # The margin is relative to the strongest self-reaction so the
    # trained system's conditioning (and hence its annealing settling
    # time in node time constants) is scale-free.
    h = enforce_convexity(J, h, margin=config.margin * float(np.max(-h)))
    return DSGLModel(
        J=J,
        h=h,
        mean=mean,
        scale=scale,
        metadata={"fitter": "regression", **(metadata or {})},
    )


def select_ridge(
    samples: np.ndarray,
    candidates: tuple[float, ...] = (1e-3, 1e-2, 5e-2, 2e-1),
    holdout_fraction: float = 0.2,
    config: TrainingConfig | None = None,
) -> tuple[float, DSGLModel]:
    """Pick the ridge strength by chronological holdout validation.

    Fits :func:`fit_precision` at each candidate on the leading samples
    and scores the Eq. (10) regression residual on the held-out tail (the
    samples are windows of a time series, so the split is chronological to
    avoid leakage).  Returns the winning ridge and a model refitted on all
    samples with it.

    Args:
        samples: ``(num_samples, n)`` training configurations.
        candidates: Ridge strengths to try.
        holdout_fraction: Fraction of trailing samples held out.
        config: Base hyper-parameters (ridge is overridden per candidate).

    Returns:
        ``(best_ridge, model)``.
    """
    if not candidates:
        raise ValueError("need at least one ridge candidate")
    if not 0 < holdout_fraction < 1:
        raise ValueError("holdout_fraction must be in (0, 1)")
    samples = np.asarray(samples, dtype=float)
    base = config or TrainingConfig()
    cut = max(2, int(round(samples.shape[0] * (1.0 - holdout_fraction))))
    if cut >= samples.shape[0]:
        raise ValueError("holdout split left no validation samples")
    fit_part, validation = samples[:cut], samples[cut:]

    best_ridge = candidates[0]
    best_score = np.inf
    for ridge in candidates:
        trial = TrainingConfig(
            ridge=ridge,
            margin=base.margin,
            target_rail_fraction=base.target_rail_fraction,
        )
        model = fit_precision(fit_part, trial)
        z = (validation - model.mean) / model.scale
        score = regression_loss(model.J, model.h, z)
        if score < best_score:
            best_score = score
            best_ridge = ridge
    final_config = TrainingConfig(
        ridge=best_ridge,
        margin=base.margin,
        target_rail_fraction=base.target_rail_fraction,
    )
    return best_ridge, fit_precision(samples, final_config)
