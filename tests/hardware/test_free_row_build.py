"""The free-row propagator build of :class:`ScalableDSPU`.

``_clamp_stage`` builds only the free-node rows of every phase's live
matrix, in one stacked pass, and ``_interval_stage`` computes exact growth
bounds only where a Gershgorin bound says the cap could bind.  Both must
reproduce, bit for bit, the build that forms every full ``(n, n)`` live
matrix, slices it per phase and computes every exact bound.  That build
is written out below as the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse as sp
from scipy.linalg import expm

from repro import obs
from repro.faults import NO_FAULTS, FaultModel
from repro.hardware import HardwareConfig, ScalableDSPU
from repro.hardware.scalable_dspu import (
    GROWTH_CAP,
    _clamp_stage,
    _forcing_integral,
    _gershgorin_bounds,
    _interval_stage,
)
from repro.obs import read_trace

INTERVAL = 200.0


def _live_matrices(A_local, phase_matrices, faults, noise):
    """Every phase's full live matrix: faults, then noise, then the sum."""
    A_local = faults.apply_coupling(A_local)
    if noise is not None:
        # The self-reaction diagonal keeps its nominal value.
        if sp.issparse(A_local):
            off = A_local.multiply(noise).tolil()
            off.setdiag(A_local.diagonal())
            A_local = off.tocsr()
        else:
            off = A_local * noise
            np.fill_diagonal(off, np.diag(A_local))
            A_local = off
    live = []
    for A_s in phase_matrices:
        A_s = faults.apply_coupling(A_s)
        if noise is not None:
            A_s = (
                A_s.multiply(noise).tocsr() if sp.issparse(A_s)
                else A_s * noise
            )
        live.append(A_local + A_s)
    return live


def _reference_build(dspu, free, clamp, spatial, faults, noise):
    """Blocks, per-phase couplings and exact bounds, phase by phase."""
    n = dspu.model.n
    stack = dspu._A_inter_spatial if spatial else dspu._A_inter_boosted
    phases = [stack[p * n:(p + 1) * n] for p in range(stack.shape[0] // n)]
    blocks, couplings = [], []
    for A in _live_matrices(dspu._A_local, phases, faults, noise):
        if sp.issparse(A):
            blocks.append(A[free][:, free].toarray())
            couplings.append(A[free][:, clamp])
        else:
            blocks.append(A[np.ix_(free, free)])
            couplings.append(A[np.ix_(free, clamp)])
    blocks = np.array(blocks)
    symmetric = (blocks + blocks.transpose(0, 2, 1)) / 2.0
    return blocks, couplings, np.linalg.eigvalsh(symmetric).max(axis=1)


def _reference_interval(blocks, bounds, interval):
    """Cap from every exact bound, then expm, rotation guard, integrals."""
    phases, m, _m = blocks.shape
    identity = np.eye(m)
    capped = []
    for B, bound in zip(blocks, bounds):
        excess = bound - GROWTH_CAP / interval
        capped.append(B - excess * identity if excess > 0 else B)
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
    return propagators, radius, delta


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape and a.dtype == b.dtype
        and np.ascontiguousarray(a).tobytes()
        == np.ascontiguousarray(b).tobytes()
    )


@pytest.fixture(scope="module")
def dspus(decomposed_traffic):
    config = HardwareConfig(
        grid_shape=(3, 3),
        pe_capacity=decomposed_traffic.placement.capacity,
        lanes=8,
    )
    cache = {}

    def make(backend, tau):
        if (backend, tau) not in cache:
            cache[backend, tau] = ScalableDSPU(
                decomposed_traffic, config, node_time_constant_ns=tau,
                backend=backend,
            )
        return cache[backend, tau]

    return make


CASES = {
    "clean": dict(),
    "noise": dict(noise=0.15),
    "faults_stuck": dict(faults=True),
    "spatial": dict(spatial=True),
    "spatial_noise": dict(spatial=True, noise=0.15),
}


@pytest.mark.parametrize("tau", [1.0, 500.0], ids=["tau1", "tau500"])
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("backend", ["dense", "sparse"])
def test_free_row_build_matches_full_matrix_reference(
    dspus, traffic_setup, backend, case, tau
):
    dspu = dspus(backend, tau)
    n = dspu.model.n
    spec = CASES[case]
    rng = np.random.default_rng(4)
    index = traffic_setup["windowing"].observed_index
    faults = NO_FAULTS
    if spec.get("faults"):
        faults = FaultModel(
            seed=3, dead_coupler_rate=0.05, coupler_gain_std=0.05,
            coupler_offset_std=0.05, stuck_node_rate=0.05,
        ).sample(n, dspu.model.J)
        assert faults.affects_coupling and faults.stuck_index.size
    keep = ~np.isin(index, faults.stuck_index)
    clamp = np.concatenate([index[keep], faults.stuck_index])
    free = np.setdiff1d(np.arange(n), clamp)
    noise = None
    if "noise" in spec:
        factor = rng.normal(1.0, spec["noise"], size=(n, n))
        noise = (factor + factor.T) / 2.0
    spatial = spec.get("spatial", False)
    clamp_value = rng.uniform(-1.0, 1.0, size=clamp.size)

    blocks, couplings, bounds = _reference_build(
        dspu, free, clamp, spatial, faults, noise
    )
    stage = _clamp_stage(
        dspu._A_local,
        dspu._A_inter_spatial if spatial else dspu._A_inter_boosted,
        free, clamp, faults, noise,
    )
    assert _same_bits(stage.blocks, blocks)
    assert sp.issparse(stage.coupling) == (backend == "sparse")
    # Every phase's forcing, from the one stacked product ``anneal`` runs.
    forcing = np.asarray(stage.coupling @ clamp_value).reshape(
        blocks.shape[:2]
    )
    for drive, coupling in zip(forcing, couplings):
        assert _same_bits(drive, np.asarray(coupling @ clamp_value))
    assert np.all(stage.bounds >= bounds)

    propagators, radius, delta = _reference_interval(blocks, bounds, INTERVAL)
    built = _interval_stage(stage, INTERVAL)
    assert len(built.propagators) == len(propagators)
    for (phi, integral), (phi_ref, integral_ref) in zip(
        built.propagators, propagators
    ):
        assert _same_bits(phi, phi_ref)
        assert _same_bits(integral, integral_ref)
    assert built.rotation_radius == radius
    assert built.damping_delta == delta
    # The gate: exact bounds where the cap could bind, the exact decision.
    limit = GROWTH_CAP / INTERVAL
    assert built.capped_phases == np.count_nonzero(bounds > limit)
    assert built.exact_bounds == np.count_nonzero(stage.bounds > limit / 2)
    if tau == 500.0:
        assert built.capped_phases == 0
    elif not spatial:
        # The tuner's 1 ns time constant: the cap binds at 200 ns.
        assert built.capped_phases > 0


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda m: arrays(
            np.float64, (3, m, m),
            elements=st.floats(-1e3, 1e3, allow_nan=False),
        )
    )
)
def test_gershgorin_bound_never_below_the_top_eigenvalue(blocks):
    symmetric = (blocks + blocks.transpose(0, 2, 1)) / 2.0
    top = np.linalg.eigvalsh(symmetric).max(axis=1)
    # Only eigvalsh's own rounding may separate a tight bound from it.
    slack = 1e-12 * np.abs(symmetric).sum(axis=(1, 2))
    assert np.all(_gershgorin_bounds(blocks) >= top - slack)


def test_builds_report_capped_phases_and_exact_bounds(
    decomposed_traffic, traffic_setup, tmp_path
):
    config = HardwareConfig(
        grid_shape=(3, 3),
        pe_capacity=decomposed_traffic.placement.capacity,
        lanes=8,
    )
    # The tuner's time constant, where the cap binds at 200 ns.
    dspu = ScalableDSPU(decomposed_traffic, config, node_time_constant_ns=1.0)
    tw = traffic_setup["windowing"]
    index, history = tw.observed_index, tw.history_of(
        traffic_setup["test"].series, 3
    )
    path = tmp_path / "trace.jsonl"
    with obs.observe(trace_path=path) as (registry, _tracer):
        for noise in (0.0, 0.0, 0.05):
            dspu.anneal(
                index, history, duration_ns=1000.0, coupling_noise_std=noise
            )
        counters = registry.snapshot()["counters"]
    spans = [
        r["attributes"] for r in read_trace(path)
        if r["kind"] == "span" and r["name"] == "dspu.anneal"
    ]
    assert [s["propagators"] for s in spans] == ["built", "hit", "bypass"]
    built, hit, bypass = spans
    assert 0 < built["capped_phases"] <= built["exact_bounds"]
    assert bypass["exact_bounds"] <= dspu.num_phases
    # A hit computed nothing; it reports no bound decisions.
    assert "capped_phases" not in hit and "exact_bounds" not in hit
    assert counters["dspu.capped_phases"] == (
        built["capped_phases"] + bypass["capped_phases"]
    )
    assert counters["dspu.exact_growth_bounds"] == (
        built["exact_bounds"] + bypass["exact_bounds"]
    )
