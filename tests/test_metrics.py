import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from riscplane.channel import DEFAULT_RHO, TWO_PI
from riscplane.control import (
    ControlChannelState, ControlMode, Scheme, control_reliability, db_to_linear, message_catalog,
)
from riscplane.errors import InvalidParameterError
from riscplane.frames import SchemeParams, build_frame
from riscplane import metrics
from riscplane.cli import main
from riscplane.metrics import (
    _FRAME_BLOCK,
    _bsw_outcomes,
    _cascade,
    _codebook_matrix,
    _Curve,
    _oce_outcomes,
    _payload_rows,
    _reduce_groups,
    _row_groups,
    calibrate_rho,
    crossover_frame,
    goodput_curves,
    goodput_sweep,
    reliability_grid,
)

BW = 180000.0
GRID = tuple(float(f) for f in range(10, 101, 5))


def sweep(scheme, mode, n_trials=2000, seed=1, **kw):
    return goodput_sweep(SchemeParams(scheme=scheme), mode, GRID, BW, n_trials, seed, **kw)


def goodput(params, mode, frame_ms, bandwidth_hz, n_trials, seed, **kwargs):
    """Single-frame goodput estimate; see goodput_curves for keyword options."""
    return goodput_sweep(params, mode, [frame_ms], bandwidth_hz, n_trials, seed,
                         **kwargs)[0]


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_goodput_identical_across_runs():
    a = goodput(SchemeParams(scheme=Scheme.BSW), ControlMode.OB_C, 60.0, BW, 5000, 3)
    b = goodput(SchemeParams(scheme=Scheme.BSW), ControlMode.OB_C, 60.0, BW, 5000, 3)
    assert a == b


def test_goodput_identical_across_worker_counts():
    params = SchemeParams(scheme=Scheme.BSW)
    serial = goodput(params, ControlMode.IB_C, 60.0, BW, 100_000, 5)
    pooled = goodput(params, ControlMode.IB_C, 60.0, BW, 100_000, 5, workers=2)
    assert serial == pooled
    kw = dict(n_trials=10_000, seed=5)
    assert sweep(Scheme.BSW_ES, ControlMode.IB_C, **kw) == \
        sweep(Scheme.BSW_ES, ControlMode.IB_C, workers=2, **kw)


def test_sweep_matches_element_wise_calls():
    curve = sweep(Scheme.BSW, ControlMode.IB_C, n_trials=3000, seed=9)
    for r in curve[::6]:
        single = goodput(SchemeParams(scheme=Scheme.BSW), ControlMode.IB_C,
                         r.frame_ms, BW, 3000, 9)
        assert single == r


def test_different_seeds_give_different_estimates():
    a = goodput(SchemeParams(scheme=Scheme.BSW), ControlMode.IB_C, 60.0, BW, 2000, 1)
    b = goodput(SchemeParams(scheme=Scheme.BSW), ControlMode.IB_C, 60.0, BW, 2000, 2)
    assert a.goodput_mbps != b.goodput_mbps


# ---------------------------------------------------------------------------
# Per-trial contracts
# ---------------------------------------------------------------------------

def select_config(entry_snrs, target_snr):
    """Beam-sweeping selection: (success, best qualifying index, first qualifying index).

    Indices are 0-based positions in the codebook, None on outage. The best
    qualifying entry is what the setup message signals; the first qualifying
    entry is where an early-stopped sweep ends.
    """
    snrs = np.asarray(entry_snrs, dtype=float)
    qualifying = snrs >= target_snr
    if not qualifying.any():
        return False, None, None
    best = int(np.argmax(np.where(qualifying, snrs, -np.inf)))
    first = int(np.argmax(qualifying))
    return True, best, first


def test_bsw_and_early_stop_share_the_qualifying_event():
    for seed in (1, 2, 3):
        plain = sweep(Scheme.BSW, ControlMode.OB_C, n_trials=4000, seed=seed)
        early = sweep(Scheme.BSW_ES, ControlMode.OB_C, n_trials=4000, seed=seed)
        for a, b in zip(plain, early):
            assert a.success_prob == b.success_prob


def test_vectorized_oce_matches_public_channel_ops():
    rate, success, _ = _oce_outcomes(_cascade(11, 0, 8, 16), 0.5, 2)
    # reference: the one-block draw, each element's phase rounded to the
    # nearest 2-bit level of its compensation -(arg f + arg g), summed in cmath
    rng = np.random.default_rng([11, 0])
    draws = rng.standard_normal((4, 8, 16))
    inv = 1.0 / math.sqrt(2.0)
    step = TWO_PI / 4
    for i in range(8):
        s = 0j
        for n in range(16):
            fg = complex(draws[0, i, n], draws[1, i, n]) * complex(draws[2, i, n], draws[3, i, n])
            level = round(((-cmath.phase(fg)) % TWO_PI) / step) % 4
            s += fg * inv * inv * cmath.exp(1j * level * step)
        snr = 0.5 * abs(s) ** 2
        assert rate[i] == pytest.approx(math.log2(1.0 + snr), rel=1e-12)
        assert success[i] == 1.0


def test_vectorized_bsw_matches_select_config():
    entry_matrix = _codebook_matrix(16, 8, 2, 7, "random")
    _, success, evals = _bsw_outcomes(_cascade(13, 0, 32, 16), 0.5, 4.0, entry_matrix)
    rng = np.random.default_rng([13, 0])
    draws = rng.standard_normal((4, 32, 16))
    inv = 1.0 / math.sqrt(2.0)
    for i in range(32):
        fg = ((draws[0, i] + 1j * draws[1, i]) * (draws[2, i] + 1j * draws[3, i])) * 0.5
        snrs = 0.5 * np.abs(entry_matrix @ fg) ** 2
        ok, best, first = select_config(snrs, 4.0)
        assert success[i] == float(ok)
        if ok:
            assert evals[i] == first + 1
            assert snrs[best] == max(snrs[snrs >= 4.0])
        else:
            assert evals[i] == 8


def test_early_stop_payload_matches_frame_plans():
    params = SchemeParams(scheme=Scheme.BSW_ES)
    catalog = message_catalog(Scheme.BSW_ES, 100, 2, 32, 16)
    _, success, evals = _bsw_outcomes(_cascade(21, 0, 256, 100), DEFAULT_RHO, 10.0,
                                      _codebook_matrix(100, 32, 2, 7, "random"))
    for i in range(0, 256, 17):
        stop = int(evals[i]) if success[i] else None
        plan = build_frame(params, ControlMode.IB_C, 60.0, catalog, stop_index=stop)
        assert plan.pay_ttis == max(0, 120 - (5 + 2 * int(evals[i])))


# ---------------------------------------------------------------------------
# Batch path: one draw per chunk for every curve
# ---------------------------------------------------------------------------

SIX_SPECS = [(SchemeParams(scheme=scheme), mode)
             for scheme in (Scheme.OCE, Scheme.BSW, Scheme.BSW_ES)
             for mode in (ControlMode.IB_C, ControlMode.OB_C)]


def test_cascade_matches_one_block_draw():
    # reference: the (4, m, N) draw [Re f, Im f, Re g, Im g] in one call
    for seed, chunk, m, n in ((1, 0, 4096, 100), (5, 3, 904, 16), (9, 1, 7, 3)):
        draws = np.random.default_rng([seed, chunk]).standard_normal((4, m, n))
        f = (draws[0] + 1j * draws[1]) * (1.0 / np.sqrt(2.0))
        g = (draws[2] + 1j * draws[3]) * (1.0 / np.sqrt(2.0))
        assert np.array_equal(_cascade(seed, chunk, m, n), f * g)


def test_batch_curves_equal_single_spec_sweeps():
    grid = [1.0, 4.0] + list(GRID) + [250.0]
    state = ControlChannelState(avg_snr_ue=100.0, avg_snr_ris=50.0)
    kw = dict(assume_perfect_control=False, control_state=state)
    curves = goodput_curves(SIX_SPECS, grid, BW, 9000, 4, **kw)
    assert len(curves) == 6
    for (params, mode), curve in zip(SIX_SPECS, curves):
        assert curve == goodput_sweep(params, mode, grid, BW, 9000, 4, **kw)


def _frame_loop_partials(curve, frames, rate, success, evals):
    """Reference reducer: one frame at a time, one trial vector per frame."""
    m = rate.shape[0]
    out = np.zeros((len(frames), 4))
    for i, total in enumerate(frames):
        if curve.es_per_eval_ttis:
            oh = curve.overhead_ttis + curve.es_per_eval_ttis * evals
            pay = np.maximum(0, total - oh)
            overhead_sum = float(np.minimum(oh, total).sum())
        else:
            oh = curve.overhead_ttis
            pay = max(0, total - oh)
            overhead_sum = float(min(oh, total)) * m
        rsp = rate * success * pay
        out[i] = rsp.sum(), (rsp * rsp).sum(), success.sum(), overhead_sum
    return out


def test_blocked_reducer_matches_frame_loop():
    fg = _cascade(3, 0, 4096, 100)
    outcomes = {
        Scheme.OCE: _oce_outcomes(fg, DEFAULT_RHO, 2),
        Scheme.BSW: _bsw_outcomes(fg, DEFAULT_RHO, 10.0, _codebook_matrix(100, 32, 2, 7, "random")),
    }
    # IB/OB-like pairs two TTIs apart on a 1-TTI grid share rows; frames start
    # below every overhead, and the grid is not a whole number of blocks
    frames = tuple(range(2, 2 + 14 * _FRAME_BLOCK + 3))
    curves = (_Curve(Scheme.OCE, 105, 0), _Curve(Scheme.OCE, 103, 0),
              _Curve(Scheme.BSW, 39, 0), _Curve(Scheme.BSW, 37, 0),
              _Curve(Scheme.BSW, 5, 2), _Curve(Scheme.BSW, 3, 2), _Curve(Scheme.BSW, 6, 1))
    groups = _row_groups(curves, frames)
    assert sum(g.es.shape[0] for g in groups) < len(curves) * len(frames)
    partials = _reduce_groups(groups, frames, outcomes)
    assert partials.shape == (len(curves), len(frames), 4)
    for curve, blocked in zip(curves, partials):
        assert np.array_equal(blocked, _frame_loop_partials(curve, frames, *outcomes[curve.kernel]))


def test_default_curves_reduce_each_distinct_row_once_per_chunk(monkeypatch):
    grid = [0.5 * k for k in range(1, 301)]     # 1-TTI grid: IB and OB rows coincide
    reduced = []

    def counting(rs, pay):
        reduced.append(pay.shape[0])
        return _payload_rows(rs, pay)

    monkeypatch.setattr(metrics, "_payload_rows", counting)
    goodput_curves(SIX_SPECS, grid, BW, 9000, 1)      # three chunks, one process
    # a row is the payload a frame plan leaves; early stopping keys on its
    # payload after one evaluation, since each further one costs the same
    keys = set()
    for params, mode in SIX_SPECS:
        catalog = message_catalog(params.scheme, 100, 2, 32, 16)
        stop = 1 if params.scheme is Scheme.BSW_ES else None
        for f_ms in grid:
            pay = build_frame(params, mode, f_ms, catalog, stop_index=stop).pay_ttis
            if pay > 0:
                keys.add((params.scheme, pay))
    assert 0 < len(keys) < 3 * len(grid)
    assert sum(reduced) == 3 * len(keys)


@pytest.mark.parametrize("field, value", [("n_elements", 64), ("quant_bits", 3),
                                          ("target_snr", 5.0), ("bsw_codebook_size", 16)])
def test_batch_rejects_specs_that_disagree_on_the_channel(field, value):
    odd = (SchemeParams(scheme=Scheme.BSW, **{field: value}), ControlMode.IB_C)
    with pytest.raises(InvalidParameterError):
        goodput_curves(SIX_SPECS + [odd], GRID, BW, 100, 1)
    with pytest.raises(InvalidParameterError):
        goodput_curves([], GRID, BW, 100, 1)


def test_default_cli_run_draws_once_per_chunk(tmp_path, capsys, monkeypatch):
    calls = []

    def counting(seed, chunk_index, m, n_elements, scratch=None):
        calls.append(chunk_index)
        return _cascade(seed, chunk_index, m, n_elements, scratch)

    monkeypatch.setattr(metrics, "_cascade", counting)
    assert main(["goodput", "--trials", "9000", "--out", str(tmp_path / "g.csv")]) == 0
    capsys.readouterr()
    assert calls == [0, 1, 2]       # three chunks, six curves


class _RecordingPool:
    """ProcessPoolExecutor stand-in that maps in process and records its size."""

    opened: list = []

    def __init__(self, max_workers):
        self.opened.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("cores, size", [(2, 2), (16, 3)])
def test_one_pool_per_run_sized_by_chunks_and_cores(tmp_path, capsys, monkeypatch, cores, size):
    monkeypatch.setattr(_RecordingPool, "opened", [])
    monkeypatch.setattr(metrics, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(metrics, "_available_cpus", lambda: cores)
    argv = ["goodput", "--trials", "9000"]         # three chunks
    assert main(argv + ["--workers", "8", "--out", str(tmp_path / "pool.csv")]) == 0
    assert _RecordingPool.opened == [size]
    assert main(argv + ["--out", str(tmp_path / "one.csv")]) == 0
    assert _RecordingPool.opened == [size]        # one process: no pool
    capsys.readouterr()
    assert (tmp_path / "pool.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


def test_chunk_buffers_made_once_per_process(tmp_path, capsys, monkeypatch):
    made = []

    class CountingScratch(metrics._Scratch):
        def __init__(self, trials, n_elements):
            made.append((trials, n_elements))
            super().__init__(trials, n_elements)

    monkeypatch.setattr(metrics, "_Scratch", CountingScratch)
    argv = ["goodput", "--trials", "9000"]         # three chunks
    assert main(argv + ["--out", str(tmp_path / "one.csv")]) == 0
    assert made == [(metrics.CHUNK_TRIALS, 100)]
    # a pool worker keeps its buffers across chunks; the stand-in pool is one process
    monkeypatch.setattr(metrics, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(metrics, "_available_cpus", lambda: 2)
    metrics._worker_scratch.cache_clear()
    try:
        assert main(argv + ["--workers", "2", "--out", str(tmp_path / "pool.csv")]) == 0
    finally:
        metrics._worker_scratch.cache_clear()
    assert made == [(metrics.CHUNK_TRIALS, 100)] * 2
    capsys.readouterr()
    assert (tmp_path / "pool.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


# ---------------------------------------------------------------------------
# Goodput behavior
# ---------------------------------------------------------------------------

def test_null_rate_region_gives_exact_zero():
    r = goodput(SchemeParams(scheme=Scheme.OCE), ControlMode.IB_C, 20.0, BW, 500, 1)
    assert r.goodput_mbps == 0.0
    assert r.overhead_ms == pytest.approx(20.0)


def test_bsw_goodput_capped_by_target_rate():
    cap = BW * math.log2(1.0 + 10.0) / 1e6
    for r in sweep(Scheme.BSW, ControlMode.OB_C, n_trials=4000):
        assert 0.0 <= r.goodput_mbps <= cap


def test_bsw_goodput_approaches_rate_cap_in_the_limit():
    # low target makes success certain; a long frame shrinks the overhead
    # fraction, so goodput converges to bandwidth * log2(1 + target)
    params = SchemeParams(scheme=Scheme.BSW, target_snr=0.1)
    cap = BW * math.log2(1.1) / 1e6
    r = goodput(params, ControlMode.OB_C, 2000.0, BW, 4000, 1)
    assert r.success_prob == 1.0
    assert r.goodput_mbps == pytest.approx(cap * (4000 - 37) / 4000, rel=1e-12)
    assert r.goodput_mbps > 0.98 * cap


def test_oce_goodput_nondecreasing_within_noise():
    curve = sweep(Scheme.OCE, ControlMode.OB_C, n_trials=10_000)
    for a, b in zip(curve, curve[1:]):
        assert b.goodput_mbps >= a.goodput_mbps - 2 * (a.goodput_se + b.goodput_se)


def test_oce_eventually_dominates_bsw():
    oce = sweep(Scheme.OCE, ControlMode.OB_C, n_trials=10_000)[-1]
    bsw = sweep(Scheme.BSW, ControlMode.OB_C, n_trials=10_000)[-1]
    assert oce.goodput_mbps - bsw.goodput_mbps > 2 * (oce.goodput_se + bsw.goodput_se)


def test_imperfect_control_scales_by_reliability():
    state = ControlChannelState(avg_snr_ue=100.0, avg_snr_ris=50.0)
    catalog = message_catalog(Scheme.BSW, 100, 2, 32, 16)
    factor = control_reliability(catalog, state, ControlMode.IB_C)
    perfect = goodput(SchemeParams(scheme=Scheme.BSW), ControlMode.IB_C, 60.0,
                      BW, 2000, 1)
    lossy = goodput(SchemeParams(scheme=Scheme.BSW), ControlMode.IB_C, 60.0,
                    BW, 2000, 1, assume_perfect_control=False, control_state=state)
    assert lossy.goodput_mbps == pytest.approx(perfect.goodput_mbps * factor, rel=1e-12)
    assert lossy.success_prob == pytest.approx(perfect.success_prob * factor, rel=1e-12)


def test_full_codebook_download_extends_in_band_overhead():
    # with the whole codebook in the INI message the in-band frame loses 39
    # TTIs to it, while out of band nothing changes
    params = SchemeParams(scheme=Scheme.BSW)
    plain = goodput(params, ControlMode.IB_C, 30.0, BW, 1000, 1)
    heavy = goodput(params, ControlMode.IB_C, 30.0, BW, 1000, 1,
                    ini_carries_full_codebook=True)
    assert plain.goodput_mbps > 0.0
    assert heavy.goodput_mbps == 0.0
    ob_plain = goodput(params, ControlMode.OB_C, 30.0, BW, 1000, 1)
    ob_heavy = goodput(params, ControlMode.OB_C, 30.0, BW, 1000, 1,
                       ini_carries_full_codebook=True)
    assert ob_plain == ob_heavy


def test_imperfect_control_requires_channel_state():
    with pytest.raises(InvalidParameterError):
        goodput(SchemeParams(scheme=Scheme.BSW), ControlMode.IB_C, 60.0, BW, 100, 1,
                assume_perfect_control=False)


def test_goodput_rejects_bad_arguments():
    params = SchemeParams(scheme=Scheme.BSW)
    with pytest.raises(InvalidParameterError):
        goodput(params, ControlMode.IB_C, 60.0, BW, 0, 1)
    with pytest.raises(InvalidParameterError):
        goodput(params, ControlMode.IB_C, 60.0, -1.0, 100, 1)
    with pytest.raises(InvalidParameterError):
        goodput(params, ControlMode.IB_C, 60.3, BW, 100, 1)
    with pytest.raises(InvalidParameterError):
        goodput(params, ControlMode.IB_C, 60.0, BW, 100, 1, rho=0.0)


def test_calibrated_rho_hits_target_success_band():
    r = goodput(SchemeParams(scheme=Scheme.BSW), ControlMode.OB_C, 100.0, BW,
                10_000, 1)
    assert 0.3 <= r.success_prob <= 0.7


def test_calibrate_rho_reproduces_default():
    est = calibrate_rho(n_trials=20_000, seed=0)
    assert est == pytest.approx(DEFAULT_RHO, rel=0.05)


# ---------------------------------------------------------------------------
# Crossover
# ---------------------------------------------------------------------------

def test_crossover_identical_curves_returns_first_point():
    curve = sweep(Scheme.BSW, ControlMode.IB_C, n_trials=500)
    assert crossover_frame(curve, curve) == curve[0].frame_ms


def test_crossover_absent_when_always_below():
    import dataclasses
    bsw = sweep(Scheme.BSW, ControlMode.IB_C, n_trials=500)
    below = [dataclasses.replace(r, goodput_mbps=r.goodput_mbps - 1.0) for r in bsw]
    assert crossover_frame(below, bsw) is None


def test_crossover_rejects_mismatched_grids():
    curve = sweep(Scheme.BSW, ControlMode.IB_C, n_trials=500)
    with pytest.raises(InvalidParameterError):
        crossover_frame(curve, curve[1:])
    shifted = goodput_sweep(SchemeParams(scheme=Scheme.BSW), ControlMode.IB_C,
                            [f + 5.0 for f in GRID], BW, 500, 1)
    with pytest.raises(InvalidParameterError):
        crossover_frame(curve, shifted)


# ---------------------------------------------------------------------------
# Reliability grid
# ---------------------------------------------------------------------------

def grid_matrix(scheme, mode):
    catalog = message_catalog(scheme, 100, 2, 32, 16)
    axis = tuple(float(v) for v in range(0, 31))
    return reliability_grid(catalog, mode, axis, axis)


def test_out_of_band_grid_constant_along_ris_axis():
    m = grid_matrix(Scheme.OCE, ControlMode.OB_C)
    for j in range(31):
        column = {m[i, j] for i in range(31)}
        assert len(column) == 1


def test_grid_cells_bounded_and_monotone():
    for mode in (ControlMode.IB_C, ControlMode.OB_C):
        m = grid_matrix(Scheme.BSW, mode)
        for i in range(31):
            for j in range(31):
                r = m[i, j]
                assert 0.0 <= r <= 1.0
                if i:
                    assert r >= m[i - 1, j] - 1e-15
                if j:
                    assert r >= m[i, j - 1] - 1e-15


def test_out_of_band_dominates_in_band_cellwise():
    for scheme in (Scheme.OCE, Scheme.BSW):
        ib = grid_matrix(scheme, ControlMode.IB_C)
        ob = grid_matrix(scheme, ControlMode.OB_C)
        for i in range(31):
            for j in range(31):
                assert ob[i, j] >= ib[i, j]


def test_oce_grid_below_bsw_grid_in_band():
    oce = grid_matrix(Scheme.OCE, ControlMode.IB_C)
    bsw = grid_matrix(Scheme.BSW, ControlMode.IB_C)
    for i in range(31):
        for j in range(31):
            assert oce[i, j] <= bsw[i, j] + 1e-15


def test_grid_equals_control_reliability_bitwise():
    axis = tuple(0.5 * k - 3.0 for k in range(31))
    cases = [(message_catalog(s, 100, 2, 32, 16), 84) for s in Scheme]
    # a full codebook in the RIS INI message: 4 symbols per TTI underflow its factor to 0
    full = message_catalog(Scheme.BSW, 1000, 4, 1024, 16, ini_carries_full_codebook=True)
    # a RIS SET message above 1000 bit per symbol, where msg_success_prob returns 0 directly
    bsw = cases[1][0]
    guarded = bsw[:3] + [replace(bsw[3], payload_bits=5000, tti_cost=1)]
    cases += [(full, 4), (guarded, 4)]
    zeros = 0
    for catalog, symbols_per_tti in cases:
        for mode in ControlMode:
            m = reliability_grid(catalog, mode, axis, axis, symbols_per_tti)
            assert m.shape == (31, 31)
            for i, ris_db in enumerate(axis):
                for j, ue_db in enumerate(axis):
                    state = ControlChannelState(avg_snr_ue=db_to_linear(ue_db),
                                                avg_snr_ris=db_to_linear(ris_db),
                                                symbols_per_tti=symbols_per_tti)
                    assert m[i, j] == control_reliability(catalog, state, mode)
            zeros += int((m == 0.0).sum())
    assert zeros > 0


def test_grid_rejects_bad_axes():
    catalog = message_catalog(Scheme.OCE, 100, 2, 32, 16)
    with pytest.raises(InvalidParameterError):
        reliability_grid(catalog, ControlMode.IB_C, (), (0.0, 1.0))
    with pytest.raises(InvalidParameterError):
        reliability_grid(catalog, ControlMode.IB_C, (0.0, 0.0), (0.0, 1.0))
