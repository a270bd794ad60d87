import cmath
import concurrent.futures
import math
import multiprocessing
import operator
import os
import threading
import tracemalloc
import warnings
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from riscplane.channel import TWO_PI
from riscplane.config import MAX_RHO_N2, RunConfig
from riscplane.control import (
    ControlChannelState, ControlMode, Scheme, control_reliability, db_to_linear, message_catalog,
    positive_linear, reliability_matrix,
)
from riscplane.errors import InvalidParameterError
from riscplane.frames import build_frame, frame_ttis
from riscplane import metrics
from riscplane.cli import main
from riscplane.metrics import (
    _BLOCK,
    CHUNK_TRIALS,
    _FRAME_BLOCK,
    _INV_SQRT2,
    _bsw_outcomes,
    _cascade,
    _codebook_matrix,
    _oce_outcomes,
    _payload_rows,
    _phase_table,
    _reduce_curves,
    crossover_frame,
    goodput_columns,
    goodput_curves,
    reliability_grid,
    reliability_rows,
)

CFG = RunConfig()
BW = CFG.bandwidth_hz
GRID = CFG.frame_grid          # 10, 15, ..., 100 ms
RHO = CFG.rho


def sweep(scheme, mode, n_trials=2000, seed=1, **fields):
    """One curve of a batch over RunConfig() with the given fields replaced."""
    cfg = RunConfig(n_trials=n_trials, master_seed=seed, **fields)
    return goodput_curves(cfg, [(scheme, mode)])[0]


def goodput(scheme, mode, frame_ms, n_trials, seed, **fields):
    """Single-frame goodput estimate; fields replace RunConfig() fields."""
    return sweep(scheme, mode, n_trials, seed, frame_grid=(frame_ms,), **fields)[0]

# RunConfig fields of imperfect control channels at 20 dB (UE) and 17 dB (surface)
LOSSY = dict(perfect_control=False, snr_ue_db=20.0, snr_ris_db=17.0)


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_goodput_identical_across_runs():
    a = goodput(Scheme.BSW, ControlMode.OB_C, 60.0, 5000, 3)
    b = goodput(Scheme.BSW, ControlMode.OB_C, 60.0, 5000, 3)
    assert a == b


def test_goodput_result_fields_are_plain_numbers():
    r = goodput(Scheme.BSW_ES, ControlMode.IB_C, 60.0, 500, 3, **LOSSY)
    for name in ("frame_ms", "goodput_mbps", "overhead_ms", "success_prob", "goodput_se"):
        assert type(getattr(r, name)) is float, name
    assert type(r.n_trials) is int and type(r.seed) is int


def test_goodput_curves_fields_equal_the_columns_and_the_scalar_formulas_bitwise(monkeypatch):
    # imperfect control on a 1-TTI step from 1 ms: the first frames are all overhead
    cfg = RunConfig(n_trials=5000, master_seed=7, n_elements=16, bsw_codebook_size=8, rho=0.286,
                    frame_grid=tuple(0.5 * k for k in range(2, 121)), **LOSSY)
    specs = [(scheme, mode) for scheme in Scheme for mode in ControlMode]
    partials, chunk_partials = [], metrics._chunk_partials

    def recorded(*args):
        out = chunk_partials(*args)
        partials.append(out.copy())     # goodput_columns sums into the first chunk's array
        return out
    monkeypatch.setattr(metrics, "_chunk_partials", recorded)
    columns = goodput_columns(cfg, specs)
    sums = reduce(operator.iadd, partials)
    curves = goodput_curves(cfg, specs)
    assert columns.dtype == np.float64 and columns.shape == (len(specs), len(cfg.frame_grid), 4)

    n, state, null_rows = cfg.n_trials, cfg.control_state(), 0
    for (scheme, mode), curve, curve_columns, curve_sums in zip(
            specs, curves, columns.tolist(), sums.tolist()):
        reliability = control_reliability(cfg.catalog(scheme), state, mode)
        assert reliability < 1.0
        for f_ms, r, column, (sum_rsp, sum_rsp2, sum_success, sum_oh) in zip(
                cfg.frame_grid, curve, curve_columns, curve_sums):
            # the scalar formulas, one row at a time
            scale = cfg.bandwidth_hz * reliability / (frame_ttis(f_ms, cfg.tti_ms) * 1e6)
            mean_rsp = sum_rsp / n
            var_rsp = max(0.0, sum_rsp2 / n - mean_rsp * mean_rsp)
            scalar = [scale * mean_rsp, sum_oh / n * cfg.tti_ms, reliability * sum_success / n,
                      scale * math.sqrt(var_rsp / n)]
            fields = [r.goodput_mbps, r.overhead_ms, r.success_prob, r.goodput_se]
            assert list(map(float.hex, fields)) == list(map(float.hex, column))
            assert list(map(float.hex, column)) == list(map(float.hex, scalar))
            assert r.frame_ms.hex() == float(f_ms).hex()
            assert (r.scheme, r.mode, r.n_trials, r.seed) == (scheme, mode, n, cfg.master_seed)
            null_rows += r.goodput_mbps == 0.0
    assert 0 < null_rows < columns.shape[0] * columns.shape[1]


def test_goodput_identical_across_worker_counts():
    serial = goodput(Scheme.BSW, ControlMode.IB_C, 60.0, 100_000, 5)
    pooled = goodput(Scheme.BSW, ControlMode.IB_C, 60.0, 100_000, 5, workers=2)
    assert serial == pooled
    kw = dict(n_trials=10_000, seed=5)
    assert sweep(Scheme.BSW_ES, ControlMode.IB_C, **kw) == \
        sweep(Scheme.BSW_ES, ControlMode.IB_C, workers=2, **kw)


def test_sweep_matches_element_wise_calls():
    curve = sweep(Scheme.BSW, ControlMode.IB_C, n_trials=3000, seed=9)
    for r in curve[::6]:
        single = goodput(Scheme.BSW, ControlMode.IB_C, r.frame_ms, 3000, 9)
        assert single == r


def test_different_seeds_give_different_estimates():
    a = goodput(Scheme.BSW, ControlMode.IB_C, 60.0, 2000, 1)
    b = goodput(Scheme.BSW, ControlMode.IB_C, 60.0, 2000, 2)
    assert a.goodput_mbps != b.goodput_mbps


def test_goodput_se_matches_the_spread_over_seeds():
    # the standard error a run reports is the spread its estimate shows from seed to
    # seed: over 40 seeds the sample spread is itself known to about 11%. The surface is
    # goodput-fine-grid's, whose rho lets beam sweeping succeed in about half the trials.
    specs = [(scheme, mode) for scheme in Scheme for mode in ControlMode]
    surface = dict(n_elements=16, bsw_codebook_size=8, quant_bits=2, rho=0.286)
    runs = np.array([goodput_columns(RunConfig(n_trials=4096, master_seed=seed, **surface), specs)
                     for seed in range(1, 41)])
    spread = runs[:, :, :, 0].std(axis=0, ddof=1)
    mean_se = runs[:, :, :, 3].mean(axis=0)
    for spec, spec_spread, spec_se in zip(specs, spread, mean_se):
        live = spec_se > 0.0            # a null-rate frame has no spread and no error
        assert live.any(), spec
        ratio = spec_spread[live] / spec_se[live]
        assert ((0.6 <= ratio) & (ratio <= 1.6)).all(), (spec, ratio.round(2).tolist())


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


def remainder_oce_rates(fg, rho, quant_bits):
    """The rate-adaptive kernel as written with np.angle, np.remainder and %."""
    step = TWO_PI / 2 ** quant_bits
    phases = np.remainder(-np.angle(fg), TWO_PI)
    levels = np.rint(phases / step).astype(np.int64) % 2 ** quant_bits
    # fg first: complex products are not bitwise commutative, and the
    # operator form may swap the operands of a temporary
    s = np.sum(np.multiply(fg, _phase_table(quant_bits)[levels]), axis=1)
    return np.log2(1.0 + rho * np.abs(s) ** 2)


def boundary_gains(quant_bits):
    """Three-element trials whose first gain has its compensation on a level boundary.

    The first gains are exp(j * angle) for every half-step tie of the
    compensation, the same with the imaginary part one float either way,
    the diagonals and the axes with both signed zeros; the other two fixed
    gains make the rate depend on the first one's level.
    """
    angles = -(np.arange(2 ** quant_bits) + 0.5) * (TWO_PI / 2 ** quant_bits)
    tie = np.exp(1j * angles)
    axes = [complex(re, im) for re in (1.0, -1.0, 0.0, -0.0) for im in (0.0, -0.0)]
    axes += [1j, -1j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]
    first = np.concatenate([tie, tie.real + 1j * np.nextafter(tie.imag, np.inf),
                            tie.real + 1j * np.nextafter(tie.imag, -np.inf), axes])
    return np.stack([first, np.full_like(first, 0.3 + 0.7j),
                     np.full_like(first, -0.45 + 0.2j)], axis=1)


@pytest.mark.parametrize("quant_bits", [1, 2, 3, 16])
def test_oce_kernel_matches_remainder_formula_bitwise(quant_bits):
    hand = boundary_gains(quant_bits)
    compensation = np.remainder(-np.angle(hand[:, 0]), TWO_PI) / (TWO_PI / 2 ** quant_bits)
    assert np.any(compensation % 1.0 == 0.5)        # some sit exactly on a tie
    for fg in (_cascade(29, 1, 4096, 100), hand):
        rate, success, evals = _oce_outcomes(fg, RHO, quant_bits)
        expected = remainder_oce_rates(fg, RHO, quant_bits)
        assert np.array_equal(rate.view(np.uint64), expected.view(np.uint64))
        assert np.all(success == 1.0) and evals is None


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
    params = CFG.scheme_params(Scheme.BSW_ES)
    catalog = CFG.catalog(Scheme.BSW_ES)
    _, success, evals = _bsw_outcomes(_cascade(21, 0, 256, 100), RHO, 10.0,
                                      _codebook_matrix(100, 32, 2, 7, "random"))
    for i in range(0, 256, 17):
        stop = int(evals[i]) if success[i] else None
        plan = build_frame(params, ControlMode.IB_C, 60.0, CFG.tti_ms, catalog, stop_index=stop)
        assert plan.pay_ttis == max(0, 120 - (5 + 2 * int(evals[i])))


# ---------------------------------------------------------------------------
# Batch path: one draw per chunk for every curve
# ---------------------------------------------------------------------------

SIX_SPECS = [(scheme, mode)
             for scheme in (Scheme.OCE, Scheme.BSW, Scheme.BSW_ES)
             for mode in (ControlMode.IB_C, ControlMode.OB_C)]


# (m, N) chunk shapes at the edges of the cascade's and the compensation's blocks
BLOCK_EDGE_SHAPES = [
    (4096, 17),     # m * N not a multiple of _BLOCK, m not one of the rows per block
    (7, 3),         # m * N below one block
    (3, 40_000),    # N > _BLOCK: one row per compensation block
    (1000, 100),    # m not a multiple of the rows per block
]


def test_cascade_matches_one_block_draw():
    # the edge shapes sit on the edges of the current _BLOCK
    assert (4096 * 17) % _BLOCK and 4096 % (_BLOCK // 17) and 1000 % (_BLOCK // 100)
    assert 7 * 3 < _BLOCK < 40_000
    # reference: the (4, m, N) draw [Re f, Im f, Re g, Im g] in one call
    for seed, chunk, m, n in ((1, 0, 4096, 100), (5, 3, 904, 16), (9, 1, 7, 3),
                              *((2, 1, m, n) for m, n in BLOCK_EDGE_SHAPES)):
        draws = np.random.default_rng([seed, chunk]).standard_normal((4, m, n))
        f = (draws[0] + 1j * draws[1]) * (1.0 / np.sqrt(2.0))
        g = (draws[2] + 1j * draws[3]) * (1.0 / np.sqrt(2.0))
        assert np.array_equal(_cascade(seed, chunk, m, n), f * g)


def test_cascade_hops_match_the_complex_formula_bitwise():
    # reference: each hop as (1j * Im + Re) * (1 / sqrt 2) in complex arithmetic
    for seed, chunk, m, n in ((1, 0, 4096, 100), (5, 3, 904, 100), (9, 1, 7, 3),
                              *((4, 2, m, n) for m, n in BLOCK_EDGE_SHAPES)):
        rng = np.random.default_rng([seed, chunk])
        hops = []
        for _ in range(2):
            draws = rng.standard_normal((2, m, n))
            hop = np.multiply(1j, draws[1])
            hop += draws[0]
            hop *= _INV_SQRT2
            hops.append(hop)
        expected = np.multiply(hops[0], hops[1]).view(np.uint64)
        assert np.array_equal(_cascade(seed, chunk, m, n).view(np.uint64), expected)
        # a chunk of fewer trials than its buffers, after a chunk of the buffers' size
        scratch = metrics._Scratch(m + 5, n, 0)
        _cascade(seed + 1, chunk, m + 5, n, scratch)
        fg = _cascade(seed, chunk, m, n, scratch)
        assert np.array_equal(fg.view(np.uint64), expected)


@pytest.mark.parametrize("m, n", BLOCK_EDGE_SHAPES + [(4096, 100)])
def test_oce_blocks_match_the_unblocked_kernel_bitwise(m, n):
    fg = _cascade(31, 2, m, n)
    expected = remainder_oce_rates(fg, RHO, 2).view(np.uint64)
    scratch = metrics._Scratch(m, n, 0)
    fg_in_scratch = _cascade(31, 2, m, n, scratch)     # a view of the scratch's fg buffer
    for rate, success, evals in (_oce_outcomes(fg, RHO, 2),
                                 _oce_outcomes(fg, RHO, 2, scratch),
                                 _oce_outcomes(fg_in_scratch, RHO, 2, scratch)):
        assert np.array_equal(rate.view(np.uint64), expected)
        assert np.all(success == 1.0) and evals is None


# (m, N, C) chunk shapes at the edges of the sweep's blocks of max(1, _BLOCK // C) trials
SWEEP_EDGE_SHAPES = [
    (3000, 100, 8),         # m not a multiple of the 2,048 rows per block
    (4096, 100, 33),        # C not a divisor of _BLOCK, m not a multiple of its 496 rows
    (3, 4, 16_400),         # C > _BLOCK: one trial per block
    (1000, 16, 64),         # 2C > N: the sweep's products size the real buffer
]


@pytest.mark.parametrize("m, n, c", SWEEP_EDGE_SHAPES)
def test_bsw_blocks_match_the_plain_formula_bitwise(m, n, c):
    rows = max(1, _BLOCK // c)
    assert m % rows if rows > 1 else c > _BLOCK     # the shape sits on an edge of _BLOCK
    entries = _codebook_matrix(n, c, 2, 7, "random")
    fg = _cascade(37, 1, m, n)
    # the plain formula, as one whole-chunk pass
    snr = RHO * np.abs(fg @ entries.T) ** 2
    target = float(np.median(snr.max(axis=1)))      # about half the trials qualify
    qualifying = snr >= target
    success = qualifying.any(axis=1).astype(float)
    evals = np.where(success > 0.0, np.argmax(qualifying, axis=1) + 1, c)
    assert 0.0 < success.mean() < 1.0 and evals[success > 0.0].max() > 1
    rate = np.full(m, np.log2(1.0 + target))
    scratch = metrics._Scratch(m, n, c)
    fg_in_scratch = _cascade(37, 1, m, n, scratch)     # a view of the scratch's fg buffer
    assert scratch.real.shape == (m * max(n, 2 * c),)
    for outcome in (_bsw_outcomes(fg, RHO, target, entries),
                    _bsw_outcomes(fg, RHO, target, entries, scratch),
                    _bsw_outcomes(fg_in_scratch, RHO, target, entries, scratch)):
        for got, want in zip(outcome, (rate, success, evals)):
            assert got.dtype == want.dtype
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def scratch_bytes(scratch) -> int:
    """The bytes of a _Scratch's buffers."""
    return sum(buffer.nbytes for buffer in vars(scratch).values())


def budgeted_buffer_bytes(monkeypatch, cfg) -> int:
    """What working_set_bytes(cfg) counts for the chunk buffers: its total less that without."""
    total = metrics.working_set_bytes(cfg)
    with monkeypatch.context() as patch:
        patch.setattr(metrics, "_chunk_buffers", lambda *shape: ())
        return total - metrics.working_set_bytes(cfg)


@pytest.mark.parametrize("n_trials, n, c", [
    (4096, 100, 32), (4096, 16, 8), (100, 20_000, 8), (3, 4, 16_400), (4096, 8, 64),
    (9000, 100, 32),        # more trials than a chunk: the buffers hold one chunk
    (1000, 16, 64),         # fewer trials than a chunk: the buffers hold those trials
])
def test_scratch_allocates_what_the_budget_counts(monkeypatch, n_trials, n, c):
    cfg = RunConfig(n_trials=n_trials, n_elements=n, bsw_codebook_size=c)
    m = min(n_trials, CHUNK_TRIALS)
    allocated = scratch_bytes(metrics._Scratch(m, n, c))
    assert allocated == budgeted_buffer_bytes(monkeypatch, cfg)
    # the gains, the real buffer and the block buffers keep their sizes
    assert allocated == 16 * m * n + 8 * m * max(n, 2 * c) + 32 * max(_BLOCK, n, c)


def test_scratch_and_budget_follow_the_one_sizing_function(monkeypatch):
    cfg = RunConfig(n_trials=1000, n_elements=16, bsw_codebook_size=8)
    scratch, need = metrics._Scratch(1000, 16, 8), metrics.working_set_bytes(cfg)
    chunk_buffers = metrics._chunk_buffers

    def one_more_real(*shape):
        return tuple((name, dtype, size + (name == "real")) for name, dtype, size in
                     chunk_buffers(*shape))

    monkeypatch.setattr(metrics, "_chunk_buffers", one_more_real)
    grown = metrics._Scratch(1000, 16, 8)
    assert grown.real.shape == (scratch.real.shape[0] + 1,)
    assert scratch_bytes(grown) == scratch_bytes(scratch) + 8
    assert metrics.working_set_bytes(cfg) == need + 8


def test_batch_curves_equal_single_spec_sweeps():
    # the lossy 1-TTI grid from one TTI shares the IB and OB rows of each scheme, and its
    # first frames are all overhead
    one_tti = tuple(0.5 * k for k in range(1, 241))
    for grid, workers in (((1.0, 4.0) + GRID + (250.0,), 1), (one_tti, 1), (one_tti, 2)):
        cfg = RunConfig(frame_grid=grid, n_trials=9000, master_seed=4, workers=workers, **LOSSY)
        curves = goodput_curves(cfg, SIX_SPECS)
        assert len(curves) == 6
        for spec, curve in zip(SIX_SPECS, curves):
            assert curve == goodput_curves(cfg, [spec])[0]


def row_plan(curves, frames):
    """The row plan goodput_columns binds into its chunks, of (kernel, overhead, es) curves."""
    groups = {}
    for position, (kernel, overhead, es) in enumerate(curves):
        groups.setdefault((kernel, es), []).append((position, overhead))
    plan = []
    for (kernel, es), members in groups.items():
        positions, overheads = zip(*members)
        budgets = np.maximum(0, np.array(frames)[None, :] - np.array(overheads)[:, None])
        budget, rows = np.unique(budgets, return_inverse=True)
        plan.append((kernel, es, positions, budget, rows.reshape(budgets.shape)))
    return tuple(plan)


def _frame_loop_partials(curve, frames, rate, success, evals):
    """Reference reducer of one (kernel, overhead, es) curve: one frame at a time, one trial
    vector per frame.

    Returns the partials and the direct sum of rsp^2 per frame. The partials'
    sum rsp^2 adds payload(k)^2 * S2[k] over the evaluation counts k, with
    S2[k] the sum of (rate * success)^2 over the trials of count k (one
    count for rate adaptation), in the order the reducer uses.
    """
    m = rate.shape[0]
    rs = rate * success
    s2 = np.bincount(np.zeros(m, dtype=np.intp) if evals is None else evals, weights=rs * rs)
    k = np.arange(s2.shape[0])
    _, overhead, es = curve
    out, direct = np.zeros((len(frames), 4)), np.zeros(len(frames))
    for i, total in enumerate(frames):
        if es:
            oh = overhead + es * evals
            pay = np.maximum(0, total - oh)
            pay_k = np.maximum(0, total - (overhead + es * k))
            overhead_sum = float(np.minimum(oh, total).sum())
        else:
            oh = overhead
            pay = max(0, total - oh)
            pay_k = np.full(k.shape, pay)
            overhead_sum = float(min(oh, total)) * m
        rsp = rate * success * pay
        pay_k = pay_k.astype(float)
        out[i] = rsp.sum(), (pay_k ** 2 * s2).sum(), success.sum(), overhead_sum
        direct[i] = (rsp * rsp).sum()
    return out, direct


def assert_reducer_matches_frame_loop(curves, frames, outcomes):
    partials = _reduce_curves(row_plan(curves, frames), frames, outcomes)
    assert partials.shape == (len(curves), len(frames), 4)
    for curve, blocked in zip(curves, partials):
        reference, direct = _frame_loop_partials(curve, frames, *outcomes[curve[0]])
        # bit for bit: array_equal would take -0.0 for 0.0, which %.12g writes as -0
        assert np.array_equal(blocked.view(np.uint64), reference.view(np.uint64))
        assert np.allclose(blocked[:, 1], direct, rtol=1e-12, atol=0.0)


# (kernel, overhead TTIs, TTIs per early-stopping evaluation) curves: IB/OB-like
# pairs two TTIs apart on a 1-TTI grid share rows; frames start below every
# overhead, and the grid is not a whole number of blocks
LOOP_FRAMES = tuple(range(2, 2 + 14 * _FRAME_BLOCK + 3))
SWEEP_CURVES = ((Scheme.BSW, 39, 0), (Scheme.BSW, 37, 0),
                (Scheme.BSW, 5, 2), (Scheme.BSW, 3, 2), (Scheme.BSW, 6, 1))


def test_blocked_reducer_matches_frame_loop():
    fg = _cascade(3, 0, 4096, 100)
    outcomes = {
        Scheme.OCE: _oce_outcomes(fg, RHO, 2),
        Scheme.BSW: _bsw_outcomes(fg, RHO, 10.0, _codebook_matrix(100, 32, 2, 7, "random")),
    }
    curves = ((Scheme.OCE, 105, 0), (Scheme.OCE, 103, 0)) + SWEEP_CURVES
    assert_reducer_matches_frame_loop(curves, LOOP_FRAMES, outcomes)


@pytest.mark.parametrize("outcome", ["mixed", "all outage", "all success"])
def test_reducer_matches_frame_loop_on_hand_built_sweeps(outcome):
    # m is the size of a 30,000-trial run's last chunk; with C = 8 entries,
    # trials that qualify only at the last entry sit next to outages, which
    # also end at entry C
    m, entries = 1328, 8
    rng = np.random.default_rng(5)
    success = {"mixed": rng.random(m) < 0.5, "all outage": np.zeros(m, dtype=bool),
               "all success": np.ones(m, dtype=bool)}[outcome]
    evals = np.where(success, rng.integers(1, entries + 1, m), entries)
    if outcome == "mixed":
        success[:6], evals[:6] = [1, 0, 1, 0, 0, 1], entries
    rate = np.full(m, np.log2(11.0))
    assert_reducer_matches_frame_loop(SWEEP_CURVES, LOOP_FRAMES,
                                      {Scheme.BSW: (rate, success.astype(float), evals)})


def test_default_curves_reduce_each_distinct_row_once_per_chunk(monkeypatch):
    grid = tuple(0.5 * k for k in range(1, 301))    # 1-TTI grid: IB and OB rows coincide
    reduced = []

    def counting(table, index, rs, pay):
        reduced.append(pay.shape[0])
        return _payload_rows(table, index, rs, pay)

    monkeypatch.setattr(metrics, "_payload_rows", counting)
    goodput_curves(RunConfig(frame_grid=grid, n_trials=9000), SIX_SPECS)  # three chunks
    # a row is the payload a frame plan leaves; early stopping keys on its
    # payload after one evaluation, since each further one costs the same
    keys = set()
    for scheme, mode in SIX_SPECS:
        params, catalog = CFG.scheme_params(scheme), CFG.catalog(scheme)
        stop = 1 if scheme is Scheme.BSW_ES else None
        for f_ms in grid:
            pay = build_frame(params, mode, f_ms, CFG.tti_ms, catalog, stop_index=stop).pay_ttis
            if pay > 0:
                keys.add((scheme, pay))
    assert 0 < len(keys) < 3 * len(grid)
    assert sum(reduced) == 3 * len(keys)


def test_a_run_plans_its_rows_once_per_kernel_and_evaluation_cost(monkeypatch):
    planned, unique = [], np.unique

    def counting(budgets, **kwargs):
        planned.append(budgets.shape)
        return unique(budgets, **kwargs)

    monkeypatch.setattr(np, "unique", counting)
    goodput_curves(RunConfig(n_trials=9000), SIX_SPECS)     # three chunks
    # OCE, BSW and early-stopping BSW, each an IB and an OB curve, not once per chunk
    assert planned == [(2, len(GRID))] * 3


def test_batch_rejects_empty_specs():
    # a repeated spec adds a curve of memory that working_set_bytes does not count;
    # a mode that is not a ControlMode would be read as in-band control
    for specs in ([], [SIX_SPECS[3], SIX_SPECS[3]], SIX_SPECS + [SIX_SPECS[0]],
                  [("oce", "ib")], [(Scheme.OCE, "ob")], [(Scheme.BSW, None)]):
        with pytest.raises(InvalidParameterError) as err:
            goodput_curves(RunConfig(n_trials=100), specs)
        assert err.value.field_name == "specs"


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
    """ProcessPoolExecutor stand-in that runs each call in process at submit.

    It records its size, and after every submit the number of calls whose
    result has not been read yet. It does not run the workers' initializer,
    which would set this process's SIGINT handler.
    """

    opened: list = []
    unread_after_submit: list = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.opened.append(max_workers)
        self.unread = 0

    def shutdown(self, wait=True, *, cancel_futures=False):
        pass

    def submit(self, fn, *args):
        self.unread += 1
        self.unread_after_submit.append(self.unread)
        return _Done(self, fn(*args))


class _Done:
    """A finished future that tells its pool when its result is read."""

    def __init__(self, pool, value):
        self.pool, self.value = pool, value

    def result(self):
        self.pool.unread -= 1
        return self.value


@pytest.mark.parametrize("cores, size", [(2, 2), (16, 3)])
def test_one_pool_per_run_sized_by_chunks_and_cores(tmp_path, capsys, monkeypatch, cores, size):
    monkeypatch.setattr(_RecordingPool, "opened", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(metrics, "_available_cpus", lambda: cores)
    argv = ["goodput", "--trials", "9000"]         # three chunks
    assert main(argv + ["--workers", "8", "--out", str(tmp_path / "pool.csv")]) == 0
    assert _RecordingPool.opened == [size]
    assert main(argv + ["--out", str(tmp_path / "one.csv")]) == 0
    assert _RecordingPool.opened == [size]        # one process: no pool
    capsys.readouterr()
    assert (tmp_path / "pool.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


def test_pool_keeps_a_bounded_number_of_chunks_in_flight(monkeypatch):
    monkeypatch.setattr(_RecordingPool, "unread_after_submit", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(metrics, "_available_cpus", lambda: 2)
    cfg = RunConfig(n_trials=100 * metrics.CHUNK_TRIALS, n_elements=4, bsw_codebook_size=2,
                    frame_grid=(60.0,))
    specs = [(Scheme.OCE, ControlMode.IB_C), (Scheme.BSW_ES, ControlMode.OB_C)]
    pooled = goodput_curves(replace(cfg, workers=2), specs)
    in_flight = _RecordingPool.unread_after_submit
    assert len(in_flight) == 100                  # one submit per chunk
    assert max(in_flight) == 4                    # two chunks per process
    assert pooled == goodput_curves(cfg, specs)


def counting_scratch(monkeypatch) -> list:
    """Replace metrics._Scratch by a subclass listing the (trials, N, C) of each set it makes."""
    made = []

    class CountingScratch(metrics._Scratch):
        def __init__(self, trials, n_elements, codebook_size):
            made.append((trials, n_elements, codebook_size))
            super().__init__(trials, n_elements, codebook_size)

    monkeypatch.setattr(metrics, "_Scratch", CountingScratch)
    return made


def test_chunk_buffers_made_once_per_process(tmp_path, capsys, monkeypatch):
    made = counting_scratch(monkeypatch)
    argv = ["goodput", "--trials", "9000"]         # three chunks
    # a fresh process: this thread has no buffers yet
    monkeypatch.setattr(metrics, "_thread_buffers", threading.local())
    assert main(argv + ["--out", str(tmp_path / "one.csv")]) == 0
    assert made == [(CHUNK_TRIALS, 100, 32)]
    # a pool worker keeps its buffers across chunks; the stand-in pool is one fresh process
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(metrics, "_available_cpus", lambda: 2)
    monkeypatch.setattr(metrics, "_thread_buffers", threading.local())
    assert main(argv + ["--workers", "2", "--out", str(tmp_path / "pool.csv")]) == 0
    assert made == [(CHUNK_TRIALS, 100, 32)] * 2
    capsys.readouterr()
    assert (tmp_path / "pool.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


# ---------------------------------------------------------------------------
# Goodput behavior
# ---------------------------------------------------------------------------

def test_null_rate_region_gives_exact_zero():
    r = goodput(Scheme.OCE, ControlMode.IB_C, 20.0, 500, 1)
    assert r.goodput_mbps == 0.0
    assert r.overhead_ms == pytest.approx(20.0)


def test_bsw_goodput_capped_by_target_rate():
    cap = BW * math.log2(1.0 + 10.0) / 1e6
    for r in sweep(Scheme.BSW, ControlMode.OB_C, n_trials=4000):
        assert 0.0 <= r.goodput_mbps <= cap


def test_bsw_goodput_approaches_rate_cap_in_the_limit():
    # low target makes success certain; a long frame shrinks the overhead
    # fraction, so goodput converges to bandwidth * log2(1 + target)
    cap = BW * math.log2(1.1) / 1e6
    r = goodput(Scheme.BSW, ControlMode.OB_C, 2000.0, 4000, 1, target_snr_db=-10.0)
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
    cfg = RunConfig(**LOSSY)
    factor = control_reliability(cfg.catalog(Scheme.BSW), cfg.control_state(), ControlMode.IB_C)
    perfect = goodput(Scheme.BSW, ControlMode.IB_C, 60.0, 2000, 1)
    lossy = goodput(Scheme.BSW, ControlMode.IB_C, 60.0, 2000, 1, **LOSSY)
    assert lossy.goodput_mbps == pytest.approx(perfect.goodput_mbps * factor, rel=1e-12)
    assert lossy.success_prob == pytest.approx(perfect.success_prob * factor, rel=1e-12)


def test_full_codebook_download_extends_in_band_overhead():
    # with the whole codebook in the INI message the in-band frame loses 39
    # TTIs to it, while out of band nothing changes
    plain = goodput(Scheme.BSW, ControlMode.IB_C, 30.0, 1000, 1)
    heavy = goodput(Scheme.BSW, ControlMode.IB_C, 30.0, 1000, 1, ini_carries_full_codebook=True)
    assert plain.goodput_mbps > 0.0
    assert heavy.goodput_mbps == 0.0
    ob_plain = goodput(Scheme.BSW, ControlMode.OB_C, 30.0, 1000, 1)
    ob_heavy = goodput(Scheme.BSW, ControlMode.OB_C, 30.0, 1000, 1,
                       ini_carries_full_codebook=True)
    assert ob_plain == ob_heavy


def test_goodput_rejects_bad_arguments():
    # an invalid config is a one-line InvalidParameterError for library callers too
    with pytest.raises(InvalidParameterError):
        goodput(Scheme.BSW, ControlMode.IB_C, 60.0, 0, 1)
    with pytest.raises(InvalidParameterError):
        goodput(Scheme.BSW, ControlMode.IB_C, 60.0, 100, 1, bandwidth_hz=-1.0)
    with pytest.raises(InvalidParameterError):
        goodput(Scheme.BSW, ControlMode.IB_C, 60.3, 100, 1)
    with pytest.raises(InvalidParameterError):
        goodput(Scheme.BSW, ControlMode.IB_C, 60.0, 100, 1, rho=0.0)
    for target in (math.inf, math.nan):     # a config file cannot give these
        with pytest.raises(InvalidParameterError) as err:
            goodput(Scheme.BSW, ControlMode.IB_C, 60.0, 100, 1, target_snr_db=target)
        assert err.value.field_name == "target_snr_db"


@pytest.mark.parametrize("n_elements", [1, 100])
def test_rho_at_the_overflow_bound_runs_without_warnings(n_elements):
    # every trial SNR stays finite: no overflow, inf rate or nan reaches a sum
    rho = MAX_RHO_N2 / n_elements ** 2
    cfg = RunConfig(n_elements=n_elements, rho=rho, n_trials=CHUNK_TRIALS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curves = goodput_curves(cfg, SIX_SPECS)
    assert all(math.isfinite(r.goodput_mbps) and math.isfinite(r.goodput_se)
               for curve in curves for r in curve)
    with pytest.raises(InvalidParameterError) as err:
        replace(cfg, rho=rho * 1.001).validate()
    assert err.value.field_name == "rho"


def test_calibrated_rho_hits_target_success_band():
    r = goodput(Scheme.BSW, ControlMode.OB_C, 100.0, 10_000, 1)
    assert 0.3 <= r.success_prob <= 0.7


def calibrate_rho(cfg: RunConfig, n_trials: int, seed: int) -> float:
    """The rho at which beam sweeping with cfg's codebook meets cfg's target in half the trials.

    The per-entry SNR scales linearly in rho, so that rho is the target over
    the median of each trial's best entry statistic |fg @ E.T|^2; fg comes
    from the goodput kernel's (seed, chunk) streams.
    """
    entries = _codebook_matrix(cfg.n_elements, cfg.bsw_codebook_size, cfg.quant_bits,
                               cfg.codebook_seed, cfg.bsw_codebook_style)
    best = []
    for c, lo in enumerate(range(0, n_trials, CHUNK_TRIALS)):
        fg = _cascade(seed, c, min(CHUNK_TRIALS, n_trials - lo), cfg.n_elements)
        best.append((np.abs(fg @ entries.T) ** 2).max(axis=1))
    return float(db_to_linear(cfg.target_snr_db) / np.quantile(np.concatenate(best), 0.5))


@pytest.mark.parametrize("fields, calibrated, configured", [
    (dict(), 0.026774687227277893, RHO),
    (dict(n_elements=16, bsw_codebook_size=8), 0.2858800626174671, 0.286),  # goodput-fine-grid
])
def test_calibration_reproduces_the_pinned_rhos(fields, calibrated, configured):
    # the configured rho is the calibration rounded to 3 digits
    assert calibrate_rho(RunConfig(**fields), n_trials=20_000, seed=0) == calibrated
    assert float(f"{calibrated:.3g}") == configured


def forbid_allocation(monkeypatch) -> None:
    """Make every maker of chunk buffers, draws or codebooks in metrics raise."""
    def no_allocation(*args):
        raise AssertionError("goodput_curves allocated")
    for name in ("_Scratch", "_cascade", "_codebook_matrix", "make_codebook"):
        monkeypatch.setattr(metrics, name, no_allocation)


@pytest.mark.parametrize("fields", [dict(n_trials=0), dict(n_trials=-4096),
                                    dict(n_trials=2.5), dict(n_trials=True),
                                    dict(master_seed=-1), dict(master_seed=2.5),
                                    dict(master_seed=True),
                                    dict(target_snr_db=math.inf), dict(target_snr_db=math.nan),
                                    dict(bsw_codebook_style="x")])
def test_goodput_curves_reject_a_bad_field_before_allocating(monkeypatch, fields):
    forbid_allocation(monkeypatch)
    (name, _), = fields.items()
    with pytest.raises(InvalidParameterError) as err:
        goodput_curves(RunConfig(**fields), SIX_SPECS)
    assert err.value.field_name == name


@pytest.mark.parametrize("fields", [dict(n_elements=200_000), dict(bsw_codebook_size=20_000),
                                    dict(n_elements=np.int64(200_000)),
                                    dict(bsw_codebook_size=np.int64(20_000))])
def test_goodput_curves_check_each_budget_term_before_allocating(monkeypatch, fields):
    # the chunk buffers at a large N, the real buffer's 2C floats per trial at a large C;
    # numpy integers count as ints
    forbid_allocation(monkeypatch)
    with pytest.raises(InvalidParameterError) as err:
        goodput_curves(RunConfig(**fields), SIX_SPECS)
    assert err.value.field_name == "config"
    assert "budget" in str(err.value)


@pytest.mark.parametrize("n_trials", [2 ** 27, np.int64(2 ** 61)])
def test_goodput_budget_does_not_grow_with_trials(n_trials):
    # a run keeps one chunk of trials per process, however many trials it draws
    cfg = RunConfig(n_trials=n_trials)
    cfg.validate()
    metrics.check_working_set(cfg)
    assert metrics.working_set_bytes(cfg) == metrics.working_set_bytes(
        RunConfig(n_trials=CHUNK_TRIALS))


def test_threads_running_at_once_get_the_serial_results():
    # each thread draws into chunk buffers of its own
    def run(seed):
        return goodput_curves(RunConfig(n_trials=9000, master_seed=seed), SIX_SPECS)  # 3 chunks

    def at_once(seed):
        barrier.wait()
        return run(seed)

    serial = [run(seed) for seed in (1, 2)]
    barrier = threading.Barrier(2)
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        assert list(pool.map(at_once, (1, 2))) == serial


def test_a_thread_keeps_its_buffers_while_another_runs_another_shape(monkeypatch):
    specs = [(Scheme.OCE, ControlMode.IB_C), (Scheme.BSW_ES, ControlMode.OB_C)]
    a, b = (RunConfig(n_trials=100, n_elements=n, frame_grid=(60.0,)) for n in (100, 64))
    # at N = 100 the real buffer of C = 32 holds 100 floats per trial, C = 64 needs 128
    wide = replace(a, bsw_codebook_size=64)
    serial = [goodput_curves(cfg, specs) for cfg in (a, b, a, wide)]
    made = counting_scratch(monkeypatch)
    with (concurrent.futures.ThreadPoolExecutor(1) as first,
          concurrent.futures.ThreadPoolExecutor(1) as second):
        runs = [pool.submit(goodput_curves, cfg, specs).result(timeout=60)
                for pool, cfg in ((first, a), (second, b), (first, a), (first, wide))]
    assert runs == serial
    assert made == [(100, 100, 32), (100, 64, 32), (100, 100, 64)]


def test_a_warm_chunk_allocates_little_beyond_its_buffers(monkeypatch):
    # the chunk kernels run in the thread's buffers; what is left are per-trial vectors
    calls = []
    chunk_partials = metrics._chunk_partials

    def recording(*args):
        calls.append(args)
        return chunk_partials(*args)

    monkeypatch.setattr(metrics, "_chunk_partials", recording)
    monkeypatch.setattr(metrics, "_thread_buffers", threading.local())
    goodput_curves(RunConfig(n_trials=CHUNK_TRIALS), SIX_SPECS)    # N = 100, C = 32
    tracemalloc.start()
    try:
        partials = chunk_partials(*calls[0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert partials.shape == (6, len(GRID), 4)
    assert peak < 1 << 20


def counting_codebooks(monkeypatch) -> list:
    """Wrap metrics.make_codebook to list the (N, seed) of each codebook it makes."""
    made, make_codebook = [], metrics.make_codebook

    def counting(n_elements, size, quant_bits, seed, style):
        made.append((n_elements, seed))
        return make_codebook(n_elements, size, quant_bits, seed, style)

    monkeypatch.setattr(metrics, "make_codebook", counting)
    return made


def test_threads_running_other_codebooks_make_one_codebook_per_run(monkeypatch):
    # a run makes its codebook once and hands it to its chunks; no cache is shared with the
    # other thread, so neither run evicts the other's codebook
    specs = [(Scheme.BSW, ControlMode.OB_C), (Scheme.BSW_ES, ControlMode.IB_C)]
    configs = [RunConfig(n_trials=10 * CHUNK_TRIALS, n_elements=n, codebook_seed=seed,
                         frame_grid=(60.0,)) for n, seed in ((100, 7), (64, 8))]
    serial = [goodput_curves(cfg, specs) for cfg in configs]
    made = counting_codebooks(monkeypatch)
    barrier = threading.Barrier(2)

    def at_once(cfg):
        barrier.wait(timeout=60)
        return goodput_curves(cfg, specs)

    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        assert list(pool.map(at_once, configs, timeout=120)) == serial
    assert sorted(made) == [(64, 8), (100, 7)]


def test_an_oce_run_makes_no_codebook(monkeypatch):
    made = counting_codebooks(monkeypatch)
    goodput_curves(RunConfig(n_trials=100, frame_grid=(60.0,)),
                   [(Scheme.OCE, ControlMode.IB_C), (Scheme.OCE, ControlMode.OB_C)])
    assert made == []


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="only forked pool workers inherit the patched make_codebook")
def test_pool_workers_make_no_codebook(tmp_path, capsys, monkeypatch):
    # the calling process makes the codebook; each pool task carries it to a worker
    caller, make_codebook = os.getpid(), metrics.make_codebook

    def caller_only(*args):
        if os.getpid() != caller:
            raise AssertionError("a pool worker made a codebook")
        return make_codebook(*args)

    monkeypatch.setattr(metrics, "make_codebook", caller_only)
    monkeypatch.setattr(metrics, "_available_cpus", lambda: 2)
    config = tmp_path / "run.cfg"
    config.write_text("codebook_seed = 11\n")     # no earlier run here can have left it cached
    argv = ["goodput", "--config", str(config), "--trials", "9000"]    # three chunks
    assert main(argv + ["--workers", "2", "--out", str(tmp_path / "pool.csv")]) == 0
    assert main(argv + ["--out", str(tmp_path / "one.csv")]) == 0
    capsys.readouterr()
    assert (tmp_path / "pool.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


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
    with pytest.raises(InvalidParameterError) as err:
        crossover_frame([], [])
    assert err.value.field_name == "oce_curve"
    curve = sweep(Scheme.BSW, ControlMode.IB_C, n_trials=500)
    with pytest.raises(InvalidParameterError):
        crossover_frame(curve, curve[1:])
    shifted = sweep(Scheme.BSW, ControlMode.IB_C, n_trials=500,
                    frame_grid=tuple(f + 5.0 for f in GRID))
    with pytest.raises(InvalidParameterError):
        crossover_frame(curve, shifted)


# ---------------------------------------------------------------------------
# Reliability grid
# ---------------------------------------------------------------------------

def grid_matrix(scheme, mode):
    axis = tuple(float(v) for v in range(0, 31))
    return reliability_grid(CFG.catalog(scheme), mode, axis, axis, CFG.symbols_per_tti)


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
    cases = [(CFG.catalog(s), CFG.symbols_per_tti) for s in Scheme]
    # a full codebook in the RIS INI message, sized for 84 symbols per TTI: 4
    # symbols per TTI underflow its factor to 0
    full = message_catalog(Scheme.BSW, 1000, 4, 1024, 16, ini_carries_full_codebook=True,
                           symbols_per_tti=84)
    # a RIS SET message above 1000 bit per symbol, whose outage threshold is inf
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


@pytest.mark.parametrize("mode", list(ControlMode))
def test_grid_row_blocks_stack_to_the_whole_grid_bitwise(monkeypatch, mode):
    # 62 cells per block on a 31-point UE axis: blocks of 2 RIS rows and a last one of 1
    axis = tuple(0.5 * k - 3.0 for k in range(31))
    catalog = CFG.catalog(Scheme.BSW)
    linear = positive_linear(axis, "axis")
    whole = reliability_matrix(catalog, mode, linear, linear, CFG.symbols_per_tti)
    monkeypatch.setattr(metrics, "_GRID_BLOCK_CELLS", 62)
    blocks = list(reliability_rows(catalog, mode, axis, axis, CFG.symbols_per_tti))
    assert [block.shape for block in blocks] == [(2, 31)] * 15 + [(1, 31)]
    assert np.vstack(blocks).tobytes() == whole.tobytes()
    assert reliability_grid(catalog, mode, axis, axis, CFG.symbols_per_tti).tobytes() == \
        whole.tobytes()


@pytest.mark.parametrize("ris, ue, name", [([0.0, 4000.0], [0.0], "snr_ris_grid_db"),
                                           ([0.0], [-4000.0, 0.0], "snr_ue_grid_db")])
def test_grid_rejects_points_without_finite_linear_values(ris, ue, name):
    # every point is checked, not only the first, and overflow is a rejection
    with pytest.raises(InvalidParameterError) as err:
        reliability_grid(CFG.catalog(Scheme.OCE), ControlMode.IB_C, ris, ue, CFG.symbols_per_tti)
    assert err.value.field_name == name
    with pytest.raises(InvalidParameterError):     # when called, before any block is drawn
        reliability_rows(CFG.catalog(Scheme.OCE), ControlMode.IB_C, ris, ue, CFG.symbols_per_tti)


def test_grid_rejects_bad_axes():
    catalog = CFG.catalog(Scheme.OCE)
    with pytest.raises(InvalidParameterError):
        reliability_grid(catalog, ControlMode.IB_C, (), (0.0, 1.0), CFG.symbols_per_tti)
    with pytest.raises(InvalidParameterError):
        reliability_grid(catalog, ControlMode.IB_C, (0.0, 0.0), (0.0, 1.0), CFG.symbols_per_tti)
