"""Monte Carlo goodput estimation and closed-form reliability grids.

Goodput trials are evaluated in fixed-size chunks. Chunk c draws its
channels from an independent stream seeded by (master_seed, c) and
partial sums are reduced in chunk order, so results are bit-identical for a
given seed no matter how many workers evaluate the chunks. The channel
stream does not depend on the scheme or the control mode, so every curve of
a batch is reduced from one draw per chunk, and plain beam sweeping and its
early-stopping variant share the qualifying event of every trial.
"""

from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from .channel import (
    DEFAULT_RHO,
    TWO_PI,
    CodebookRole,
    grid_step,
    make_codebook,
    phase_indices,
)
from .control import (
    DEFAULT_HEADER_BITS,
    DEFAULT_SYMBOLS_PER_TTI,
    ControlChannelState,
    ControlMessage,
    ControlMode,
    Recipient,
    Scheme,
    control_reliability,
    db_to_linear,
    message_catalog,
    msg_success_prob,
)
from .errors import InvalidParameterError
from .frames import TTI_MS, SchemeParams, alg_ttis, control_spans, frame_ttis

CHUNK_TRIALS = 4096
DEFAULT_CODEBOOK_SEED = 7
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
# Frames reduced together: the (block, CHUNK_TRIALS) temporaries stay at
# 256 KiB each, small enough for cache, and more frames per block only add
# memory without speeding up the reduction.
_FRAME_BLOCK = 8


@dataclass(frozen=True)
class GoodputResult:
    frame_ms: float
    scheme: Scheme
    mode: ControlMode
    goodput_mbps: float       # mean payload bits delivered per frame second / 1e6
    overhead_ms: float        # mean non-payload frame time
    success_prob: float       # mean per-trial success (control reliability included)
    n_trials: int
    seed: int
    goodput_se: float = 0.0   # Monte Carlo standard error of goodput_mbps


@dataclass(frozen=True)
class _Curve:
    """Per-trial overhead model of one (scheme, mode) curve."""

    kernel: Scheme              # OCE or BSW; early stopping reduces the BSW outcomes
    fixed_overhead_ttis: int    # INI + SET message TTIs in band + switch time
    alg_const_ttis: int         # full ALG span (unused for early stopping)
    es_per_eval_ttis: int       # 0 unless early stopping


@dataclass(frozen=True)
class _Batch:
    """Everything a worker needs to evaluate one chunk of trials for every curve."""

    n_elements: int
    rho: float
    quant_bits: int
    target_snr: float
    codebook_size: int
    codebook_seed: int
    codebook_style: str
    seed: int
    n_trials: int
    frames_ttis: tuple[int, ...]
    curves: tuple[_Curve, ...]


@lru_cache(maxsize=16)
def _codebook_matrix(
    n_elements: int, size: int, quant_bits: int, seed: int, style: str
) -> np.ndarray:
    cb = make_codebook(CodebookRole.BSW, n_elements, size, quant_bits, seed, style)
    matrix = np.exp(1j * np.stack([e.phases for e in cb.entries]))
    matrix.setflags(write=False)    # cached and shared across calls
    return matrix


@lru_cache(maxsize=16)
def _phase_table(quant_bits: int) -> np.ndarray:
    """exp(j * k * step) for every grid index k; equals exp(1j * quantize_phases(...))."""
    table = np.exp(1j * (np.arange(1 << quant_bits) * grid_step(quant_bits)))
    table.setflags(write=False)     # cached and shared across calls
    return table


def _cascade(seed: int, chunk_index: int, m: int, n_elements: int) -> np.ndarray:
    """Cascaded gains f * g of m trials of i.i.d. CN(0, 1) hops, from the (seed, chunk) stream.

    The normals are the (4, m, N) block [Re f, Im f, Re g, Im g] of the
    stream, drawn as two consecutive (2, m, N) halves (the same values) and
    combined in place, so no more than one hop's draws are alive at a time.
    """
    rng = np.random.default_rng([seed, chunk_index])

    def hop():
        draws = rng.standard_normal((2, m, n_elements))
        h = 1j * draws[1]
        h += draws[0]
        h *= _INV_SQRT2
        return h

    fg = hop()
    fg *= hop()
    return fg


def _oce_outcomes(fg: np.ndarray, rho: float, quant_bits: int):
    """Per-trial (rate, success, None) of rate adaptation on quantized phase compensation.

    rate is in bit/s/Hz; rate adaptation always succeeds.
    """
    idx = phase_indices((-np.angle(fg)) % TWO_PI, quant_bits)
    s = np.sum(fg * _phase_table(quant_bits)[idx], axis=1)
    snr = rho * np.abs(s) ** 2
    return np.log2(1.0 + snr), np.ones(fg.shape[0]), None


def _bsw_outcomes(fg: np.ndarray, rho: float, target_snr: float, entry_matrix: np.ndarray):
    """Per-trial (rate, success, evaluations) of a beam sweep against the target SNR.

    rate is the preset rate in bit/s/Hz; evaluations is the number of
    codebook entries tried up to the first qualifying one (the codebook size
    on outage), where an early-stopped sweep ends.
    """
    snr = rho * np.abs(fg @ entry_matrix.T) ** 2
    qualifying = snr >= target_snr
    success = qualifying.any(axis=1).astype(float)
    first = np.argmax(qualifying, axis=1) + 1
    evals = np.where(success > 0.0, first, entry_matrix.shape[0])
    rate = np.full(fg.shape[0], np.log2(1.0 + target_snr))
    return rate, success, evals


def _reduce(curve: _Curve, frames: np.ndarray, rate, success, evals) -> np.ndarray:
    """Per-frame partial sums [sum rsp, sum rsp^2, sum success, sum overhead_ttis].

    rsp is the per-trial rate * success * payload TTIs. Frames are reduced a
    block at a time, each trial row summed along its contiguous axis.
    """
    m = rate.shape[0]
    rs = rate * success
    out = np.empty((frames.shape[0], 4))
    out[:, 2] = success.sum()
    if curve.es_per_eval_ttis:
        oh = curve.fixed_overhead_ttis + curve.es_per_eval_ttis * evals
    else:
        oh = curve.fixed_overhead_ttis + curve.alg_const_ttis
        out[:, 3] = np.minimum(oh, frames) * m
    for lo in range(0, frames.shape[0], _FRAME_BLOCK):
        block = slice(lo, lo + _FRAME_BLOCK)
        totals = frames[block, None]
        rsp = rs[None, :] * np.maximum(0, totals - oh)
        out[block, 0] = rsp.sum(axis=1)
        out[block, 1] = (rsp * rsp).sum(axis=1)
        if curve.es_per_eval_ttis:
            out[block, 3] = np.minimum(oh, totals).sum(axis=1)
    return out


def _chunk_partials(batch: _Batch, chunk_index: int) -> np.ndarray:
    """Partial sums of one chunk, shape (curves, frames, 4); see _reduce."""
    start = chunk_index * CHUNK_TRIALS
    m = min(CHUNK_TRIALS, batch.n_trials - start)
    fg = _cascade(batch.seed, chunk_index, m, batch.n_elements)
    kernels = {curve.kernel for curve in batch.curves}
    outcomes = {}
    if Scheme.OCE in kernels:
        outcomes[Scheme.OCE] = _oce_outcomes(fg, batch.rho, batch.quant_bits)
    if Scheme.BSW in kernels:
        entry_matrix = _codebook_matrix(
            batch.n_elements, batch.codebook_size, batch.quant_bits,
            batch.codebook_seed, batch.codebook_style,
        )
        outcomes[Scheme.BSW] = _bsw_outcomes(fg, batch.rho, batch.target_snr, entry_matrix)
    del fg
    frames = np.array(batch.frames_ttis)
    return np.stack([_reduce(curve, frames, *outcomes[curve.kernel])
                     for curve in batch.curves])


def select_config(entry_snrs: Sequence[float], target_snr: float):
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


# SchemeParams fields that decide the per-trial channel outcomes; the
# curves of one batch share those outcomes, so they must agree on these.
_SHARED_FIELDS = ("n_elements", "quant_bits", "target_snr", "bsw_codebook_size")


def goodput_curves(
    specs: Sequence[tuple[SchemeParams, ControlMode]],
    frame_grid_ms: Sequence[float],
    bandwidth_hz: float,
    n_trials: int,
    seed: int,
    *,
    rho: float = DEFAULT_RHO,
    assume_perfect_control: bool = True,
    control_state: Optional[ControlChannelState] = None,
    header_bits: int = DEFAULT_HEADER_BITS,
    ini_carries_full_codebook: bool = False,
    tti_ms: float = TTI_MS,
    codebook_seed: int = DEFAULT_CODEBOOK_SEED,
    codebook_style: str = "random",
    workers: int = 1,
) -> list[list[GoodputResult]]:
    """Estimate goodput for every (scheme, mode) spec and frame length of a grid.

    Returns one curve per spec, in spec order. Every curve and grid point is
    reduced from the same per-trial channel outcomes: each chunk is drawn
    once and each scheme kernel runs at most once per chunk, so a curve is
    exactly what goodput_sweep gives for its spec alone. The specs must
    agree on n_elements, quant_bits, target_snr and bsw_codebook_size. With
    workers > 1 the chunks run on one process pool of at most
    min(workers, chunks, CPU count) processes.
    """
    if len(specs) == 0:
        raise InvalidParameterError("specs must be non-empty")
    first = specs[0][0]
    for params, _ in specs[1:]:
        for name in _SHARED_FIELDS:
            if getattr(params, name) != getattr(first, name):
                raise InvalidParameterError(f"specs must agree on {name}")
    if n_trials < 1:
        raise InvalidParameterError("n_trials must be >= 1")
    if not bandwidth_hz > 0:
        raise InvalidParameterError("bandwidth_hz must be > 0")
    if not rho > 0:
        raise InvalidParameterError("rho must be > 0")
    if len(frame_grid_ms) == 0:
        raise InvalidParameterError("frame grid must be non-empty")
    frames = tuple(frame_ttis(f, tti_ms) for f in frame_grid_ms)
    if not assume_perfect_control and control_state is None:
        raise InvalidParameterError(
            "control_state is required when assume_perfect_control is off"
        )

    curves, reliabilities = [], []
    for params, mode in specs:
        catalog = message_catalog(
            params.scheme, params.n_elements, params.quant_bits,
            params.bsw_codebook_size, header_bits, ini_carries_full_codebook,
        )
        spans = control_spans(catalog, mode)
        fixed = spans.ini_in_band + spans.set_in_band + params.switch_ttis
        if params.scheme is Scheme.BSW_ES:
            curve = _Curve(Scheme.BSW, fixed, 0, 2 if params.es_reservation else 1)
        else:
            curve = _Curve(params.scheme, fixed, alg_ttis(params), 0)
        curves.append(curve)
        reliabilities.append(1.0 if assume_perfect_control
                             else control_reliability(catalog, control_state, mode))

    batch = _Batch(
        n_elements=first.n_elements,
        rho=rho,
        quant_bits=first.quant_bits,
        target_snr=first.target_snr,
        codebook_size=first.bsw_codebook_size,
        codebook_seed=codebook_seed,
        codebook_style=codebook_style,
        seed=seed,
        n_trials=n_trials,
        frames_ttis=frames,
        curves=tuple(curves),
    )

    # Partials are summed in place in chunk order, which keeps the reduction
    # deterministic whatever the number of processes.
    n_chunks = math.ceil(n_trials / CHUNK_TRIALS)
    tasks = (repeat(batch, n_chunks), range(n_chunks))
    pool_size = min(workers, n_chunks, os.cpu_count() or 1)
    if pool_size <= 1:
        sums = reduce(operator.iadd, map(_chunk_partials, *tasks))
    else:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            sums = reduce(operator.iadd, pool.map(_chunk_partials, *tasks))

    results = []
    for (params, mode), reliability, curve_sums in zip(specs, reliabilities, sums):
        curve = []
        for i, f_ms in enumerate(frame_grid_ms):
            total = frames[i]
            sum_rsp, sum_rsp2, sum_success, sum_oh = curve_sums[i]
            scale = bandwidth_hz * reliability / (total * 1e6)
            mean_rsp = sum_rsp / n_trials
            var_rsp = max(0.0, sum_rsp2 / n_trials - mean_rsp * mean_rsp)
            curve.append(GoodputResult(
                frame_ms=float(f_ms),
                scheme=params.scheme,
                mode=mode,
                goodput_mbps=scale * mean_rsp,
                overhead_ms=sum_oh / n_trials * tti_ms,
                success_prob=reliability * sum_success / n_trials,
                n_trials=n_trials,
                seed=seed,
                goodput_se=scale * math.sqrt(var_rsp / n_trials),
            ))
        results.append(curve)
    return results


def goodput_sweep(
    params: SchemeParams,
    mode: ControlMode,
    frame_grid_ms: Sequence[float],
    bandwidth_hz: float,
    n_trials: int,
    seed: int,
    **kwargs,
) -> list[GoodputResult]:
    """Estimate goodput for every frame length of a grid with one trial set.

    All grid points share the same per-trial channel outcomes, which is
    exactly what element-wise calls with a common master seed would produce
    since the trial streams depend only on (seed, chunk). See goodput_curves
    for keyword options.
    """
    return goodput_curves([(params, mode)], frame_grid_ms, bandwidth_hz, n_trials,
                          seed, **kwargs)[0]


def goodput(
    params: SchemeParams,
    mode: ControlMode,
    frame_ms: float,
    bandwidth_hz: float,
    n_trials: int,
    seed: int,
    **kwargs,
) -> GoodputResult:
    """Single-frame goodput estimate; see goodput_curves for keyword options."""
    return goodput_sweep(params, mode, [frame_ms], bandwidth_hz, n_trials, seed,
                         **kwargs)[0]


def crossover_frame(
    oce_curve: Sequence[GoodputResult],
    bsw_curve: Sequence[GoodputResult],
) -> Optional[float]:
    """Smallest grid frame where rate adaptation overtakes beam sweeping for good.

    Ties count as an overtake. Returns None when no suffix of the grid is
    dominated by the rate-adaptive curve.
    """
    if len(oce_curve) != len(bsw_curve) or len(oce_curve) == 0:
        raise InvalidParameterError("curves must share a non-empty frame grid")
    for a, b in zip(oce_curve, bsw_curve):
        if a.frame_ms != b.frame_ms:
            raise InvalidParameterError("curves must share a non-empty frame grid")
    idx = None
    for i in reversed(range(len(oce_curve))):
        if oce_curve[i].goodput_mbps >= bsw_curve[i].goodput_mbps:
            idx = i
        else:
            break
    return None if idx is None else oce_curve[idx].frame_ms


def _validate_grid(grid_db: Sequence[float], name: str):
    if len(grid_db) == 0:
        raise InvalidParameterError(f"{name} must be non-empty")
    if any(b <= a for a, b in zip(grid_db, grid_db[1:])):
        raise InvalidParameterError(f"{name} must be strictly increasing")


def reliability_grid(
    catalog: list[ControlMessage],
    mode: ControlMode,
    snr_ris_grid_db: Sequence[float],
    snr_ue_grid_db: Sequence[float],
    symbols_per_tti: int = DEFAULT_SYMBOLS_PER_TTI,
) -> np.ndarray:
    """Closed-form control reliability on a dB grid, rows over the RIS axis.

    Reliability is a product of per-message factors, each depending on one
    axis only, so every factor is computed once per point of its own axis
    and the (len(ris), len(ue)) matrix is their broadcast product. The
    factors are multiplied in `control_reliability`'s order, so every cell
    equals it bit for bit.
    """
    _validate_grid(snr_ris_grid_db, "snr_ris_grid_db")
    _validate_grid(snr_ue_grid_db, "snr_ue_grid_db")
    if len(catalog) != 4:
        raise InvalidParameterError("catalog must contain exactly 4 messages")
    grid = np.ones((len(snr_ris_grid_db), len(snr_ue_grid_db)))
    for msg in catalog:
        if msg.recipient is Recipient.RISC and mode is ControlMode.OB_C:
            continue
        axis_db = snr_ue_grid_db if msg.recipient is Recipient.UE else snr_ris_grid_db
        symbols = msg.tti_cost * symbols_per_tti
        factor = np.array([msg_success_prob(msg.payload_bits, symbols, db_to_linear(db))
                           for db in axis_db])
        grid *= factor[None, :] if msg.recipient is Recipient.UE else factor[:, None]
    return grid


def calibrate_rho(
    n_elements: int = 100,
    quant_bits: int = 2,
    codebook_size: int = 32,
    target_snr: float = 10.0,
    codebook_seed: int = DEFAULT_CODEBOOK_SEED,
    codebook_style: str = "random",
    n_trials: int = 100_000,
    seed: int = 0,
    target_success: float = 0.5,
) -> float:
    """Reference SNR making beam sweeping succeed at a chosen rate.

    The per-entry SNR scales linearly in rho, so success(rho) is the
    fraction of trials whose best entry statistic exceeds target/rho and the
    calibrated value is read off the empirical quantile directly.
    """
    if not 0.0 < target_success < 1.0:
        raise InvalidParameterError("target_success must be in (0, 1)")
    entry_matrix = _codebook_matrix(
        n_elements, codebook_size, quant_bits, codebook_seed, codebook_style
    )
    maxima = []
    n_chunks = math.ceil(n_trials / CHUNK_TRIALS)
    for c in range(n_chunks):
        m = min(CHUNK_TRIALS, n_trials - c * CHUNK_TRIALS)
        stat = np.abs(_cascade(seed, c, m, n_elements) @ entry_matrix.T) ** 2
        maxima.append(stat.max(axis=1))
    best = np.concatenate(maxima)
    return float(target_snr / np.quantile(best, 1.0 - target_success))
