"""Monte Carlo goodput estimation and closed-form reliability grids.

Goodput trials are evaluated in fixed-size chunks. Chunk c draws its
channels from an independent stream seeded by (master_seed, c) and
partial sums are reduced in chunk order, so results are bit-identical for a
given seed no matter how many workers evaluate the chunks. The channel
stream does not depend on the scheme or the control mode, so every curve of
a batch is reduced from one draw per chunk, and plain beam sweeping and its
early-stopping variant share the qualifying event of every trial. Curves of
one kernel also share their payload rows, each reduced once per chunk.
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

from .channel import DEFAULT_RHO, TWO_PI, grid_step, make_codebook, phase_indices
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
from .frames import TTI_MS, SchemeParams, alg_ttis, frame_ttis, overhead_ttis

CHUNK_TRIALS = 4096
DEFAULT_CODEBOOK_SEED = 7
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
# Payload rows reduced together: the (block, CHUNK_TRIALS) temporaries stay
# at 256 KiB each, small enough for cache, and more rows per block only add
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
    overhead_ttis: int          # frame TTIs before PAY, early-stopping evaluations excluded
    es_per_eval_ttis: int       # TTIs per early-stopping evaluation, 0 for a fixed overhead


@dataclass(frozen=True, eq=False)
class _RowGroup:
    """The distinct payload rows that the curves of one kernel share.

    A row is keyed by (es, D) and its per-trial payload is max(0, D - es * evals):
    early stopping has es = es_per_eval_ttis and D = frame - overhead_ttis, a
    fixed overhead es = 0 and D = max(0, frame - overhead_ttis). Curves whose
    overheads differ by a shift of the frame grid share their rows.
    """

    kernel: Scheme
    es: np.ndarray              # (rows,) key part es; keys are sorted
    budget: np.ndarray          # (rows,) key part D
    live: np.ndarray            # rows that can carry payload: D > es, as evals >= 1
    members: tuple[int, ...]    # batch positions of the group's curves
    rows: np.ndarray            # (members, frames) row of each member curve and frame


def _row_groups(curves: Sequence[_Curve], frames_ttis: Sequence[int]) -> tuple[_RowGroup, ...]:
    """One row group per kernel, with every curve's row index per frame."""
    members: dict[Scheme, list[int]] = {}
    for position, curve in enumerate(curves):
        members.setdefault(curve.kernel, []).append(position)
    groups = []
    for kernel, positions in members.items():
        curve_keys = []
        for position in positions:
            es, overhead = curves[position].es_per_eval_ttis, curves[position].overhead_ttis
            curve_keys.append([(es, total - overhead) if es else (0, max(0, total - overhead))
                               for total in frames_ttis])
        keys = sorted(set().union(*curve_keys))
        index = {key: i for i, key in enumerate(keys)}
        es = np.array([key[0] for key in keys], dtype=np.int64)
        budget = np.array([key[1] for key in keys], dtype=np.int64)
        groups.append(_RowGroup(
            kernel=kernel,
            es=es,
            budget=budget,
            live=np.flatnonzero(budget > es),
            members=tuple(positions),
            rows=np.array([[index[key] for key in row] for row in curve_keys], dtype=np.intp),
        ))
    return tuple(groups)


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
    groups: tuple[_RowGroup, ...]


@lru_cache(maxsize=16)
def _codebook_matrix(
    n_elements: int, size: int, quant_bits: int, seed: int, style: str
) -> np.ndarray:
    matrix = _phase_table(quant_bits)[make_codebook(n_elements, size, quant_bits, seed, style)]
    matrix.setflags(write=False)    # cached and shared across calls
    return matrix


@lru_cache(maxsize=16)
def _phase_table(quant_bits: int) -> np.ndarray:
    """exp(j * k * step) for every grid level k."""
    table = np.exp(1j * (np.arange(1 << quant_bits) * grid_step(quant_bits)))
    table.setflags(write=False)     # cached and shared across calls
    return table


class _Scratch:
    """Buffers for the (trials, N) arrays of a chunk, reused from chunk to chunk.

    Fresh multi-MiB temporaries in every chunk leave it to glibc's malloc
    whether they come from the brk heap or from new mappings, and the place
    of unrelated small allocations decides that: the length of the checkout
    path alone moved a pool worker's peak RSS by 6 MiB. Fixed buffers keep
    the peak the same from run to run and spare the page faults of fresh
    mappings.
    """

    def __init__(self, trials: int, n_elements: int):
        size = trials * n_elements
        self.draws = np.empty(2 * size)             # one hop's normals, then phases and levels
        self.fg = np.empty(size, dtype=complex)     # the cascaded gains
        self.h = np.empty(size, dtype=complex)      # the second hop, then compensated gains


@lru_cache(maxsize=1)
def _worker_scratch(n_elements: int) -> _Scratch:
    """A pool worker's buffers, kept across its chunks; it runs one chunk at a time."""
    return _Scratch(CHUNK_TRIALS, n_elements)


def _shaped(buffer: np.ndarray, *shape: int) -> np.ndarray:
    """The leading elements of a flat buffer as a C-contiguous array of shape."""
    return buffer[:math.prod(shape)].reshape(shape)


def _cascade(
    seed: int, chunk_index: int, m: int, n_elements: int, scratch: Optional[_Scratch] = None
) -> np.ndarray:
    """Cascaded gains f * g of m trials of i.i.d. CN(0, 1) hops, from the (seed, chunk) stream.

    The normals are the (4, m, N) block [Re f, Im f, Re g, Im g] of the
    stream, drawn as two consecutive (2, m, N) halves (the same values) and
    combined in place, so no more than one hop's draws are alive at a time.
    The result is a view of scratch's fg buffer; without scratch, new
    buffers are made.
    """
    rng = np.random.default_rng([seed, chunk_index])
    if scratch is None:
        scratch = _Scratch(m, n_elements)
    draws = _shaped(scratch.draws, 2, m, n_elements)

    def hop(h):
        rng.standard_normal(out=draws)
        np.multiply(1j, draws[1], out=h)
        h += draws[0]
        h *= _INV_SQRT2
        return h

    fg = hop(_shaped(scratch.fg, m, n_elements))
    fg *= hop(_shaped(scratch.h, m, n_elements))
    return fg


def _oce_outcomes(fg: np.ndarray, rho: float, quant_bits: int, scratch: Optional[_Scratch] = None):
    """Per-trial (rate, success, None) of rate adaptation on quantized phase compensation.

    rate is in bit/s/Hz; rate adaptation always succeeds. The draws and h
    buffers of scratch (new ones without it) hold the intermediates, so fg
    must not be a view of them.
    """
    m, n_elements = fg.shape
    if scratch is None:
        scratch = _Scratch(m, n_elements)
    size = m * n_elements
    phases = _shaped(scratch.draws, m, n_elements)
    levels = _shaped(scratch.draws[size:].view(np.int64), m, n_elements)
    np.arctan2(fg.imag, fg.real, out=phases)        # np.angle(fg)
    np.negative(phases, out=phases)
    np.remainder(phases, TWO_PI, out=phases)
    phase_indices(phases, quant_bits, out=levels)
    compensated = _shaped(scratch.h, m, n_elements)
    np.take(_phase_table(quant_bits), levels, out=compensated, mode="clip")  # levels are in range
    np.multiply(fg, compensated, out=compensated)
    s = np.sum(compensated, axis=1)
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


def _payload_rows(rs: np.ndarray, pay: np.ndarray):
    """[sum rsp, sum rsp^2] of a block of payload rows; rsp = rs * pay, one row per key.

    pay is (rows, 1) for fixed payloads or (rows, trials); each trial row is
    summed along its contiguous axis.
    """
    rsp = rs[None, :] * pay
    return rsp.sum(axis=1), (rsp * rsp).sum(axis=1)


def _reduce_groups(groups: Sequence[_RowGroup], frames_ttis: Sequence[int], outcomes) -> np.ndarray:
    """Per-curve, per-frame partial sums [sum rsp, sum rsp^2, sum success, sum overhead_ttis].

    rsp is the per-trial rate * success * payload TTIs. Each distinct row of
    a group is reduced once, _FRAME_BLOCK rows at a time, and gathered into
    every curve and frame that uses it; rows with no payload are exactly 0
    and take no pass over the trials. Overhead sums are frame * trials minus
    the integer payload sum, exact from the evaluation-count histogram.
    """
    frames = np.array(frames_ttis, dtype=np.int64)
    out = np.empty((sum(len(g.members) for g in groups), frames.shape[0], 4))
    for group in groups:
        rate, success, evals = outcomes[group.kernel]
        m = rate.shape[0]
        rs = rate * success
        es, budget = group.es, group.budget
        sums = np.zeros((es.shape[0], 2))
        if es.any():
            hist = np.bincount(evals)
            per_evals = np.maximum(0, budget[:, None] - es[:, None] * np.arange(hist.shape[0]))
            pay_sum = per_evals @ hist
        else:
            pay_sum = budget * m
        for lo in range(0, group.live.shape[0], _FRAME_BLOCK):
            block = group.live[lo:lo + _FRAME_BLOCK]
            if es[block].any():
                pay = np.maximum(0, budget[block, None] - es[block, None] * evals)
            else:
                pay = budget[block, None]
            sums[block, 0], sums[block, 1] = _payload_rows(rs, pay)
        success_sum = success.sum()
        for position, rows in zip(group.members, group.rows):
            out[position, :, :2] = sums[rows]
            out[position, :, 2] = success_sum
            out[position, :, 3] = frames * m - pay_sum[rows]
    return out


def _chunk_partials(
    batch: _Batch, chunk_index: int, scratch: Optional[_Scratch] = None
) -> np.ndarray:
    """Partial sums of one chunk, shape (curves, frames, 4); see _reduce_groups.

    scratch holds the chunk's (trials, N) arrays; pool workers pass none and
    use their own.
    """
    start = chunk_index * CHUNK_TRIALS
    m = min(CHUNK_TRIALS, batch.n_trials - start)
    if scratch is None:
        scratch = _worker_scratch(batch.n_elements)
    fg = _cascade(batch.seed, chunk_index, m, batch.n_elements, scratch)
    kernels = {group.kernel for group in batch.groups}
    outcomes = {}
    if Scheme.OCE in kernels:
        outcomes[Scheme.OCE] = _oce_outcomes(fg, batch.rho, batch.quant_bits, scratch)
    if Scheme.BSW in kernels:
        entry_matrix = _codebook_matrix(
            batch.n_elements, batch.codebook_size, batch.quant_bits,
            batch.codebook_seed, batch.codebook_style,
        )
        outcomes[Scheme.BSW] = _bsw_outcomes(fg, batch.rho, batch.target_snr, entry_matrix)
    return _reduce_groups(batch.groups, batch.frames_ttis, outcomes)


def _available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    once, each scheme kernel runs at most once per chunk and each distinct
    payload row of a kernel is reduced once per chunk, so a curve is
    exactly what goodput_sweep gives for its spec alone. The specs must
    agree on n_elements, quant_bits, target_snr and bsw_codebook_size. With
    workers > 1 the chunks run on one process pool of at most
    min(workers, chunks, available CPUs) processes.
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
        if params.scheme is Scheme.BSW_ES:
            curves.append(_Curve(Scheme.BSW, overhead_ttis(params, mode, catalog, stop_index=0),
                                 alg_ttis(params, 1)))
        else:
            curves.append(_Curve(params.scheme, overhead_ttis(params, mode, catalog), 0))
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
        groups=_row_groups(curves, frames),
    )

    # Partials are summed in place in chunk order, which keeps the reduction
    # deterministic whatever the number of processes.
    n_chunks = math.ceil(n_trials / CHUNK_TRIALS)
    tasks = (repeat(batch, n_chunks), range(n_chunks))
    pool_size = min(workers, n_chunks, _available_cpus())
    if pool_size <= 1:
        scratch = _Scratch(min(n_trials, CHUNK_TRIALS), first.n_elements)
        sums = reduce(operator.iadd, map(_chunk_partials, *tasks, repeat(scratch, n_chunks)))
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
