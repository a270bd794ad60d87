"""Monte Carlo goodput estimation and closed-form reliability grids.

Goodput trials are evaluated in fixed-size chunks. Chunk c draws its
channels from an independent stream seeded by (master_seed, c) and
partial sums are reduced in chunk order, so results are bit-identical for a
given seed no matter how many workers evaluate the chunks. The channel
stream does not depend on the scheme or the control mode, so every curve of
a batch is reduced from one draw per chunk, and plain beam sweeping and its
early-stopping variant share the qualifying event of every trial.
goodput_columns plans once per run, beside the codebook, the payload rows
shared by curves of one kernel and evaluation cost; a chunk only sums each
live row once, and squares and overheads come from per-count sums.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from collections import deque
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from typing import Iterator, Optional, Sequence

import numpy as np

from .channel import TWO_PI, grid_step, make_codebook, phase_indices
from .config import RunConfig
from .control import (
    ControlMessage,
    ControlMode,
    Scheme,
    control_reliability,
    db_to_linear,
    positive_linear,
    reliability_matrix,
)
from .errors import InvalidParameterError
from .frames import alg_ttis, overhead_ttis

CHUNK_TRIALS = 4096
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
# Payload rows reduced together: the (block, CHUNK_TRIALS) row buffer stays
# at 256 KiB, small enough for cache, and more rows per block only add
# memory without speeding up the reduction.
_FRAME_BLOCK = 8
# Elements per block of the cascade's draws and of the phase compensation: a
# block's buffers (32 B per element) stay within a core's L2 cache, and the
# per-block calls cost little next to a block's arithmetic.
_BLOCK = 1 << 14
# Cells per row block of a reliability grid: a block holds 2 MiB of float64,
# and each block's recomputed UE-axis factors (O(points) work) stay near 1%
# of a grid's time even at config.MAX_GRID_POINTS.
_GRID_BLOCK_CELLS = 1 << 18


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


def _codebook_matrix(
    n_elements: int, size: int, quant_bits: int, seed: int, style: str
) -> np.ndarray:
    """The complex (C, N) matrix of a beam-sweeping codebook; goodput_columns makes one per run."""
    return _phase_table(quant_bits)[make_codebook(n_elements, size, quant_bits, seed, style)]


@lru_cache(maxsize=16)
def _phase_table(quant_bits: int) -> np.ndarray:
    """exp(j * k * step) for every grid level k."""
    table = np.exp(1j * (np.arange(1 << quant_bits) * grid_step(quant_bits)))
    table.setflags(write=False)     # cached and shared across calls
    return table


def _chunk_buffers(trials: int, n_elements: int, codebook_size: int):
    """(name, dtype, elements) of each chunk buffer, for chunks of up to trials trials.

    The one place the buffers' sizes are written: _Scratch allocates from it
    and working_set_bytes counts its bytes. fg holds the cascaded gains,
    (trials, N) complex. real holds first the second hop's real parts, then,
    once the cascade has spent them, the beam sweep's (trials, C) complex
    products. draws, wrap and gains are block buffers: a block of normals,
    phases or SNRs; its wraps, levels or mask; a block of g, then of
    compensated gains. The cascade draws the stream _BLOCK normals at a
    time, the phase compensation runs on blocks of whole trials of up to
    _BLOCK elements (one trial if N is larger) and the sweep's SNRs and mask
    on blocks of whole trials of up to _BLOCK entries (one trial if C is
    larger).
    """
    block = max(_BLOCK, n_elements, codebook_size)
    return (("fg", complex, trials * n_elements),
            ("real", float, trials * max(n_elements, 2 * codebook_size)),
            ("draws", float, block), ("wrap", float, block), ("gains", complex, block))


class _Scratch:
    """A thread's chunk buffers, reused from chunk to chunk, as _chunk_buffers sizes them.

    Fresh multi-MiB temporaries in every chunk leave it to glibc's malloc
    whether they come from the brk heap or from new mappings, and the place
    of unrelated small allocations decides that: the length of the checkout
    path alone moved a pool worker's peak RSS by 6 MiB. Fixed buffers keep
    the peak the same from run to run and spare the page faults of fresh
    mappings.
    """

    def __init__(self, trials: int, n_elements: int, codebook_size: int):
        for name, dtype, size in _chunk_buffers(trials, n_elements, codebook_size):
            setattr(self, name, np.empty(size, dtype=dtype))


_thread_buffers = threading.local()     # each thread's last chunk buffers and their key


# Largest per-process working set, in bytes, that a goodput run may need
# (see check_working_set); the interpreter and numpy take about 28 MiB more.
MAX_WORKING_SET_BYTES = 1 << 30


def working_set_bytes(cfg: RunConfig) -> int:
    """Upper estimate of the bytes one goodput process allocates for cfg; allocates nothing.

    It adds the chunk buffers of a run's shape, as _chunk_buffers sizes them, a row
    block, the codebook as levels and complex entries (a run makes it once, in the
    calling process; a pool worker holds the copy that its task carries), three
    per-count tables of 6 curves x frames rows and C + 1 counts, 512 B per row for the
    result objects (only callers of goodput_curves make them; the CLI writes from
    goodput_columns and makes none), and 10 MiB of fixed allocations (numpy's random
    module, loaded at the first draw, and the BLAS buffers take about 8 MiB). The
    stages do not all peak at once: it errs high.
    """
    m = min(int(cfg.n_trials), CHUNK_TRIALS)
    n, c = int(cfg.n_elements), int(cfg.bsw_codebook_size)     # no int64 wrap-around
    buffers = sum(np.dtype(dtype).itemsize * size for _, dtype, size in _chunk_buffers(m, n, c))
    return (buffers + 8 * _FRAME_BLOCK * m + 32 * c * n + (16 << cfg.quant_bits) + (10 << 20)
            + 6 * len(cfg.frame_grid) * (24 * (c + 1) + 512))


def check_working_set(cfg: RunConfig) -> None:
    """Reject (field config) a valid cfg whose goodput run needs over MAX_WORKING_SET_BYTES."""
    need = working_set_bytes(cfg)
    if need > MAX_WORKING_SET_BYTES:
        raise InvalidParameterError(
            "config", f"a goodput run needs about {need / 2 ** 30:.3g} GiB per process, "
            f"more than the {MAX_WORKING_SET_BYTES / 2 ** 30:g} GiB budget")


def _shaped(buffer: np.ndarray, *shape: int) -> np.ndarray:
    """The leading elements of a flat buffer as a C-contiguous array of shape."""
    return buffer[:math.prod(shape)].reshape(shape)


def _cascade(
    seed: int, chunk_index: int, m: int, n_elements: int, scratch: Optional[_Scratch] = None
) -> np.ndarray:
    """Cascaded gains f * g of m trials of i.i.d. CN(0, 1) hops, from the (seed, chunk) stream.

    The normals are the (4, m, N) block [Re f, Im f, Re g, Im g] of the
    stream, drawn in blocks of _BLOCK (the same values: a draw keeps no state
    between calls). A hop is (Re + 1j * Im) / sqrt(2), written as its two
    scaled parts: the same bits, except that an exactly zero draw may keep its
    sign, which no product, sum or modulus downstream can tell. Re f and Im f
    are scaled straight into fg, Re g into the real buffer, and each block of
    Im g completes its block of g, which multiplies that block of fg in place.
    The result is a view of scratch's fg buffer; a call without scratch
    first makes a _Scratch sized for the call.
    """
    rng = np.random.default_rng([seed, chunk_index])
    if scratch is None:
        scratch = _Scratch(m, n_elements, 0)
    size = m * n_elements
    fg, real_g = scratch.fg[:size], scratch.real[:size]
    blocks = [(lo, min(lo + _BLOCK, size)) for lo in range(0, size, _BLOCK)]
    for part in (fg.real, fg.imag, real_g):
        for lo, hi in blocks:
            draws = rng.standard_normal(out=scratch.draws[:hi - lo])
            np.multiply(draws, _INV_SQRT2, out=part[lo:hi])
    for lo, hi in blocks:
        g = scratch.gains[:hi - lo]
        g.real = real_g[lo:hi]
        draws = rng.standard_normal(out=scratch.draws[:hi - lo])
        np.multiply(draws, _INV_SQRT2, out=g.imag)
        np.multiply(fg[lo:hi], g, out=fg[lo:hi])
    return fg.reshape(m, n_elements)


def _oce_outcomes(fg: np.ndarray, rho: float, quant_bits: int, scratch: Optional[_Scratch] = None):
    """Per-trial (rate, success, None) of rate adaptation on quantized phase compensation.

    rate is in bit/s/Hz; rate adaptation always succeeds. Each element is
    compensated by the level nearest x = -angle(fg) mod 2*pi. x lies in
    [-pi, pi], where np.remainder(x, 2*pi) is the single IEEE addition
    x + 2*pi for x < 0 and x itself otherwise (+0.0 for -0.0). Adding
    2*pi * (x < 0) performs that addition and adds 0.0 elsewhere, so it
    gives the same bits, signed zeros included, in three plain passes. The
    trials go through in blocks of max(1, _BLOCK // N) rows, in the block
    buffers of scratch (a call without scratch first makes a _Scratch of
    block buffers only); a trial's compensation and its row sum read only
    its own row, so the blocks give the same bits.
    """
    m, n_elements = fg.shape
    if scratch is None:
        scratch = _Scratch(0, n_elements, 0)    # the block buffers only
    rows = max(1, _BLOCK // n_elements)
    table = _phase_table(quant_bits)
    s = np.empty(m, dtype=complex)
    for lo in range(0, m, rows):
        block = fg[lo:lo + rows]
        phases = _shaped(scratch.draws, *block.shape)
        wrap = _shaped(scratch.wrap, *block.shape)
        levels = _shaped(scratch.wrap.view(np.int64), *block.shape)    # wrap's memory
        np.arctan2(block.imag, block.real, out=phases)      # np.angle(block)
        np.negative(phases, out=phases)
        np.less(phases, 0.0, out=wrap)
        wrap *= TWO_PI
        phases += wrap                                      # np.remainder(phases, TWO_PI)
        phase_indices(phases, quant_bits, out=levels)
        compensated = _shaped(scratch.gains, *block.shape)
        np.take(table, levels, out=compensated, mode="clip")    # levels are in range
        np.multiply(block, compensated, out=compensated)
        np.sum(compensated, axis=1, out=s[lo:lo + rows])
    snr = rho * np.abs(s) ** 2
    return np.log2(1.0 + snr), np.ones(m), None


def _bsw_outcomes(
    fg: np.ndarray, rho: float, target_snr: float, entry_matrix: np.ndarray,
    scratch: Optional[_Scratch] = None,
):
    """Per-trial (rate, success, evaluations) of a beam sweep against the target SNR.

    rate is the preset rate in bit/s/Hz; evaluations is the number of
    codebook entries tried up to the first qualifying one (the codebook size
    on outage), where an early-stopped sweep ends. The products fg @ E.T are
    one unblocked matmul (BLAS bits can depend on the row count), written
    into scratch's real buffer, whose second hop the cascade has spent. The
    SNRs rho * |fg @ E.T| ** 2, the qualifying mask, its any and its argmax
    go through in blocks of max(1, _BLOCK // C) trials, in the block buffers
    of scratch; each reads only its own trial's row, so the blocks give the
    bits of whole-chunk passes. A call without scratch first makes a _Scratch
    sized for the call, so the products have one path.
    """
    m, size = fg.shape[0], entry_matrix.shape[0]
    if scratch is None:
        scratch = _Scratch(m, 0, size)      # the products' and the block buffers only
    products = np.matmul(fg, entry_matrix.T, out=_shaped(scratch.real, m, 2 * size).view(complex))
    rows = max(1, _BLOCK // size)
    hit = np.empty(m, dtype=bool)
    first = np.empty(m, dtype=np.intp)
    for lo in range(0, m, rows):
        block = products[lo:lo + rows]
        snr = _shaped(scratch.draws, *block.shape)
        qualifying = _shaped(scratch.wrap.view(bool), *block.shape)
        np.abs(block, out=snr)
        np.square(snr, out=snr)
        snr *= rho              # rho * |fg @ E.T| ** 2 in place, with the same bits
        np.greater_equal(snr, target_snr, out=qualifying)
        np.any(qualifying, axis=1, out=hit[lo:lo + rows])
        np.argmax(qualifying, axis=1, out=first[lo:lo + rows])
    success = hit.astype(float)
    evals = np.where(hit, first + 1, size)
    rate = np.full(m, np.log2(1.0 + target_snr))
    return rate, success, evals


def _payload_rows(table: np.ndarray, index: Optional[np.ndarray], rs: np.ndarray, pay: np.ndarray):
    """One block's sum of rate * success * payload over the trials, one per row.

    Without index, table is the (rows, 1) payload, multiplied by rs. With
    index, each trial's count (0 on outage), it is r * payload per count for
    a sweep's one rate r, 0.0 in column 0. pay is a C-contiguous (rows,
    trials) buffer filled in one pass, each row summed along its contiguous
    axis; numpy's pairwise sums of another layout can differ in the last bits.
    """
    if index is None:
        np.multiply(table, rs, out=pay)
    else:
        np.take(table, index, axis=1, out=pay, mode="clip")     # counts index the table
    return pay.sum(axis=1)


def _reduce_curves(plan: tuple, frames_ttis: Sequence[int], outcomes) -> np.ndarray:
    """Per-curve, per-frame partial sums [sum rsp, sum rsp^2, sum success, sum overhead_ttis].

    rsp is rate * success * payload TTIs per trial. plan holds, per group of
    curves of one kernel and evaluation cost es, (kernel, es, positions,
    budget, rows): the curves' places in the result, the group's increasing
    distinct payload budgets D = max(0, frame - overhead_ttis) and each
    curve's budget index per frame. A trial's payload max(0, D - es * evals)
    depends on it only through its evaluation count, so each live row takes
    one pass over the trials, a multiply or (early stopping) a gather. With
    payload(k) a row's payload at count k (one count for rate adaptation),
    sum rsp^2 = sum_k payload(k)^2 * S2[k], S2[k] summing rs^2 over count
    k's trials, and the overhead is frame * trials - sum_k payload(k) *
    hist[k], both summed along the chunk's own counts: a matmul's bits would
    depend on the batch size, the sum's on the number of counts.
    """
    frames = np.array(frames_ttis, dtype=np.int64)
    out = np.empty((sum(len(group[2]) for group in plan), frames.shape[0], 4))
    for kernel, es, positions, budget, rows in plan:
        rate, success, evals = outcomes[kernel]
        m = rate.shape[0]
        rs = rate * success
        pay = np.empty((_FRAME_BLOCK, m))       # a block of rows' rate * success * payload
        counts = np.zeros(m, dtype=np.intp) if evals is None else evals
        hist = np.bincount(counts)
        per_count = np.maximum(0, budget[:, None] - es * np.arange(hist.shape[0]))
        payload = per_count.astype(float)       # exact: payloads stay below 2**53
        sums = np.zeros((budget.shape[0], 2))
        sums[:, 1] = (payload * payload * np.bincount(counts, weights=rs * rs)).sum(axis=1)
        table, index = payload[:, :1], None
        if es:
            # only a sweep stops early, and its rs is the preset rate on success, 0.0 on outage
            table = rate[0] * payload
            table[:, 0] = 0.0
            index = np.where(success > 0.0, evals, 0)
        # evals >= 1, so only rows with D > es carry payload: a suffix of the increasing budget
        dead = np.count_nonzero(budget <= es)
        for lo in range(dead, budget.shape[0], _FRAME_BLOCK):
            block = table[lo:lo + _FRAME_BLOCK]
            sums[lo:lo + _FRAME_BLOCK, 0] = _payload_rows(block, index, rs, pay[:block.shape[0]])
        success_sum, pay_sum = success.sum(), per_count @ hist
        for position, row in zip(positions, rows):
            out[position, :, :2] = sums[row]
            out[position, :, 2] = success_sum
            out[position, :, 3] = frames * m - pay_sum[row]
    return out


def _chunk_partials(
    cfg: RunConfig, plan: tuple, entries: Optional[np.ndarray], chunk_index: int,
) -> np.ndarray:
    """Partial sums of one chunk, shape (curves, frames, 4), summed along the run's row plan.

    plan is goodput_columns' row plan (see _reduce_curves). entries, the run's codebook
    matrix, is None when no curve sweeps. The frames' TTIs are cfg.frames_ttis, which a
    pickled cfg carries. Besides its arguments, a chunk reads only its thread's buffers.
    """
    m = min(CHUNK_TRIALS, cfg.n_trials - chunk_index * CHUNK_TRIALS)
    key = (min(cfg.n_trials, CHUNK_TRIALS), cfg.n_elements, cfg.bsw_codebook_size)
    if getattr(_thread_buffers, "key", None) != key:     # first chunk, or a new shape
        _thread_buffers.key, _thread_buffers.scratch = key, _Scratch(*key)
    scratch = _thread_buffers.scratch
    fg = _cascade(cfg.master_seed, chunk_index, m, cfg.n_elements, scratch)
    outcomes = {}
    if any(kernel is Scheme.OCE for kernel, *_ in plan):
        outcomes[Scheme.OCE] = _oce_outcomes(fg, cfg.rho, cfg.quant_bits, scratch)
    if entries is not None:
        outcomes[Scheme.BSW] = _bsw_outcomes(fg, cfg.rho, db_to_linear(cfg.target_snr_db),
                                             entries, scratch)
    return _reduce_curves(plan, cfg.frames_ttis, outcomes)


def _available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pooled_partials(pool, chunk, n_chunks: int, in_flight: int):
    """Chunk partials from pool in chunk order, with at most in_flight chunks submitted and unread.

    Executor.map would submit every chunk up front, holding memory for each.
    """
    pending = deque()
    for chunk_index in range(n_chunks):
        if len(pending) == in_flight:
            yield pending.popleft().result()
        pending.append(pool.submit(chunk, chunk_index))
    while pending:
        yield pending.popleft().result()


def goodput_columns(cfg: RunConfig, specs: Sequence[tuple[Scheme, ControlMode]]) -> np.ndarray:
    """Estimate goodput for every (scheme, mode) spec and every frame of cfg.frame_grid.

    Returns a float64 (specs, frames, 4) array, specs in spec order, of the
    GoodputResult fields [goodput_mbps, overhead_ms, success_prob,
    goodput_se] per frame. Every curve and grid point is reduced from the
    same per-trial channel outcomes: each chunk is drawn once, each scheme
    kernel runs at most once per chunk and each distinct payload row of a
    kernel and evaluation cost is summed once per chunk, so a curve is
    exactly what a batch of its spec alone gives. The run derives its row
    plan and, with a sweeping spec, its codebook matrix once, in the calling
    process, and every chunk task carries both. With cfg.workers > 1 the
    chunks run on one process pool of at most min(workers, chunks,
    available CPUs) processes. cfg was validated, and its frames' TTIs
    derived, when it was built. Empty or repeated specs, specs that are not
    (Scheme, ControlMode) pairs and a cfg over the memory budget (field
    config) raise InvalidParameterError before anything is allocated.
    """
    pairs = (isinstance(spec, tuple) and tuple(map(type, spec)) == (Scheme, ControlMode)
             for spec in specs)
    if len(specs) == 0 or not all(pairs):
        raise InvalidParameterError("specs", "must be non-empty (Scheme, ControlMode) pairs")
    if len(set(specs)) < len(specs):
        raise InvalidParameterError("specs", "must be distinct (scheme, mode) pairs")
    check_working_set(cfg)
    state = None if cfg.perfect_control else cfg.control_state()

    # each curve's overhead and row plan, grouped by kernel and TTIs per early-stopping evaluation
    groups: dict[tuple[Scheme, int], list[tuple[int, int]]] = {}
    reliabilities = []
    for position, (scheme, mode) in enumerate(specs):
        params, catalog = cfg.scheme_params(scheme), cfg.catalog(scheme)
        stop = 0 if scheme is Scheme.BSW_ES else None   # each trial adds es per evaluation
        key = (scheme, 0) if stop is None else (Scheme.BSW, alg_ttis(params, 1))
        groups.setdefault(key, []).append((position, overhead_ttis(params, mode, catalog, stop)))
        reliabilities.append(1.0 if state is None else control_reliability(catalog, state, mode))
    frames, plan = np.array(cfg.frames_ttis, dtype=np.int64), []
    for (kernel, es), curves in groups.items():
        positions, overheads = zip(*curves)
        budgets = np.maximum(0, frames - np.array(overheads, dtype=np.int64)[:, None])
        budget, rows = np.unique(budgets, return_inverse=True)    # numpy 1.x: rows is flat
        plan.append((kernel, es, positions, budget, rows.reshape(budgets.shape)))
    entries = None
    if any(kernel is Scheme.BSW for kernel, _ in groups):
        entries = _codebook_matrix(cfg.n_elements, cfg.bsw_codebook_size, cfg.quant_bits,
                                   cfg.codebook_seed, cfg.bsw_codebook_style)
    chunk = partial(_chunk_partials, cfg, tuple(plan), entries)

    # Partials are summed in place in chunk order, which keeps the reduction
    # deterministic whatever the number of processes.
    n_trials = cfg.n_trials
    n_chunks = math.ceil(n_trials / CHUNK_TRIALS)
    pool_size = min(cfg.workers, n_chunks, _available_cpus())
    if pool_size <= 1:
        sums = reduce(operator.iadd, map(chunk, range(n_chunks)))
    else:
        # imported here: the pool's modules are a sizeable part of the CLI's start-up
        import signal
        from concurrent.futures import ProcessPoolExecutor
        # Workers ignore SIGINT, which is the calling process's to handle: a worker idle when
        # it came would print a traceback of its own. On any exception the chunks not yet
        # started are cancelled, and the running ones finish.
        pool = ProcessPoolExecutor(max_workers=pool_size, initializer=signal.signal,
                                   initargs=(signal.SIGINT, signal.SIG_IGN))
        try:
            sums = reduce(operator.iadd, _pooled_partials(pool, chunk, n_chunks, 2 * pool_size))
        finally:
            pool.shutdown(cancel_futures=True)

    # Elementwise, in the operand order of the scalar formulas, so every value has their bits.
    sum_rsp, sum_rsp2, sum_success, sum_oh = np.moveaxis(sums, 2, 0)
    reliability = np.array(reliabilities)[:, None]
    scale = cfg.bandwidth_hz * reliability / (np.array(cfg.frames_ttis, dtype=float) * 1e6)
    mean_rsp = sum_rsp / n_trials
    var_rsp = sum_rsp2 / n_trials - mean_rsp * mean_rsp
    var_rsp = np.where(var_rsp > 0.0, var_rsp, 0.0)     # max(0.0, var_rsp), -0.0 and NaN too
    return np.stack([scale * mean_rsp,
                     sum_oh / n_trials * cfg.tti_ms,
                     reliability * sum_success / n_trials,
                     scale * np.sqrt(var_rsp / n_trials)], axis=2)


def goodput_curves(
    cfg: RunConfig, specs: Sequence[tuple[Scheme, ControlMode]]
) -> list[list[GoodputResult]]:
    """goodput_columns(cfg, specs) as one curve of GoodputResults per spec, in spec order.

    A curve holds one result per frame of cfg.frame_grid, its fields plain
    floats and ints with the bits of the columns. It raises what
    goodput_columns raises. The CLI writes its CSV from the columns and
    makes no result objects.
    """
    columns = goodput_columns(cfg, specs)
    return [[GoodputResult(frame_ms=float(f_ms), scheme=scheme, mode=mode, goodput_mbps=goodput,
                           overhead_ms=overhead, success_prob=success, n_trials=cfg.n_trials,
                           seed=cfg.master_seed, goodput_se=se)
             for f_ms, (goodput, overhead, success, se) in zip(cfg.frame_grid, curve)]
            for (scheme, mode), curve in zip(specs, columns.tolist())]


def crossover_frame(
    oce_curve: Sequence[GoodputResult],
    bsw_curve: Sequence[GoodputResult],
) -> Optional[float]:
    """Smallest grid frame where rate adaptation overtakes beam sweeping for good.

    Ties count as an overtake. Returns None when no suffix of the grid is
    dominated by the rate-adaptive curve.
    """
    if len(oce_curve) == 0:
        raise InvalidParameterError("oce_curve", "must be non-empty")
    if [a.frame_ms for a in oce_curve] != [b.frame_ms for b in bsw_curve]:
        raise InvalidParameterError("bsw_curve", "must have oce_curve's frame grid")
    idx = None
    for i in reversed(range(len(oce_curve))):
        if oce_curve[i].goodput_mbps >= bsw_curve[i].goodput_mbps:
            idx = i
        else:
            break
    return None if idx is None else oce_curve[idx].frame_ms


def reliability_rows(
    catalog: list[ControlMessage],
    mode: ControlMode,
    snr_ris_grid_db: Sequence[float],
    snr_ue_grid_db: Sequence[float],
    symbols_per_tti: int,
) -> Iterator[np.ndarray]:
    """Closed-form control reliability on a dB grid, as successive blocks of its rows.

    Both axes are checked when called. Each block is control.reliability_matrix
    on a slice of about _GRID_BLOCK_CELLS cells of the linear RIS axis; rows
    are independent, so the blocks stacked are the whole grid bit for bit,
    and a caller holds one block at a time.
    """
    ris = positive_linear(snr_ris_grid_db, "snr_ris_grid_db")
    ue = positive_linear(snr_ue_grid_db, "snr_ue_grid_db")
    step = max(1, _GRID_BLOCK_CELLS // len(ue))
    return (reliability_matrix(catalog, mode, ris[start:start + step], ue, symbols_per_tti)
            for start in range(0, len(ris), step))


def reliability_grid(
    catalog: list[ControlMessage],
    mode: ControlMode,
    snr_ris_grid_db: Sequence[float],
    snr_ue_grid_db: Sequence[float],
    symbols_per_tti: int,
) -> np.ndarray:
    """Closed-form control reliability on a dB grid, rows over the RIS axis.

    The blocks of reliability_rows stacked, so every cell equals
    control_reliability bit for bit.
    """
    return np.vstack(list(reliability_rows(catalog, mode, snr_ris_grid_db, snr_ue_grid_db,
                                           symbols_per_tti)))
