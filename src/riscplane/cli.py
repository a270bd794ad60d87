"""Command-line front end: goodput sweeps, reliability grids, plan checks.

Exit codes: 0 ok, 2 configuration error, 3 output I/O error, 4 a pool worker
died, 130 interrupted (SIGINT). Each error ends the run with one line on stderr.
A run that fails, with exit 3 too, leaves the earlier files at its output
paths as they were: every output is opened before any work, written to a
temporary file beside its target and put in place only once the run is complete.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import math
import os
import stat
import sys
import tempfile
from dataclasses import fields

import numpy as np

from .config import RunConfig, load_config, parse_finite
from .control import ControlMode, Scheme, outage_thresholds
from .errors import InvalidParameterError
from .frames import ChannelUse, build_frame, overhead_ms
from .metrics import check_working_set, goodput_columns, reliability_grid, reliability_rows

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_WORKER = 4
EXIT_INTERRUPTED = 130

GOODPUT_HEADER = "frame_ms,scheme,mode,goodput_mbps,overhead_ms,success_prob,n_trials,seed"
RELIABILITY_HEADER = "snr_ris_db,snr_ue_db,scheme,mode,reliability"
THRESHOLD_HEADER = "scheme,mode,axis,min_snr_db"
# Binary buffer of every output file: a 10 KB grid row is not a write call of its own.
OUTPUT_BUFFER = 1 << 20
# Cells of the largest reliability grid whose row texts a run keeps for a later spec with
# the same grid: one grid of about 2^18 cells is at most about 9 MB of text.
KEEP_CELLS = 1 << 18

_SCHEMES = {**{scheme.value: [scheme] for scheme in Scheme}, "all": list(Scheme)}
_MODES = {**{mode.value: [mode] for mode in ControlMode}, "both": list(ControlMode)}
_heap_frozen = False        # set by main's first call


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riscplane",
        description="Control-plane trade-off simulator for surface-aided uplinks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", metavar="PATH", help="key = value config file")
        p.add_argument("--mode", choices=sorted(_MODES), default="both")
        p.add_argument("--scheme", choices=list(_SCHEMES), default="all")
        p.add_argument("--out", dest="output_path", metavar="PATH", help="output CSV path")

    p_good = sub.add_parser("goodput", help="goodput vs. frame length sweep")
    add_common(p_good)
    p_good.add_argument("--seed", dest="master_seed", metavar="N", help="master seed")
    p_good.add_argument("--trials", dest="n_trials", metavar="N", help="Monte Carlo trials")
    p_good.add_argument("--workers", metavar="N", help="worker pool size")
    p_good.add_argument("--frame-grid", metavar="START:STOP:STEP",
                        help="frame lengths in ms")
    p_good.set_defaults(threshold=None)

    p_rel = sub.add_parser("reliability", help="control reliability SNR grid")
    add_common(p_rel)
    p_rel.add_argument("--threshold", metavar="P",
                       help="also emit minimum qualifying SNR per axis")

    p_val = sub.add_parser("validate", help="build and check default frame plans")
    p_val.add_argument("--config", metavar="PATH")
    p_val.set_defaults(threshold=None)
    return parser


def _resolve(args) -> tuple[RunConfig, float | None, list[str]]:
    """The run's config (the config file under the flags named after RunConfig fields), its
    --threshold and its output paths: each read once and checked, then the config logged."""
    flags = [(f.name, getattr(args, f.name)) for f in fields(RunConfig)
             if getattr(args, f.name, None) is not None]
    cfg = load_config(args.config, flags)
    if args.command == "goodput":
        check_working_set(cfg)
    threshold = args.threshold
    paths = _output_paths(args.command, cfg, threshold is not None)
    if threshold is not None:
        threshold = parse_finite(threshold, "threshold", f"value {threshold!r}")
        if not 0.0 < threshold < 1.0:
            raise InvalidParameterError("threshold", "must be in (0, 1)")
        # the thresholds file goes next to --out, so --out must name a file, not a device
        if os.path.exists(paths[0]) and not os.path.isfile(paths[0]):
            raise InvalidParameterError(
                "threshold", f"needs --out to be a regular file or a new path, not {paths[0]!r}")
        # two outputs replacing one file would leave only the last
        if os.path.realpath(paths[1]) == os.path.realpath(paths[0]):
            raise InvalidParameterError("threshold", f"{paths[1]!r} is --out's file {paths[0]!r}")
    for key, value in cfg.resolved_items():
        print(f"# resolved {key} = {value}", file=sys.stderr)
    return cfg, threshold, paths


def _output_paths(command: str, cfg: RunConfig, with_thresholds: bool) -> list[str]:
    """The files a goodput or reliability run writes: --out, or <command>.csv without it,
    then with --threshold the thresholds file next to it."""
    out_path = cfg.output_path or f"{command}.csv"
    return [out_path, _threshold_path(out_path)] if with_thresholds else [out_path]


def _file_mode(path: str) -> int:
    """The mode open(path, "w") leaves on path: an existing file's, or 0666 less the umask."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0o022)     # read by setting it, then put back
        os.umask(umask)
        return 0o666 & ~umask


def _discard(path: str) -> None:
    """Remove path if it is there."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


@contextlib.contextmanager
def _opened(paths: list[str]):
    """Binary handles on paths, all opened before the caller does any work.

    A path that exists and is not a regular file (a device, a FIFO, /dev/stdout
    on a pipe) is written directly. Any other path is resolved through its
    symlinks, and its target is written to a temporary file beside it, which
    replaces the target only after the caller's block has returned and every
    handle has closed. On any exception the temporary files are removed, so
    the targets stay as they were. An existing target the user may not write
    is refused, as open(path, "w") would refuse it. Errors name paths as given.
    """
    with contextlib.ExitStack() as stack:
        handles, moves = [], []
        for path in paths:
            exists = os.path.exists(path)
            if exists and not os.path.isfile(path):
                handles.append(stack.enter_context(open(path, "wb", buffering=OUTPUT_BUFFER)))
                continue
            real = os.path.realpath(path)
            if exists and not os.access(real, os.W_OK,
                                        effective_ids=os.access in os.supports_effective_ids):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            try:
                fd, tmp = tempfile.mkstemp(prefix=f".{os.path.basename(real)}.", suffix=".tmp",
                                           dir=os.path.dirname(real))
            except OSError as exc:      # name the output, not the temporary file
                raise OSError(exc.errno, exc.strerror, path) from None
            stack.callback(_discard, tmp)       # after the handle closes; gone once replaced
            handles.append(stack.enter_context(open(fd, "wb", buffering=OUTPUT_BUFFER)))
            os.fchmod(fd, _file_mode(path))
            moves.append((tmp, real))
        yield handles
        for fh in handles:
            fh.close()          # a failed flush raises here, before any file is replaced
        for tmp, real in moves:
            os.replace(tmp, real)


def cmd_goodput(cfg: RunConfig, specs, fh) -> list[int]:
    """Write the goodput CSV of specs, (scheme, mode) pairs, to the binary fh; its row count,
    in a list."""
    # A frame's rows, one per spec, are one bytes %-template call on the frame's
    # [frame_ms, goodput_mbps, overhead_ms, success_prob] of every spec;
    # b'%.12g' gives the ASCII bytes of format(v, '.12g'), and no label holds a '%'.
    template = "".join(
        f"%.12g,{scheme.value},{mode.value},%.12g,%.12g,%.12g,{cfg.n_trials},{cfg.master_seed}\n"
        for scheme, mode in specs).encode("ascii")
    fh.write(f"{GOODPUT_HEADER}\n".encode("ascii"))
    columns = goodput_columns(cfg, specs)
    rows = np.empty((len(cfg.frame_grid), len(specs), 4))
    rows[:, :, 0] = np.array(cfg.frame_grid, dtype=float)[:, None]
    rows[:, :, 1:] = columns[:, :, :3].swapaxes(0, 1)
    for row in rows.reshape(len(cfg.frame_grid), -1):
        fh.write(template % tuple(row.tolist()))
    return [len(cfg.frame_grid) * len(specs)]


def _grid_texts(blocks, grid_s: list[bytes], label: bytes):
    """Each row's text after its RIS column, as bytes, of one grid given as row blocks over the
    RIS axis and labelled by grid_s and label (b',scheme,mode,').

    A row's cells are formatted by one bytes %-template call, built once per
    grid, whose b'%.12g' gives the ASCII bytes of format(v, '.12g'); no label
    holds a '%'.
    A row whose float64 bits equal the previous row's, in its block or the
    one before (so -0.0 is not 0.0), yields the same text object again: every
    out-of-band grid is one repeated row. Holds one block and one row's text.
    """
    template = b"\n".join(b"," + ue_s + label + b"%.12g" for ue_s in grid_s)
    prev_bits = None
    for block in blocks:
        for row in block:
            bits = row.tobytes()
            if bits != prev_bits:
                cells = template % tuple(row.tolist())
                prev_bits = bits
            yield cells
        del block, row      # before the next block is made, so only one is held


def _relabelled(kept_label: bytes, texts: list[bytes], label: bytes):
    """texts with kept_label replaced by label. No number holds a ',', so only the labels match
    kept_label. Each distinct text (a repeated row's is one object) is relabelled once."""
    prev = None
    for cells in texts:
        if cells is not prev:
            prev, relabelled = cells, cells.replace(kept_label, label)
        yield relabelled


def cmd_reliability(cfg: RunConfig, specs, threshold, fh, summary=None) -> list[int]:
    """Write the reliability CSV of specs to the binary fh and, with a threshold, the
    thresholds to the binary summary; the row count of each, the thresholds file's last.

    Each grid is streamed in row blocks. Specs with equal outage thresholds
    have bit-identical grids: BSW and BSW-ES share a catalog, and out of band
    only the UE messages, which all schemes share, can fail. On a grid of at
    most KEEP_CELLS cells, the first such spec keeps its row texts and each
    later one writes them relabelled, so the grid is formatted once; larger
    grids are streamed and formatted again. A spec's thresholds are read off
    its grid's last column and last row, from reliability_grid on a one-point
    axis: each cell is its own product, so they equal the written cells.
    """
    grid = cfg.snr_grid_db
    grid_s = [format(v, ".12g").encode("ascii") for v in grid]
    catalogs = {scheme: cfg.catalog(scheme) for scheme, _ in specs}
    keys = [tuple(outage_thresholds(catalogs[scheme], mode, cfg.symbols_per_tti))
            for scheme, mode in specs]
    fh.write(f"{RELIABILITY_HEADER}\n".encode("ascii"))
    if summary is not None:
        summary.write(f"{THRESHOLD_HEADER}\n".encode("ascii"))
    kept = {}       # key -> label and row texts of its first spec
    for i, ((scheme, mode), key) in enumerate(zip(specs, keys)):
        label = f",{scheme.value},{mode.value},".encode("ascii")
        if key in kept:
            texts = _relabelled(*kept[key], label)
        else:
            blocks = reliability_rows(catalogs[scheme], mode, grid, grid, cfg.symbols_per_tti)
            texts = _grid_texts(blocks, grid_s, label)
            if len(grid) ** 2 <= KEEP_CELLS and key in keys[i + 1:]:
                texts = list(texts)
                kept[key] = label, texts
        for ris_s, cells in zip(grid_s, texts):
            fh.write(ris_s + cells.replace(b"\n", b"\n" + ris_s) + b"\n")
        if summary is not None:
            for axis, ris, ue in (("ris", grid, grid[-1:]), ("ue", grid[-1:], grid)):
                line = reliability_grid(catalogs[scheme], mode, ris, ue, cfg.symbols_per_tti)
                min_db = next((db for db, rel in zip(grid, line.ravel().tolist())
                               if rel >= threshold), math.inf)
                summary.write(f"{scheme.value},{mode.value},{axis},{min_db:.12g}\n".encode("ascii"))
    return [len(specs) * len(grid) ** 2, 2 * len(specs)]


def _threshold_path(out_path: str) -> str:
    """out_path with _thresholds before the file name's extension, or appended if it has none.

    A dotfile name such as .rel has no extension.
    """
    stem, ext = os.path.splitext(out_path)
    return f"{stem}_thresholds{ext}"


def cmd_validate(cfg: RunConfig) -> int:
    frame = max(cfg.frame_grid)
    for scheme in Scheme:
        params, catalog = cfg.scheme_params(scheme), cfg.catalog(scheme)
        for mode in ControlMode:
            plan = build_frame(params, mode, frame, cfg.tti_ms, catalog)
            pieces = " + ".join(
                f"{p.kind.value.upper()}[{p.tti_span}{'*' if p.channel_usage is ChannelUse.OUT_OF_BAND else ''}]"
                for p in plan.phases
            )
            print(f"{scheme.value:6s} {mode.value}: {pieces} "
                  f"= {plan.total_ttis} TTIs ({plan.frame_ms:g} ms), "
                  f"overhead {overhead_ms(plan):g} ms")
            if plan.pay_ttis == 0:
                print("  warning: null rate (control phases fill the whole frame)")
    return EXIT_OK


def main(argv=None) -> int:
    # Every object the imports made lives until exit: in the permanent generation, neither
    # the cyclic collector nor interpreter teardown walks it, and forked pool workers do not
    # write its GC headers. Only the first call freezes, so a later call in the same process
    # does not freeze the garbage an earlier one left.
    global _heap_frozen
    if not _heap_frozen:
        gc.freeze()
        _heap_frozen = True
    args = build_parser().parse_args(argv)
    try:
        cfg, threshold, paths = _resolve(args)
        if args.command == "validate":
            return cmd_validate(cfg)
        specs = [(scheme, mode) for scheme in _SCHEMES[args.scheme] for mode in _MODES[args.mode]]
        with _opened(paths) as handles:
            counts = (cmd_goodput(cfg, specs, *handles) if args.command == "goodput"
                      else cmd_reliability(cfg, specs, threshold, *handles))
        for path, n_rows in zip(paths, counts):     # no thresholds count without its file
            print(f"wrote {path} ({n_rows} rows)", file=sys.stderr)
        return EXIT_OK
    except InvalidParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except RuntimeError as exc:
        # the pool's module is loaded only once a pool has run, not at start-up
        pool = sys.modules.get("concurrent.futures.process")
        if pool is None or not isinstance(exc, pool.BrokenProcessPool):
            raise
        print(f"worker error: {exc}", file=sys.stderr)
        return EXIT_WORKER


if __name__ == "__main__":
    sys.exit(main())
