"""Command-line front end: goodput sweeps, reliability grids, plan checks.

Exit codes: 0 ok, 2 configuration error, 3 output I/O error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields

import numpy as np

from .config import RunConfig, load_config, parse_finite
from .control import ControlMode, Scheme
from .errors import InvalidParameterError
from .frames import ChannelUse, build_frame, overhead_ms
from .metrics import check_working_set, goodput_columns, reliability_grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3

GOODPUT_HEADER = "frame_ms,scheme,mode,goodput_mbps,overhead_ms,success_prob,n_trials,seed"
RELIABILITY_HEADER = "snr_ris_db,snr_ue_db,scheme,mode,reliability"
THRESHOLD_HEADER = "scheme,mode,axis,min_snr_db"

_SCHEMES = {**{scheme.value: [scheme] for scheme in Scheme}, "all": list(Scheme)}
_MODES = {**{mode.value: [mode] for mode in ControlMode}, "both": list(ControlMode)}


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
    p_good.add_argument("--seed", dest="master_seed", metavar="U64", help="master seed")
    p_good.add_argument("--trials", dest="n_trials", metavar="N", help="Monte Carlo trials")
    p_good.add_argument("--workers", metavar="N", help="worker pool size")
    p_good.add_argument("--frame-grid", metavar="START:STOP:STEP",
                        help="frame lengths in ms")

    p_rel = sub.add_parser("reliability", help="control reliability SNR grid")
    add_common(p_rel)
    p_rel.add_argument("--threshold", metavar="P",
                       help="also emit minimum qualifying SNR per axis")

    p_val = sub.add_parser("validate", help="build and check default frame plans")
    p_val.add_argument("--config", metavar="PATH")
    return parser


def _resolve(args) -> RunConfig:
    """The config file under the flags named after RunConfig fields: read alike, built, logged."""
    flags = [(f.name, getattr(args, f.name)) for f in fields(RunConfig)
             if getattr(args, f.name, None) is not None]
    cfg = load_config(args.config, flags)
    if args.command == "goodput":
        check_working_set(cfg)
    if getattr(args, "threshold", None) is not None:
        args.threshold = parse_finite(args.threshold, "threshold", f"value {args.threshold!r}")
        if not 0.0 < args.threshold < 1.0:
            raise InvalidParameterError("threshold", "must be in (0, 1)")
    for key, value in cfg.resolved_items():
        print(f"# resolved {key} = {value}", file=sys.stderr)
    return cfg


def cmd_goodput(cfg: RunConfig, schemes, modes) -> int:
    out_path = cfg.output_path or "goodput.csv"
    specs = [(scheme, mode) for scheme in schemes for mode in modes]
    # A frame's rows, one per spec, are one %-template call on the frame's
    # [frame_ms, goodput_mbps, overhead_ms, success_prob] of every spec;
    # '%.12g' gives the bytes of format(v, '.12g').
    template = "".join(
        "%.12g" + f",{scheme.value},{mode.value},".replace("%", "%%") + "%.12g,%.12g,%.12g"
        + f",{cfg.n_trials},{cfg.master_seed}\n".replace("%", "%%") for scheme, mode in specs)
    # opened first, so an unwritable path fails before any chunk is drawn
    with open(out_path, "w", newline="") as fh:
        fh.write(GOODPUT_HEADER + "\n")
        columns = goodput_columns(cfg, specs)
        rows = np.empty((len(cfg.frame_grid), len(specs), 4))
        rows[:, :, 0] = np.array(cfg.frame_grid, dtype=float)[:, None]
        rows[:, :, 1:] = columns[:, :, :3].swapaxes(0, 1)
        for row in rows.reshape(len(cfg.frame_grid), -1):
            fh.write(template % tuple(row.tolist()))
    print(f"wrote {out_path} ({len(cfg.frame_grid) * len(specs)} rows)", file=sys.stderr)
    return EXIT_OK


def _grid_threshold_db(m, grid_db, axis: str, threshold: float) -> float:
    """Minimum grid SNR on one axis reaching the threshold, other axis at grid max."""
    line = m[:, -1] if axis == "ris" else m[-1, :]    # other axis pinned at its max
    return next((db for db, rel in zip(grid_db, line.tolist()) if rel >= threshold), math.inf)


def _write_block(fh, m, grid_s: list[str], scheme: Scheme, mode: ControlMode) -> None:
    """Write the rows of one (scheme, mode) grid m, rows over the RIS axis, labelled by grid_s.

    A row's cells after the RIS column are formatted by one %-template call,
    whose '%.12g' gives the bytes of format(v, '.12g'). A row whose float64
    bits equal the previous row's (so -0.0 is not 0.0) writes that text
    again behind its own RIS column: every out-of-band grid is one repeated
    row. Holds one row's text.
    """
    template = "\n".join(f",{ue_s},{scheme.value},{mode.value},".replace("%", "%%") + "%.12g"
                         for ue_s in grid_s)
    prev_bits = None
    for ris_s, row in zip(grid_s, m):
        bits = row.tobytes()
        if bits != prev_bits:
            cells = template % tuple(row.tolist())
            prev_bits = bits
        fh.write(ris_s + cells.replace("\n", f"\n{ris_s}") + "\n")


def cmd_reliability(cfg: RunConfig, schemes, modes, threshold) -> int:
    out_path = cfg.output_path or "reliability.csv"
    grid = cfg.snr_grid_db
    grid_s = [format(v, ".12g") for v in grid]
    n_rows = 0
    summary = [THRESHOLD_HEADER]
    with open(out_path, "w", newline="") as fh:
        fh.write(RELIABILITY_HEADER + "\n")
        for scheme in schemes:
            catalog = cfg.catalog(scheme)
            for mode in modes:
                m = reliability_grid(catalog, mode, grid, grid, cfg.symbols_per_tti)
                _write_block(fh, m, grid_s, scheme, mode)
                n_rows += m.size
                if threshold is not None:
                    for axis in ("ris", "ue"):
                        min_db = _grid_threshold_db(m, grid, axis, threshold)
                        summary.append(f"{scheme.value},{mode.value},{axis},{min_db:.12g}")
    print(f"wrote {out_path} ({n_rows} rows)", file=sys.stderr)
    if threshold is not None:
        summary_path = _threshold_path(out_path)
        with open(summary_path, "w", newline="") as fh:
            fh.write("\n".join(summary) + "\n")
        print(f"wrote {summary_path} ({len(summary) - 1} rows)", file=sys.stderr)
    return EXIT_OK


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
    args = build_parser().parse_args(argv)
    schemes = _SCHEMES[getattr(args, "scheme", "all")]
    modes = _MODES[getattr(args, "mode", "both")]
    try:
        cfg = _resolve(args)
        if args.command == "goodput":
            return cmd_goodput(cfg, schemes, modes)
        if args.command == "reliability":
            return cmd_reliability(cfg, schemes, modes, args.threshold)
        return cmd_validate(cfg)
    except InvalidParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
