"""Command-line front end: goodput sweeps, reliability grids, plan checks.

Exit codes: 0 ok, 1 plan check failed, 2 configuration error, 3 output I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys

from .config import ConfigError, RunConfig, load_config, parse_grid
from .control import ControlMode, Scheme, message_catalog
from .frames import ChannelUse, build_frame, overhead_ms, validate_causality
from .metrics import goodput_curves, reliability_grid

EXIT_OK = 0
EXIT_PLAN = 1
EXIT_CONFIG = 2
EXIT_IO = 3

GOODPUT_HEADER = "frame_ms,scheme,mode,goodput_mbps,overhead_ms,success_prob,n_trials,seed"
RELIABILITY_HEADER = "snr_ris_db,snr_ue_db,scheme,mode,reliability"
THRESHOLD_HEADER = "scheme,mode,axis,min_snr_db"

_SCHEMES = {"oce": [Scheme.OCE], "bsw": [Scheme.BSW], "bsw-es": [Scheme.BSW_ES],
            "all": [Scheme.OCE, Scheme.BSW, Scheme.BSW_ES]}
_MODES = {"ib": [ControlMode.IB_C], "ob": [ControlMode.OB_C],
          "both": [ControlMode.IB_C, ControlMode.OB_C]}


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riscplane",
        description="Control-plane trade-off simulator for surface-aided uplinks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", metavar="PATH", help="key = value config file")
        p.add_argument("--seed", type=int, metavar="U64", help="master seed")
        p.add_argument("--trials", type=int, metavar="N", help="Monte Carlo trials")
        p.add_argument("--mode", choices=sorted(_MODES), default="both")
        p.add_argument("--scheme", choices=["oce", "bsw", "bsw-es", "all"], default="all")
        p.add_argument("--out", metavar="PATH", help="output CSV path")
        p.add_argument("--workers", type=int, metavar="N", help="worker pool size")

    p_good = sub.add_parser("goodput", help="goodput vs. frame length sweep")
    add_common(p_good)
    p_good.add_argument("--frame-grid", metavar="START:STOP:STEP",
                        help="frame lengths in ms")

    p_rel = sub.add_parser("reliability", help="control reliability SNR grid")
    add_common(p_rel)
    p_rel.add_argument("--threshold", type=float, metavar="P",
                       help="also emit minimum qualifying SNR per axis")

    p_val = sub.add_parser("validate", help="build and check default frame plans")
    p_val.add_argument("--config", metavar="PATH")
    return parser


def _resolve(args) -> RunConfig:
    cfg = load_config(getattr(args, "config", None))
    if getattr(args, "seed", None) is not None:
        cfg.master_seed = args.seed
    if getattr(args, "trials", None) is not None:
        cfg.n_trials = args.trials
    if getattr(args, "workers", None) is not None:
        cfg.workers = args.workers
    if getattr(args, "out", None) is not None:
        cfg.output_path = args.out
    if getattr(args, "frame_grid", None) is not None:
        cfg.frame_grid = parse_grid(args.frame_grid, "frame_grid")
    cfg.validate()
    for key, value in cfg.resolved_items():
        print(f"# resolved {key} = {value}", file=sys.stderr)
    return cfg


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_goodput(cfg: RunConfig, schemes, modes) -> int:
    out_path = cfg.output_path or "goodput.csv"
    curves = goodput_curves(
        [(cfg.scheme_params(scheme), mode) for scheme in schemes for mode in modes],
        cfg.frame_grid, cfg.bandwidth_hz, cfg.n_trials, cfg.master_seed,
        rho=cfg.rho,
        assume_perfect_control=cfg.perfect_control,
        control_state=None if cfg.perfect_control else cfg.control_state(),
        header_bits=cfg.header_bits,
        ini_carries_full_codebook=cfg.ini_carries_full_codebook,
        tti_ms=cfg.tti_ms,
        codebook_seed=cfg.codebook_seed,
        codebook_style=cfg.bsw_codebook_style,
        workers=cfg.workers,
    )
    lines = [GOODPUT_HEADER]
    for i in range(len(cfg.frame_grid)):
        for curve in curves:
            r = curve[i]
            lines.append(",".join([
                _fmt(r.frame_ms), r.scheme.value, r.mode.value,
                _fmt(r.goodput_mbps), _fmt(r.overhead_ms),
                _fmt(r.success_prob), str(r.n_trials), str(r.seed),
            ]))
    _write_lines(out_path, lines)
    print(f"wrote {out_path} ({len(lines) - 1} rows)", file=sys.stderr)
    return EXIT_OK


def _grid_threshold_db(m, grid_db, axis: str, threshold: float) -> float:
    """Minimum grid SNR on one axis reaching the threshold, other axis at grid max."""
    line = m[:, -1] if axis == "ris" else m[-1, :]    # other axis pinned at its max
    for snr_db, reliability in zip(grid_db, line.tolist()):
        if reliability >= threshold:
            return snr_db
    return math.inf


def cmd_reliability(cfg: RunConfig, schemes, modes, threshold) -> int:
    out_path = cfg.output_path or "reliability.csv"
    grid = cfg.snr_grid_db
    grid_s = [format(v, ".12g") for v in grid]
    n_rows = 0
    summary = [THRESHOLD_HEADER]
    with open(out_path, "w", newline="") as fh:
        fh.write(RELIABILITY_HEADER + "\n")
        for scheme in schemes:
            catalog = message_catalog(
                scheme, cfg.n_elements, cfg.quant_bits, cfg.bsw_codebook_size,
                cfg.header_bits, cfg.ini_carries_full_codebook,
            )
            for mode in modes:
                m = reliability_grid(catalog, mode, grid, grid, cfg.symbols_per_tti)
                tag = f",{scheme.value},{mode.value},"
                rows = []
                for ris_s, values in zip(grid_s, m.tolist()):
                    rows.extend(ris_s + "," + ue_s + tag + format(v, ".12g")
                                for ue_s, v in zip(grid_s, values))
                fh.write("\n".join(rows) + "\n")
                n_rows += len(rows)
                if threshold is not None:
                    for axis in ("ris", "ue"):
                        min_db = _grid_threshold_db(m, grid, axis, threshold)
                        summary.append(",".join([scheme.value, mode.value, axis, _fmt(min_db)]))
    print(f"wrote {out_path} ({n_rows} rows)", file=sys.stderr)
    if threshold is not None:
        summary_path = _threshold_path(out_path)
        _write_lines(summary_path, summary)
        print(f"wrote {summary_path} ({len(summary) - 1} rows)", file=sys.stderr)
    return EXIT_OK


def _threshold_path(out_path: str) -> str:
    stem, dot, ext = out_path.rpartition(".")
    if not dot:
        return out_path + "_thresholds"
    return f"{stem}_thresholds.{ext}"


def cmd_validate(cfg: RunConfig) -> int:
    frame = max(cfg.frame_grid)
    failures = 0
    for scheme in (Scheme.OCE, Scheme.BSW, Scheme.BSW_ES):
        params = cfg.scheme_params(scheme)
        catalog = message_catalog(
            scheme, cfg.n_elements, cfg.quant_bits, cfg.bsw_codebook_size,
            cfg.header_bits, cfg.ini_carries_full_codebook,
        )
        for mode in (ControlMode.IB_C, ControlMode.OB_C):
            plan = build_frame(params, mode, frame, catalog, tti_ms=cfg.tti_ms)
            pieces = " + ".join(
                f"{p.kind.value.upper()}[{p.tti_span}{'*' if p.channel_usage is ChannelUse.OUT_OF_BAND else ''}]"
                for p in plan.phases
            )
            print(f"{scheme.value:6s} {mode.value}: {pieces} "
                  f"= {plan.total_ttis} TTIs ({plan.frame_ms:g} ms), "
                  f"overhead {overhead_ms(plan):g} ms")
            violation = validate_causality(plan)
            inband = sum(p.tti_span for p in plan.phases
                         if p.channel_usage is not ChannelUse.OUT_OF_BAND)
            if violation is not None:
                print(f"  causality violation: {violation.pair} ({violation.detail})")
                failures += 1
            if inband != plan.total_ttis:
                print(f"  conservation violation: {inband} != {plan.total_ttis}")
                failures += 1
            if plan.pay_ttis == 0:
                print("  warning: null rate (control phases fill the whole frame)")
    return EXIT_OK if failures == 0 else EXIT_PLAN


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        if getattr(args, "threshold", None) is not None:
            if not 0.0 < args.threshold < 1.0:
                raise ConfigError("threshold", "must be in (0, 1)")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    schemes = _SCHEMES[getattr(args, "scheme", "all")]
    modes = _MODES[getattr(args, "mode", "both")]
    try:
        if args.command == "goodput":
            return cmd_goodput(cfg, schemes, modes)
        if args.command == "reliability":
            return cmd_reliability(cfg, schemes, modes, args.threshold)
        return cmd_validate(cfg)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
