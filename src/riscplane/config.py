"""Run configuration: plain key = value files, defaults, validation.

RunConfig's field defaults are the package's only default values. The
domain constructors take every value as an argument, RunConfig builds them
(scheme_params, catalog, control_state), and each CLI run logs the
resolved values as `# resolved` lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .control import (
    ControlChannelState, ControlMessage, ControlMode, Scheme, message_catalog, positive_linear,
)
from .errors import InvalidParameterError, check_bool, check_int, check_positive
from .frames import MAX_FRAME_TTIS, SchemeParams, frame_ttis, overhead_ttis

# Most points a START:STOP:STEP grid may have; the finest packaged benchmark
# grid has 991, and the bound keeps a typo from allocating without limit.
MAX_GRID_POINTS = 10_000


def parse_finite(raw: str, name: str, what: str) -> float:
    """float(raw), rejecting nan and infinities; 'cannot parse <what>' if it does not parse."""
    try:
        value = float(raw)
    except ValueError:
        raise InvalidParameterError(name, f"cannot parse {what}") from None
    if not math.isfinite(value):
        raise InvalidParameterError(name, f"{raw!r} is not a finite number")
    return value


def parse_grid(text: str, name: str) -> tuple[float, ...]:
    """Parse 'START:STOP:STEP' (inclusive) or a single value."""
    what = f"grid {text!r} (want START:STOP:STEP or a value)"
    parts = [p.strip() for p in text.split(":")]
    if len(parts) not in (1, 3):
        raise InvalidParameterError(name, f"cannot parse {what}")
    values = [parse_finite(p, name, what) for p in parts]
    if len(values) == 1:
        return (values[0],)
    start, stop, step = values
    if step <= 0 or stop < start:
        raise InvalidParameterError(name, "grid requires STOP >= START and STEP > 0")
    span = (stop - start) / step + 1e-9
    if not span < MAX_GRID_POINTS:    # also catches an infinite span
        raise InvalidParameterError(name, f"grid has more than {MAX_GRID_POINTS} points")
    return tuple(start + i * step for i in range(int(span) + 1))


@dataclass
class RunConfig:
    n_elements: int = 100
    quant_bits: int = 2
    bsw_codebook_size: int = 32
    bsw_codebook_style: str = "random"
    codebook_seed: int = 7
    target_snr_db: float = 10.0
    # Per-element reference SNR (linear), calibrated so that the default
    # 32-entry beam-sweeping codebook at N = 100 meets the 10 dB target in
    # about half of the coherence blocks (tests/test_metrics.py calibrates it).
    rho: float = 2.68e-2
    tti_ms: float = 0.5
    proc_ttis: int = 2
    switch_ttis: int = 1
    symbols_per_tti: int = 84
    header_bits: int = 16
    bandwidth_hz: float = 180000.0
    snr_ue_db: float = 30.0
    snr_ris_db: float = 30.0
    perfect_control: bool = True
    es_reservation: bool = True
    ini_carries_full_codebook: bool = False
    master_seed: int = 1
    n_trials: int = 10000
    workers: int = 1
    frame_grid: tuple[float, ...] = parse_grid("10:100:5", "frame_grid")
    snr_grid_db: tuple[float, ...] = parse_grid("0:30:1", "snr_grid_db")
    output_path: str = ""

    def scheme_params(self, scheme: Scheme) -> SchemeParams:
        return SchemeParams(
            scheme=scheme,
            n_elements=self.n_elements,
            bsw_codebook_size=self.bsw_codebook_size,
            quant_bits=self.quant_bits,
            proc_ttis=self.proc_ttis,
            switch_ttis=self.switch_ttis,
            es_reservation=self.es_reservation,
        )

    def catalog(self, scheme: Scheme) -> list[ControlMessage]:
        return message_catalog(
            scheme, self.n_elements, self.quant_bits, self.bsw_codebook_size,
            self.header_bits, self.ini_carries_full_codebook, self.symbols_per_tti,
        )

    def control_state(self) -> ControlChannelState:
        return ControlChannelState(
            avg_snr_ue=positive_linear(self.snr_ue_db, "snr_ue_db"),
            avg_snr_ris=positive_linear(self.snr_ris_db, "snr_ris_db"),
            symbols_per_tti=self.symbols_per_tti,
        )

    def resolved_items(self) -> list[tuple[str, str]]:
        """(key, value) of every field; floats in shortest round-trip form (repr)."""
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(map(repr, value))
            elif isinstance(value, bool):
                value = "true" if value else "false"
            out.append((f.name, str(value)))
        return out

    def validate(self) -> None:
        """Check the config's own rules, then build each domain object once to check the rest."""
        for key, low in [("n_trials", 1), ("workers", 1), ("master_seed", 0), ("codebook_seed", 0)]:
            check_int(key, getattr(self, key), low)
        check_bool("perfect_control", self.perfect_control)
        for name in ["rho", "bandwidth_hz"]:
            check_positive(name, getattr(self, name))
        if self.bsw_codebook_style not in ("random", "dft"):
            raise InvalidParameterError("bsw_codebook_style", "must be 'random' or 'dft'")
        if len(self.frame_grid) == 0:
            raise InvalidParameterError("frame_grid", "must be non-empty")
        for f_ms in self.frame_grid:
            frame_ttis(f_ms, self.tti_ms)
        positive_linear(self.target_snr_db, "target_snr_db")
        positive_linear(self.snr_grid_db, "snr_grid_db")
        self.control_state()
        for scheme in Scheme:
            params, catalog = self.scheme_params(scheme), self.catalog(scheme)
            for mode in ControlMode:
                if overhead_ttis(params, mode, catalog) > MAX_FRAME_TTIS:
                    raise InvalidParameterError("config", f"{scheme.value} {mode.value} frame "
                                                f"overhead spans more than {MAX_FRAME_TTIS} TTIs")


_BOOL_WORDS = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}


def coerce(cfg: RunConfig, key: str, raw: str) -> None:
    """Set cfg's field key from its text raw, as a config file or a command-line flag gives it."""
    current = getattr(cfg, key)
    if isinstance(current, tuple):
        value = parse_grid(raw, key)
    elif isinstance(current, float):
        value = parse_finite(raw, key, f"value {raw!r}")
    elif isinstance(current, str):
        value = raw
    else:
        try:
            value = _BOOL_WORDS[raw.lower()] if isinstance(current, bool) else int(raw)
        except (KeyError, ValueError):
            raise InvalidParameterError(key, f"cannot parse value {raw!r}") from None
    setattr(cfg, key, value)


def parse_config_text(text: str) -> RunConfig:
    cfg = RunConfig()
    known = {f.name for f in fields(cfg)}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParameterError("config", f"line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise InvalidParameterError(key, f"unknown configuration key (line {lineno})")
        coerce(cfg, key, raw)
    return cfg


def load_config(path: str | None = None) -> RunConfig:
    """Parse a config file over the RunConfig defaults (the defaults alone if None)."""
    if path is None:
        return RunConfig()
    p = Path(path)
    try:
        if not p.is_file():     # reading a device such as /dev/zero would not end
            raise InvalidParameterError(
                "config", f"{'not a regular file' if p.exists() else 'no such file'}: {path}")
    except OSError as exc:      # a path the system cannot look up, such as an over-long name
        raise InvalidParameterError("config", f"cannot look up {path}: {exc.strerror}") from exc
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameterError("config", f"cannot read {path}: {exc}") from exc
    return parse_config_text(text)
