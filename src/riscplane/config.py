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

from .channel import MAX_QUANT_BITS
from .control import (
    ControlChannelState, ControlMessage, ControlMode, Scheme, db_to_linear, message_catalog,
)
from .errors import InvalidParameterError
from .frames import MAX_FRAME_TTIS, SchemeParams, frame_ttis, overhead_ttis

# Most points a START:STOP:STEP grid may have; the finest packaged benchmark
# grid has 991, and the bound keeps a typo from allocating without limit.
MAX_GRID_POINTS = 10_000


class ConfigError(Exception):
    """A configuration field is missing, unknown or out of contract."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name
        self.message = message


def _finite(raw: str, name: str) -> float:
    """float(raw), rejecting nan and infinities; ValueError if it does not parse."""
    value = float(raw)
    if not math.isfinite(value):
        raise ConfigError(name, f"{raw!r} is not a finite number")
    return value


def _check_db(name: str, db: float) -> None:
    """Reject a dB value whose linear value is not a positive finite number."""
    try:
        linear = db_to_linear(db)
    except OverflowError:
        linear = math.inf
    if not 0.0 < linear < math.inf:
        raise ConfigError(name, f"{db:g} dB has no positive finite linear value")


def parse_grid(text: str, name: str) -> tuple[float, ...]:
    """Parse 'START:STOP:STEP' (inclusive) or a single value."""
    parts = [p.strip() for p in text.split(":")]
    try:
        if len(parts) == 1:
            return (_finite(parts[0], name),)
        if len(parts) == 3:
            start, stop, step = (_finite(p, name) for p in parts)
            if step <= 0 or stop < start:
                raise ConfigError(name, "grid requires STOP >= START and STEP > 0")
            span = (stop - start) / step + 1e-9
            if not span < MAX_GRID_POINTS:    # also catches an infinite span
                raise ConfigError(name, f"grid has more than {MAX_GRID_POINTS} points")
            count = int(span) + 1
            return tuple(start + i * step for i in range(count))
    except ValueError:
        pass
    raise ConfigError(name, f"cannot parse grid {text!r} (want START:STOP:STEP or a value)")


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
    # about half of the coherence blocks; see metrics.calibrate_rho.
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
            target_snr=db_to_linear(self.target_snr_db),
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
            avg_snr_ue=db_to_linear(self.snr_ue_db),
            avg_snr_ris=db_to_linear(self.snr_ris_db),
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
        positive_ints = ["n_elements", "quant_bits", "bsw_codebook_size",
                         "switch_ttis", "symbols_per_tti", "n_trials", "workers"]
        for name in positive_ints:
            if getattr(self, name) < 1:
                raise ConfigError(name, "must be >= 1")
        if self.quant_bits > MAX_QUANT_BITS:
            raise ConfigError("quant_bits", f"must be <= {MAX_QUANT_BITS}")
        for name in ["proc_ttis", "header_bits", "master_seed", "codebook_seed"]:
            if getattr(self, name) < 0:
                raise ConfigError(name, "must be >= 0")
        for name in ["rho", "tti_ms", "bandwidth_hz"]:
            if not getattr(self, name) > 0:
                raise ConfigError(name, "must be > 0")
        if self.bsw_codebook_style not in ("random", "dft"):
            raise ConfigError("bsw_codebook_style", "must be 'random' or 'dft'")
        if len(self.frame_grid) == 0:
            raise ConfigError("frame_grid", "must be non-empty")
        for f_ms in self.frame_grid:
            try:
                frame_ttis(f_ms, self.tti_ms)
            except InvalidParameterError as exc:
                raise ConfigError("frame_grid", str(exc)) from None
        if len(self.snr_grid_db) == 0:
            raise ConfigError("snr_grid_db", "must be non-empty")
        if any(b <= a for a, b in zip(self.snr_grid_db, self.snr_grid_db[1:])):
            raise ConfigError("snr_grid_db", "must be strictly increasing")
        for db in self.snr_grid_db:
            _check_db("snr_grid_db", db)
        for name in ["target_snr_db", "snr_ue_db", "snr_ris_db"]:
            _check_db(name, getattr(self, name))
        for scheme in Scheme:
            catalog = self.catalog(scheme)
            for mode in ControlMode:
                if overhead_ttis(self.scheme_params(scheme), mode, catalog) > MAX_FRAME_TTIS:
                    raise ConfigError("config", f"{scheme.value} {mode.value} frame overhead "
                                      f"spans more than {MAX_FRAME_TTIS} TTIs")


_BOOL_WORDS = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}


def _coerce(cfg: RunConfig, key: str, raw: str) -> None:
    current = getattr(cfg, key)
    try:
        if isinstance(current, bool):
            word = raw.lower()
            if word not in _BOOL_WORDS:
                raise ValueError(raw)
            value = _BOOL_WORDS[word]
        elif isinstance(current, int):
            value = int(raw)
        elif isinstance(current, float):
            value = _finite(raw, key)
        elif isinstance(current, tuple):
            value = parse_grid(raw, key)
        else:
            value = raw
    except ValueError:
        raise ConfigError(key, f"cannot parse value {raw!r}") from None
    setattr(cfg, key, value)


def parse_config_text(text: str, cfg: RunConfig | None = None) -> RunConfig:
    cfg = cfg or RunConfig()
    known = {f.name for f in fields(cfg)}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("config", f"line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ConfigError(key, f"unknown configuration key (line {lineno})")
        _coerce(cfg, key, raw)
    return cfg


def load_config(path: str | None = None) -> RunConfig:
    """Parse a config file over the RunConfig defaults (the defaults alone if None)."""
    if path is None:
        return RunConfig()
    p = Path(path)
    if not p.is_file():
        raise ConfigError("config", f"no such file: {path}")
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    return parse_config_text(text)
