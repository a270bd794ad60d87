"""Cascaded UE-RIS-BS fading channel, phase-shift configurations and codebooks.

The uplink signal reaches the base station only through an N-element
reflecting surface. With per-element phase shifts phi_n the end-to-end
amplitude is sum_n f_n * exp(j*phi_n) * g_n, where f_n is the UE-to-surface
gain and g_n the surface-to-BS gain of element n. Both links are modeled as
i.i.d. unit-variance Rayleigh fading; `rho` is the per-element reference SNR
in linear units, so the effective SNR of a configuration is

    rho * | sum_n f_n * exp(j*phi_n) * g_n |^2
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParameterError

TWO_PI = 2.0 * np.pi
# Largest bits per element phase. A 2^b-entry phase table is built per run,
# so this also bounds its memory (2^16 complex entries, 1 MiB).
MAX_QUANT_BITS = 16
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_GRID_TOL = 1e-9

# Calibrated so that the default 32-entry beam-sweeping codebook at N = 100
# meets the 10 dB target in about half of the coherence blocks; see
# metrics.calibrate_rho and the committed default config file.
DEFAULT_RHO = 2.68e-2


class CodebookRole(Enum):
    CE = "ce"        # full channel-estimation sweep, one entry per element
    BSW = "bsw"      # beam-sweeping candidates
    CTRL = "ctrl"    # wide-coverage fallback loaded while idle


def grid_step(quant_bits: int) -> float:
    """Spacing of the uniform phase grid for a given per-element bit width."""
    if quant_bits < 1:
        raise InvalidParameterError("quant_bits must be >= 1")
    return TWO_PI / (1 << quant_bits)


def phase_indices(phases: np.ndarray, quant_bits: int) -> np.ndarray:
    """Index k in [0, 2^quant_bits) of the grid point k * step nearest each phase."""
    step = grid_step(quant_bits)
    idx = np.round(np.asarray(phases, dtype=float) / step).astype(np.int64)
    return idx % (1 << quant_bits)


def quantize_phases(phases: np.ndarray, quant_bits: int) -> np.ndarray:
    """Round each phase to the nearest grid point, wrapped to [0, 2*pi)."""
    return phase_indices(phases, quant_bits) * grid_step(quant_bits)


@dataclass(frozen=True)
class RisConfiguration:
    """Per-element phase shifts constrained to the quantized grid.

    Only quantized configurations are representable; the continuous optimum
    computed during configuration search is an intermediate value and is
    rounded before being stored here.
    """

    phases: np.ndarray
    quant_bits: int

    def __post_init__(self):
        phases = np.ascontiguousarray(self.phases, dtype=float)
        if phases.ndim != 1 or phases.size < 1:
            raise InvalidParameterError("phases must be a non-empty 1-D vector")
        if self.quant_bits < 1:
            raise InvalidParameterError("quant_bits must be >= 1")
        if np.any(phases < 0.0) or np.any(phases >= TWO_PI):
            raise InvalidParameterError("phases must lie in [0, 2*pi)")
        step = grid_step(self.quant_bits)
        if np.max(np.abs(phases - np.round(phases / step) * step)) > _GRID_TOL:
            raise InvalidParameterError(
                f"phases must be multiples of 2*pi/2^{self.quant_bits}"
            )
        phases.setflags(write=False)
        object.__setattr__(self, "phases", phases)

    @property
    def n_elements(self) -> int:
        return self.phases.shape[0]


@dataclass(frozen=True)
class Codebook:
    """Ordered set of configurations sharing element count and bit width."""

    role: CodebookRole
    entries: tuple[RisConfiguration, ...]
    id: int = 0

    def __post_init__(self):
        entries = tuple(self.entries)
        if not entries:
            raise InvalidParameterError("codebook must contain at least one entry")
        n = entries[0].n_elements
        bits = entries[0].quant_bits
        if any(e.n_elements != n or e.quant_bits != bits for e in entries):
            raise InvalidParameterError("codebook entries must share size and quant_bits")
        if self.role is CodebookRole.CE and len(entries) != n:
            raise InvalidParameterError("CE codebook must have one entry per element")
        if self.role is CodebookRole.CTRL and len(entries) != 1:
            raise InvalidParameterError("CTRL codebook must have exactly one entry")
        object.__setattr__(self, "entries", entries)

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def n_elements(self) -> int:
        return self.entries[0].n_elements

    @property
    def quant_bits(self) -> int:
        return self.entries[0].quant_bits


@dataclass(frozen=True)
class ChannelRealization:
    """Per-element complex gains of both hops for one coherence block."""

    f: np.ndarray               # UE -> surface, length N
    g: np.ndarray               # surface -> BS, length N
    rho: float                  # per-element reference SNR, linear

    def __post_init__(self):
        f = np.ascontiguousarray(self.f, dtype=complex)
        g = np.ascontiguousarray(self.g, dtype=complex)
        if f.ndim != 1 or g.ndim != 1 or f.size < 1 or f.shape != g.shape:
            raise InvalidParameterError("f and g must be non-empty vectors of equal length")
        if not self.rho > 0:
            raise InvalidParameterError("rho must be > 0")
        f.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)

    @property
    def n_elements(self) -> int:
        return self.f.shape[0]


def sample_realization(
    n_elements: int,
    rho: float,
    rng: np.random.Generator | int,
) -> ChannelRealization:
    """Draw one coherence block of i.i.d. CN(0, 1) gains for both hops.

    Deterministic given the generator state: the same seeded stream always
    produces bitwise-identical realizations.
    """
    if n_elements < 1:
        raise InvalidParameterError("n_elements must be >= 1")
    if not rho > 0:
        raise InvalidParameterError("rho must be > 0")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    draws = rng.standard_normal((4, n_elements))
    f = (draws[0] + 1j * draws[1]) * _INV_SQRT2
    g = (draws[2] + 1j * draws[3]) * _INV_SQRT2
    return ChannelRealization(f=f, g=g, rho=rho)


def effective_snr(ch: ChannelRealization, cfg: RisConfiguration) -> float:
    """Linear SNR of the combined channel under a given configuration."""
    if cfg.n_elements != ch.n_elements:
        raise InvalidParameterError(
            f"configuration size {cfg.n_elements} != channel size {ch.n_elements}"
        )
    s = np.sum(ch.f * np.exp(1j * cfg.phases) * ch.g)
    return float(ch.rho * np.abs(s) ** 2)


def snr_upper_bound(ch: ChannelRealization) -> float:
    """Coherent-combining cap rho * (sum_n |f_n||g_n|)^2; no configuration exceeds it."""
    return float(ch.rho * np.sum(np.abs(ch.f) * np.abs(ch.g)) ** 2)


def optimal_config(ch: ChannelRealization, quant_bits: int) -> RisConfiguration:
    """Best quantized configuration by per-element phase compensation.

    The continuous optimum -(arg f_n + arg g_n) cancels the cascaded phase of
    every element; each phase is then rounded to the nearest grid point.
    """
    phi_star = (-np.angle(ch.f * ch.g)) % TWO_PI
    return RisConfiguration(
        phases=quantize_phases(phi_star, quant_bits), quant_bits=quant_bits
    )


def make_codebook(
    role: CodebookRole,
    n_elements: int,
    size: int,
    quant_bits: int,
    seed: int = 0,
    bsw_style: str = "random",
) -> Codebook:
    """Build a configuration codebook.

    CE codebooks are the columns of the N-point DFT matrix with phases
    quantized to the grid; BSW codebooks draw entries uniformly from the
    quantized grid (deterministic in `seed`) or, with bsw_style="dft", take
    an evenly spaced subset of DFT columns; the CTRL codebook is the single
    all-zero-phase configuration.
    """
    if n_elements < 1 or size < 1:
        raise InvalidParameterError("n_elements and size must be >= 1")
    if role is CodebookRole.CE and size != n_elements:
        raise InvalidParameterError("CE codebook size must equal n_elements")
    if role is CodebookRole.CTRL and size != 1:
        raise InvalidParameterError("CTRL codebook size must be 1")

    n = np.arange(n_elements)
    if role is CodebookRole.CE:
        rows = [TWO_PI * k * n / n_elements for k in range(size)]
        cb_id = 0
    elif role is CodebookRole.CTRL:
        rows = [np.zeros(n_elements)]
        cb_id = 0
    else:
        if bsw_style == "random":
            rng = np.random.default_rng(seed)
            levels = rng.integers(0, 1 << quant_bits, size=(size, n_elements))
            step = grid_step(quant_bits)
            rows = [levels[k] * step for k in range(size)]
        elif bsw_style == "dft":
            rows = [TWO_PI * ((k * n_elements) // size) * n / n_elements for k in range(size)]
        else:
            raise InvalidParameterError(f"unknown bsw_style {bsw_style!r}")
        cb_id = seed

    entries = tuple(
        RisConfiguration(phases=quantize_phases(row, quant_bits), quant_bits=quant_bits)
        for row in rows
    )
    return Codebook(role=role, entries=entries, id=cb_id)
