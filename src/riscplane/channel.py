"""Phase grid and codebooks as phase-level matrices.

The uplink signal reaches the base station only through an N-element
reflecting surface. With per-element phase shifts phi_n the end-to-end
amplitude is sum_n f_n * exp(j*phi_n) * g_n, where f_n is the UE-to-surface
gain and g_n the surface-to-BS gain of element n. Both links are modeled as
i.i.d. unit-variance Rayleigh fading; `rho` is the per-element reference SNR
in linear units, so the effective SNR of a configuration is

    rho * | sum_n f_n * exp(j*phi_n) * g_n |^2

Each phase is one of 2^b levels k * 2*pi / 2^b. A configuration is a
length-N vector of levels k and a codebook is a (C, N) int64 matrix of
them; the goodput kernels in `metrics` turn levels into phases through a
2^b-entry table of exp(j * k * step).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError, check_int

TWO_PI = 2.0 * np.pi
# Largest bits per element phase. A 2^b-entry phase table is built per run,
# so this also bounds its memory (2^16 complex entries, 1 MiB).
MAX_QUANT_BITS = 16


def check_counts(n_elements: int, quant_bits: int, bsw_codebook_size: int) -> None:
    """Elements and codebook entries are integers >= 1; phase bits are 1 to MAX_QUANT_BITS."""
    check_int("n_elements", n_elements, 1)
    check_int("quant_bits", quant_bits, 1)
    if quant_bits > MAX_QUANT_BITS:
        raise InvalidParameterError("quant_bits", f"must be <= {MAX_QUANT_BITS}")
    check_int("bsw_codebook_size", bsw_codebook_size, 1)


def grid_step(quant_bits: int) -> float:
    """Spacing of the uniform phase grid for a given per-element bit width."""
    check_int("quant_bits", quant_bits, 1)
    return TWO_PI / (1 << quant_bits)


def phase_indices(
    phases: np.ndarray, quant_bits: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Index k in [0, 2^quant_bits) of the grid point k * step nearest each phase.

    That is rint(phases / step) mod 2^quant_bits. The wrap is a bitmask with
    2^quant_bits - 1, which on two's-complement int64 equals floor-mod by
    the power of two for every value, negative ones included, so any real
    phase is wrapped as `%` would. With out, an int64 array of the phases'
    shape, the indices are written there and phases, then a float64 array,
    is overwritten on the way.
    """
    step = grid_step(quant_bits)
    if out is None:
        phases = np.array(phases, dtype=float)      # a copy, for the in-place steps
        out = np.empty(phases.shape, dtype=np.int64)
    phases /= step
    np.rint(phases, out=phases)
    out[...] = phases
    out &= (1 << quant_bits) - 1
    return out


def make_codebook(
    n_elements: int,
    size: int,
    quant_bits: int,
    seed: int,
    bsw_style: str,
) -> np.ndarray:
    """Beam-sweeping codebook as a (size, n_elements) int64 matrix of phase levels.

    The random style draws every level uniformly from the grid
    (deterministic in `seed`); the dft style takes `size` evenly spaced
    columns k = (i * N) // size of the N-point DFT, 2*pi*k*n/N, rounded to
    the grid.
    """
    check_counts(n_elements, quant_bits, size)
    if bsw_style == "random":
        rng = np.random.default_rng(seed)
        return rng.integers(0, 1 << quant_bits, size=(size, n_elements))
    if bsw_style == "dft":
        columns = (np.arange(size) * n_elements) // size
        phases = TWO_PI * columns[:, None] * np.arange(n_elements) / n_elements
        return phase_indices(phases, quant_bits)
    raise InvalidParameterError("bsw_style", f"unknown style {bsw_style!r}")
