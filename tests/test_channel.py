import cmath
import math

import numpy as np
import pytest

from riscplane.channel import TWO_PI, grid_step, make_codebook, phase_indices
from riscplane.config import RunConfig
from riscplane.control import ControlMode, Scheme
from riscplane.errors import InvalidParameterError
from riscplane.metrics import _bsw_outcomes, _cascade, _oce_outcomes, _phase_table, goodput_curves


def compensated_snr(fg, rho, quant_bits):
    """Per-trial SNR of the rate-adaptive kernel's quantized phase compensation."""
    rate, _, _ = _oce_outcomes(np.atleast_2d(fg), rho, quant_bits)
    return 2.0 ** rate - 1.0


def sweep_qualifies(fg, rho, levels, quant_bits, target):
    """Whether the beam-sweeping kernel finds a configuration (row of levels) meeting target.

    fg is one trial; the kernel qualifies an entry when its SNR is >= target.
    """
    entries = _phase_table(quant_bits)[np.atleast_2d(levels)]
    _, success, _ = _bsw_outcomes(np.atleast_2d(fg), rho, target, entries)
    return bool(success[0])


def coherent_bound(fg, rho):
    """rho * (sum_n |f_n g_n|)^2: no configuration exceeds it."""
    return rho * float(np.sum(np.abs(fg))) ** 2


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_rayleigh_gains_have_unit_mean_power():
    # 1e6 cascaded element gains f*g of unit-power hops; E[|f g|^2] = 1 within 1%
    fg = _cascade(0, 0, 200, 5000)
    assert fg.size == 1_000_000
    assert abs(float(np.mean(np.abs(fg) ** 2)) - 1.0) < 0.01


def test_sampling_is_deterministic_in_seed():
    a = _cascade(123, 0, 1, 4)
    b = _cascade(123, 0, 1, 4)
    assert np.array_equal(a, b)
    c = _cascade(124, 0, 1, 4)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("n,rho", [(0, 1.0), (-3, 1.0), (4, 0.0), (4, -1.0)])
def test_sampling_rejects_bad_parameters(n, rho):
    # no channel is drawn for an empty surface or a non-positive reference SNR:
    # such a config cannot be built
    with pytest.raises(InvalidParameterError):
        goodput_curves(RunConfig(n_elements=n, rho=rho, frame_grid=(60.0,), n_trials=10),
                       [(Scheme.OCE, ControlMode.IB_C)])


# ---------------------------------------------------------------------------
# Effective SNR
# ---------------------------------------------------------------------------

def test_effective_snr_single_element_identity():
    assert compensated_snr(np.array([1.0 + 0j]), 1.0, 1)[0] == pytest.approx(1.0)
    assert sweep_qualifies(np.array([1.0 + 0j]), 1.0, [0], 1, 1.0)


def test_effective_snr_coherent_pair():
    assert compensated_snr(np.ones(2, complex), 1.0, 1)[0] == pytest.approx(4.0)


def test_effective_snr_matches_independent_recomputation():
    # direct complex arithmetic with cmath, element by element; the sweep
    # kernel qualifies the configuration against a target 1e-12 below the
    # recomputed SNR and not against one 1e-12 above it
    rng = np.random.default_rng(7)
    fg = _cascade(7, 0, 1, 8)[0]
    levels = rng.integers(0, 4, size=8)
    step = grid_step(2)
    s = 0 + 0j
    for n in range(8):
        s += complex(fg[n]) * cmath.exp(1j * float(levels[n] * step))
    expected = 2.5 * abs(s) ** 2
    assert sweep_qualifies(fg, 2.5, levels, 2, expected * (1 - 1e-12))
    assert not sweep_qualifies(fg, 2.5, levels, 2, expected * (1 + 1e-12))


def test_snr_never_exceeds_coherent_bound():
    # triangle inequality over 1e4 random (realization, configuration) pairs
    rng = np.random.default_rng(11)
    fg = _cascade(11, 0, 10_000, 6)
    levels = rng.integers(0, 4, size=(10_000, 6))
    for i in range(10_000):
        assert sweep_qualifies(fg[i], 1.7, levels[i], 2, 0.0)
        assert not sweep_qualifies(fg[i], 1.7, levels[i], 2,
                                   coherent_bound(fg[i], 1.7) * (1 + 1e-12))


# ---------------------------------------------------------------------------
# Optimal configuration
# ---------------------------------------------------------------------------

def test_optimal_config_zero_phases_for_real_positive_gains():
    # real positive cascaded gains are compensated by the all-zero
    # configuration, whose SNR is the in-phase sum; any other 2-bit level
    # would rotate one term by at least pi/2 and lose more than 20%
    f = np.array([1.0, 2.0, 0.5], dtype=complex)
    g = np.array([3.0, 1.0, 1.5], dtype=complex)
    snr = compensated_snr(f * g, 1.0, 2)[0]
    assert snr == pytest.approx(5.75 ** 2, rel=1e-12)


def test_optimal_config_single_element_is_exact():
    for quant_bits in (1, 2, 3):
        fg = _cascade(3, quant_bits, 1, 1)
        snr = compensated_snr(fg, 1.3, quant_bits)[0]
        exact = 1.3 * abs(fg[0, 0]) ** 2
        assert snr == pytest.approx(exact, rel=1e-12)
        assert snr >= exact * math.cos(math.pi / 2 ** (quant_bits + 1)) ** 2 - 1e-12


def brute_force_best(fg, rho, quant_bits):
    n, levels = fg.shape[0], 1 << quant_bits
    step = grid_step(quant_bits)
    grids = np.indices((levels,) * n).reshape(n, -1).T * step
    vals = np.abs(np.exp(1j * grids) @ fg) ** 2 * rho
    return float(vals.max())


def test_optimal_config_vs_exhaustive_enumeration():
    # 256-configuration oracle at N=4, b=2; per-element rounding can only
    # lose against the exhaustive optimum within the quantization loss bound
    fg = _cascade(21, 0, 20, 4)
    loss = math.cos(math.pi / 2 ** 2) ** 2    # worst case for half-step residuals
    for ch, rounded in zip(fg, compensated_snr(fg, 1.0, 2)):
        best = brute_force_best(ch, 1.0, 2)
        bound = coherent_bound(ch, 1.0)
        assert best >= rounded - 1e-12
        assert best <= bound * (1 + 1e-12)
        assert rounded <= bound * (1 + 1e-12)
        assert rounded >= bound * loss - 1e-12


def test_optimal_config_beats_every_bsw_entry_at_defaults():
    # no entry qualifies against the next float above the compensated SNR,
    # so every entry's SNR is at most that SNR
    fg = _cascade(5, 0, 1000, 100)
    levels = make_codebook(100, 32, 2, 9, "random")
    for ch, best in zip(fg, compensated_snr(fg, 1.0, 2)):
        assert not sweep_qualifies(ch, 1.0, levels, 2, np.nextafter(best, np.inf))


def test_quantization_refinement_helps_at_default_size():
    # one extra bit can only improve the compensated SNR at N = 100
    fg = _cascade(17, 0, 300, 100)
    snrs = [compensated_snr(fg, 1.0, b) for b in (1, 2, 3, 4)]
    for lo, hi in zip(snrs, snrs[1:]):
        assert np.all(hi >= lo - 1e-12)


def test_quantization_refinement_exact_grid_optimum_is_monotone():
    # nested grids: every b-bit configuration is also a (b+1)-bit one
    for ch in _cascade(19, 0, 100, 4):
        assert brute_force_best(ch, 1.0, 2) >= brute_force_best(ch, 1.0, 1) - 1e-12
        assert brute_force_best(ch, 1.0, 3) >= brute_force_best(ch, 1.0, 2) - 1e-12


# ---------------------------------------------------------------------------
# Codebooks
# ---------------------------------------------------------------------------

def test_phase_indices_round_to_the_nearest_level_and_wrap():
    step = grid_step(2)
    phases = np.array([0.1, np.pi / 2, np.pi - 0.1, TWO_PI - 0.1, TWO_PI, -step])
    assert np.array_equal(phase_indices(phases, 2), [0, 1, 2, 0, 0, 3])
    assert phase_indices(phases, 2).dtype == np.int64


@pytest.mark.parametrize("quant_bits", [1, 2, 3, 16])
def test_phase_indices_bitmask_wrap_matches_floor_mod(quant_bits):
    step = grid_step(quant_bits)
    ties = (np.arange(1 << quant_bits) + 0.5) * step
    on_grid = np.concatenate([[0.0, -0.0, np.pi, -np.pi], ties,
                              np.nextafter(ties, -np.inf), np.nextafter(ties, np.inf)])
    rng = np.random.default_rng(quant_bits)
    off_grid = np.concatenate([rng.uniform(-40.0, 0.0, 1000), rng.uniform(TWO_PI, 40.0, 1000)])
    # the formula with %: exact for every input, ties outside [0, 2*pi) included
    shifted = np.concatenate([-ties, ties + TWO_PI, ties - 3 * TWO_PI])
    for phases in (on_grid, off_grid, shifted):
        expected = np.rint(phases / step).astype(np.int64) % 2 ** quant_bits
        assert np.array_equal(phase_indices(phases, quant_bits), expected)
        out = np.empty(phases.shape, dtype=np.int64)
        phase_indices(phases.copy(), quant_bits, out=out)
        assert np.array_equal(out, expected)
    # the level of the phase mod 2*pi; at ties outside [0, 2*pi) np.remainder's
    # own rounding can cross the tie, so only the inputs above are compared
    for phases in (on_grid, off_grid):
        expected = np.rint(np.remainder(phases, TWO_PI) / step).astype(np.int64) % 2 ** quant_bits
        assert np.array_equal(phase_indices(phases, quant_bits), expected)


def test_ce_codebook_is_dft_exact_on_two_bit_grid():
    # the full channel-estimation sweep is the dft style with one entry per element
    levels = make_codebook(4, 4, 2, 0, "dft")
    assert levels.shape == (4, 4)
    for k, row in enumerate(levels):
        expected = (TWO_PI * k * np.arange(4) / 4) % TWO_PI
        assert np.allclose(row * grid_step(2), expected, atol=1e-12)


def test_ctrl_codebook_is_single_zero_configuration():
    # a one-entry dft codebook is the all-zero wide-coverage configuration
    levels = make_codebook(16, 1, 2, 0, "dft")
    assert levels.shape == (1, 16)
    assert np.array_equal(levels[0], np.zeros(16))


def test_bsw_codebook_deterministic_in_seed():
    a = make_codebook(16, 32, 2, 7, "random")
    b = make_codebook(16, 32, 2, 7, "random")
    assert np.array_equal(a, b)
    c = make_codebook(16, 32, 2, 8, "random")
    assert not np.array_equal(a, c)


def test_bsw_codebook_entries_lie_on_grid():
    levels = make_codebook(8, 16, 3, 1, "random")
    assert levels.shape == (16, 8) and levels.dtype == np.int64
    assert levels.min() >= 0 and levels.max() < 8


def test_bsw_codebook_dft_subset_style():
    levels = make_codebook(8, 4, 3, 0, "dft")
    for i, row in enumerate(levels):
        k = (i * 8) // 4
        expected = phase_indices(TWO_PI * k * np.arange(8) / 8, 3)
        assert np.array_equal(row, expected)
    with pytest.raises(InvalidParameterError):
        make_codebook(8, 4, 3, 0, "sobol")
    for n, size in ((0, 4), (8, 0)):
        with pytest.raises(InvalidParameterError):
            make_codebook(n, size, 3, 0, "random")
