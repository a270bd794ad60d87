"""Exact-moment oracle for the goodput kernels.

Under i.i.d. CN(0, 1) hops two moments of the SNR are known in closed form,
whatever the implementation:

- rate adaptation (OCE): E[SNR] = rho * (N + N(N-1) (pi/4)^2 sinc^2(pi / 2^b)),
  with sinc x = sin x / x. E|f_n g_n| = pi/4 is the Rayleigh-cascade mean,
  and the phase left after compensation to the nearest of 2^b levels is
  uniform on +-pi/2^b and independent of the magnitude;
- beam sweeping (BSW): every codebook entry, random or DFT, has
  E[SNR] = rho * N, because E[f g] = 0.

The production chunk stream, `_oce_outcomes` and `_codebook_matrix` are
checked against them with a z-score. The configs and seeds below were fixed
before the first run.
"""

import math

import numpy as np
import pytest

from riscplane.config import RunConfig
from riscplane.control import ControlMode, Scheme
from riscplane.frames import frame_ttis, overhead_ttis
from riscplane.metrics import CHUNK_TRIALS, _cascade, _codebook_matrix, _oce_outcomes, goodput_curves

N_CHUNKS = 16           # 65,536 trials per config
RHO = 1.0               # both moments scale linearly in rho
Z_MAX = 5.0

# (N, b, C, codebook style, seed)
CONFIGS = [
    (8, 1, 8, "random", 101),
    (16, 2, 16, "dft", 102),
    (64, 3, 32, "random", 103),
    (100, 16, 32, "dft", 104),
    (100, 2, 32, "random", 105),
]


def _oce_mean_snr(n_elements: int, quant_bits: int) -> float:
    x = math.pi / 2 ** quant_bits
    sinc = math.sin(x) / x
    return RHO * (n_elements + n_elements * (n_elements - 1) * (math.pi / 4) ** 2 * sinc ** 2)


def _z(samples: np.ndarray, expected: float) -> float:
    """z-score of the sample mean of independent samples against expected."""
    return (samples.mean() - expected) / (samples.std(ddof=1) / math.sqrt(samples.shape[0]))


@pytest.fixture(scope="module", params=CONFIGS, ids=lambda c: "N{}-b{}-C{}-{}".format(*c[:4]))
def kernel_snrs(request):
    """Per-trial OCE SNR and per-trial mean BSW SNR over the codebook, for one config."""
    n_elements, quant_bits, size, style, seed = request.param
    matrix = _codebook_matrix(n_elements, size, quant_bits, 7, style)
    oce, bsw = [], []
    for chunk in range(N_CHUNKS):
        fg = _cascade(seed, chunk, CHUNK_TRIALS, n_elements)
        rate, _, _ = _oce_outcomes(fg, RHO, quant_bits)
        oce.append(np.exp2(rate) - 1.0)
        # the C entries of a trial share fg, so only their per-trial mean is independent
        bsw.append((RHO * np.abs(fg @ matrix.T) ** 2).mean(axis=1))
    return request.param, np.concatenate(oce), np.concatenate(bsw)


def test_oce_mean_snr_matches_closed_form(kernel_snrs):
    (n_elements, quant_bits, *_), oce, _ = kernel_snrs
    assert abs(_z(oce, _oce_mean_snr(n_elements, quant_bits))) < Z_MAX


def test_bsw_mean_snr_of_every_entry_is_rho_n(kernel_snrs):
    (n_elements, *_), _, bsw = kernel_snrs
    assert abs(_z(bsw, RHO * n_elements)) < Z_MAX


def test_oce_goodput_is_bandwidth_times_mean_rate_times_payload_share():
    # perfect control: goodput = B * E[rate] * PAY / T, from the same kernel outputs
    cfg = RunConfig(n_elements=16, quant_bits=3, rho=0.5, n_trials=2 * CHUNK_TRIALS + 100,
                    master_seed=106, frame_grid=(10.0, 20.0, 50.0))
    modes = list(ControlMode)
    curves = goodput_curves(cfg, [(Scheme.OCE, mode) for mode in modes])
    rates = []
    for chunk in range(math.ceil(cfg.n_trials / CHUNK_TRIALS)):
        m = min(CHUNK_TRIALS, cfg.n_trials - chunk * CHUNK_TRIALS)
        rates.append(_oce_outcomes(_cascade(cfg.master_seed, chunk, m, cfg.n_elements),
                                   cfg.rho, cfg.quant_bits)[0])
    mean_rate = np.concatenate(rates).mean()
    params, catalog = cfg.scheme_params(Scheme.OCE), cfg.catalog(Scheme.OCE)
    for mode, curve in zip(modes, curves):
        overhead = overhead_ttis(params, mode, catalog)
        for result in curve:
            total = frame_ttis(result.frame_ms, cfg.tti_ms)
            expected = cfg.bandwidth_hz * mean_rate * max(0, total - overhead) / total / 1e6
            assert result.goodput_mbps == pytest.approx(expected, rel=1e-12, abs=0.0)
