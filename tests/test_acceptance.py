"""Acceptance suite.

Each test enforces one release criterion at its stated tolerance and prints
one PASS/FAIL line. Run with `pytest -s tests/test_acceptance.py` to see the
lines as they complete.
"""

import math
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from riscplane.channel import grid_step
from riscplane.cli import main
from riscplane.config import RunConfig
from riscplane.control import (
    ControlMode,
    Recipient,
    Scheme,
    control_reliability,
    db_to_linear,
    message_catalog,
    min_snr_for_reliability,
    msg_success_prob,
    ControlChannelState,
)
from riscplane.frames import (
    ChannelUse,
    FramePhase,
    FramePlan,
    PhaseKind,
    build_frame,
    overhead_ms,
    validate_causality,
)
from riscplane.metrics import (
    _bsw_outcomes,
    _cascade,
    _codebook_matrix,
    _oce_outcomes,
    crossover_frame,
    goodput_curves,
    reliability_grid,
)

CFG = RunConfig()      # N = 100, C = 32, b = 2, 180 kHz, frames 10:100:5 ms
SCHEMES = (Scheme.OCE, Scheme.BSW, Scheme.BSW_ES)
MODES = (ControlMode.IB_C, ControlMode.OB_C)


@contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"criterion {num} FAIL: {description}")
        raise
    print(f"criterion {num} PASS: {description}")


def run_sweeps(n_trials, schemes=SCHEMES, seed=1):
    specs = [(scheme, mode) for scheme in schemes for mode in MODES]
    curves = goodput_curves(RunConfig(n_trials=n_trials, master_seed=seed), specs)
    return dict(zip(specs, curves))


@pytest.fixture(scope="module")
def sweeps_10k():
    return run_sweeps(10_000)


@pytest.fixture(scope="module")
def sweeps_100k():
    return run_sweeps(100_000, schemes=(Scheme.OCE, Scheme.BSW))


def min_nonnull(curve):
    return next((r.frame_ms for r in curve if r.goodput_mbps > 0.0), None)


def test_criterion_1_overhead_gap_between_control_modes():
    with criterion(1, "per-scheme |overhead(IB) - overhead(OB)| <= 2 ms"):
        for scheme in SCHEMES:
            params, catalog = CFG.scheme_params(scheme), CFG.catalog(scheme)
            oh = {mode: overhead_ms(build_frame(params, mode, 100.0, CFG.tti_ms, catalog))
                  for mode in MODES}
            gap = abs(oh[ControlMode.IB_C] - oh[ControlMode.OB_C])
            assert gap <= 2.0, f"{scheme}: gap {gap} ms"


def test_criterion_2_null_rate_ordering(sweeps_10k):
    with criterion(2, "min non-null frame: ES < BSW < OCE, OCE in [50,60], BSW in [15,30]"):
        for mode in MODES:
            es = min_nonnull(sweeps_10k[(Scheme.BSW_ES, mode)])
            bsw = min_nonnull(sweeps_10k[(Scheme.BSW, mode)])
            oce = min_nonnull(sweeps_10k[(Scheme.OCE, mode)])
            assert es is not None and bsw is not None and oce is not None
            assert es < bsw < oce, f"{mode}: {es}, {bsw}, {oce}"
            assert 50.0 <= oce <= 60.0, f"{mode}: OCE threshold {oce}"
            assert 15.0 <= bsw <= 30.0, f"{mode}: BSW threshold {bsw}"


def test_criterion_3_goodput_crossover(sweeps_100k):
    with criterion(3, "OCE/BSW goodput crossover in [50, 80] ms for both modes"):
        for mode in MODES:
            x = crossover_frame(sweeps_100k[(Scheme.OCE, mode)],
                                sweeps_100k[(Scheme.BSW, mode)])
            assert x is not None, f"{mode}: no crossover"
            assert 50.0 <= x <= 80.0, f"{mode}: crossover {x} ms"


def test_criterion_4_reliability_orderings():
    with criterion(4, "99% thresholds: OB UE equality, IB RIS gap >= 3 dB, OB >= IB"):
        catalogs = {s: CFG.catalog(s) for s in (Scheme.OCE, Scheme.BSW)}
        fixed = db_to_linear(30.0)
        symbols = CFG.symbols_per_tti
        # (a) identical minimum UE-side SNR out of band, to 0.01 dB
        ue = {s: min_snr_for_reliability(c, 0.99, fixed, Recipient.UE, ControlMode.OB_C, symbols)
              for s, c in catalogs.items()}
        assert abs(ue[Scheme.OCE] - ue[Scheme.BSW]) <= 0.01, f"UE thresholds {ue}"
        # (b) in-band RIS-side threshold gap of at least 3 dB
        ris = {s: min_snr_for_reliability(c, 0.99, fixed, Recipient.RISC, ControlMode.IB_C,
                                          symbols)
               for s, c in catalogs.items()}
        assert ris[Scheme.OCE] - ris[Scheme.BSW] >= 3.0, f"RIS thresholds {ris}"
        # (c) out-of-band reliability dominates in-band on the full grid
        axis = tuple(float(v) for v in range(0, 31))
        for s, c in catalogs.items():
            ib = reliability_grid(c, ControlMode.IB_C, axis, axis, symbols)
            ob = reliability_grid(c, ControlMode.OB_C, axis, axis, symbols)
            for i in range(31):
                for j in range(31):
                    assert ob[i, j] >= ib[i, j]


def test_criterion_5_outage_model_matches_monte_carlo():
    with criterion(5, "closed-form message/catalog reliability within 3 MC standard errors"):
        rng = np.random.default_rng(20240601)
        n = 1_000_000
        for _ in range(20):
            bits = int(rng.integers(21, 400))
            symbols = int(rng.integers(1, 5)) * 84
            snr = db_to_linear(float(rng.uniform(0.0, 25.0)))
            p = msg_success_prob(bits, symbols, snr)
            threshold = (2.0 ** (bits / symbols) - 1.0) / snr
            emp = float(np.mean(rng.exponential(size=n) >= threshold))
            se = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(emp - p) <= 3 * se, f"(bits={bits}, sym={symbols}): {emp} vs {p}"
        # joint catalog check, in-band rate adaptation at 30/30 dB
        catalog = CFG.catalog(Scheme.OCE)
        snr = db_to_linear(30.0)
        state = ControlChannelState(snr, snr, CFG.symbols_per_tti)
        p = control_reliability(catalog, state, ControlMode.IB_C)
        ok = np.ones(n, dtype=bool)
        for msg in catalog:
            t = (2.0 ** (msg.payload_bits / (msg.tti_cost * 84)) - 1.0) / snr
            ok &= rng.exponential(size=n) >= t
        emp = float(np.mean(ok))
        se = math.sqrt(p * (1 - p) / n)
        assert abs(emp - p) <= 3 * se, f"joint: {emp} vs {p}"


def test_criterion_6_brute_force_optimality():
    with criterion(6, "rounded optimum within quantization loss of 256-entry exhaustive max"):
        levels = 1 << 2
        step = grid_step(2)
        grids = np.indices((levels,) * 4).reshape(4, -1).T * step
        phase_matrix = np.exp(1j * grids)                  # 256 x 4
        loss = math.cos(math.pi / 2 ** 2) ** 2             # half-step residual worst case
        fg = _cascade(606, 0, 100, 4)                      # 100 trials of f * g at rho = 1
        rate, _, _ = _oce_outcomes(fg, 1.0, 2)             # the goodput kernel's compensation
        for ch, rounded in zip(fg, 2.0 ** rate - 1.0):
            brute = float((np.abs(phase_matrix @ ch) ** 2).max())
            bound = float(np.sum(np.abs(ch))) ** 2
            assert brute <= bound * (1 + 1e-12)
            assert rounded <= bound * (1 + 1e-12)
            assert rounded <= brute * (1 + 1e-12)
            assert rounded >= brute * loss - 1e-12
            assert rounded >= bound * loss - 1e-12


def test_criterion_7_causality_and_conservation():
    with criterion(7, "1000 random plans conserve TTIs and order phases; violations named"):
        rng = np.random.default_rng(707)
        for _ in range(1000):
            scheme = rng.choice(SCHEMES)
            params = replace(
                CFG.scheme_params(scheme),
                n_elements=int(rng.integers(1, 200)),
                bsw_codebook_size=int(rng.integers(1, 64)),
                quant_bits=int(rng.integers(1, 5)),
                proc_ttis=int(rng.integers(0, 5)),
                switch_ttis=int(rng.integers(1, 4)),
            )
            catalog = message_catalog(scheme, params.n_elements, params.quant_bits,
                                      params.bsw_codebook_size, int(rng.integers(0, 64)),
                                      CFG.ini_carries_full_codebook, CFG.symbols_per_tti)
            stop = None
            if scheme is Scheme.BSW_ES and rng.random() < 0.5:
                stop = int(rng.integers(1, params.bsw_codebook_size + 1))
            mode = rng.choice(MODES)
            frame_ms = int(rng.integers(1, 300)) * 0.5
            plan = build_frame(params, mode, frame_ms, CFG.tti_ms, catalog, stop_index=stop)
            inband = sum(p.tti_span for p in plan.phases
                         if p.channel_usage is not ChannelUse.OUT_OF_BAND)
            assert inband == plan.total_ttis
            assert validate_causality(plan) is None
        pay_first = FramePlan(tti_ms=0.5, total_ttis=8, phases=(
            FramePhase(PhaseKind.ALG, 2, ChannelUse.IN_BAND),
            FramePhase(PhaseKind.PAY, 4, ChannelUse.IN_BAND),
            FramePhase(PhaseKind.SET, 2, ChannelUse.IN_BAND),
        ))
        assert validate_causality(pay_first).pair == (PhaseKind.PAY, PhaseKind.SET)
        set_first = FramePlan(tti_ms=0.5, total_ttis=8, phases=(
            FramePhase(PhaseKind.SET, 2, ChannelUse.IN_BAND),
            FramePhase(PhaseKind.ALG, 2, ChannelUse.IN_BAND),
            FramePhase(PhaseKind.PAY, 4, ChannelUse.IN_BAND),
        ))
        assert validate_causality(set_first).pair == (PhaseKind.ALG, PhaseKind.SET)


def test_criterion_8_cli_determinism(tmp_path, capsys):
    with criterion(8, "goodput CSV byte-identical across runs and worker-pool sizes"):
        paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
        argv = ["goodput", "--seed", "1", "--trials", "2000"]
        assert main(argv + ["--out", str(paths[0])]) == 0
        assert main(argv + ["--out", str(paths[1])]) == 0
        assert main(argv + ["--out", str(paths[2]), "--workers", "4"]) == 0
        capsys.readouterr()
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]


def test_criterion_9_early_stopping_contract():
    with criterion(9, "BSW and BSW-ES agree per trial; ES ALG span <= 2C, = only when exhausted"):
        n_trials, c_size = 10_000, 32
        for seed in (1, 17):
            plain, early = goodput_curves(RunConfig(n_trials=n_trials, master_seed=seed),
                                          [(Scheme.BSW, ControlMode.OB_C),
                                           (Scheme.BSW_ES, ControlMode.OB_C)])
            for a, b in zip(plain, early):
                assert a.success_prob == b.success_prob
            entry_matrix = _codebook_matrix(100, c_size, 2, 7, "random")
            chunks = -(-n_trials // 4096)
            for c in range(chunks):
                m = min(4096, n_trials - c * 4096)
                _, success, evals = _bsw_outcomes(_cascade(seed, c, m, 100), CFG.rho,
                                                  10.0, entry_matrix)
                alg_spans = 2 * evals
                assert np.all(alg_spans <= 2 * c_size)
                exhausted = evals == c_size
                assert np.array_equal(alg_spans == 2 * c_size, exhausted)
                assert np.all(evals[success == 0.0] == c_size)
