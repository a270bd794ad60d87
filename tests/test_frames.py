from dataclasses import replace

import numpy as np
import pytest

from riscplane.config import RunConfig
from riscplane.control import ControlMode, Scheme, message_catalog
from riscplane.errors import InvalidParameterError
from riscplane.frames import (
    MAX_FRAME_TTIS,
    ChannelUse,
    FramePhase,
    FramePlan,
    PhaseKind,
    alg_ttis,
    build_frame,
    frame_ttis,
    overhead_ms,
    overhead_ttis,
    validate_causality,
)


CFG = RunConfig()


def default_catalog(scheme):
    return CFG.catalog(scheme)


def default_params(scheme, **kw):
    return replace(CFG.scheme_params(scheme), **kw)


def inband_total(plan):
    return sum(p.tti_span for p in plan.phases
               if p.channel_usage is not ChannelUse.OUT_OF_BAND)


# ---------------------------------------------------------------------------
# Frame construction
# ---------------------------------------------------------------------------

def test_oce_default_frame_budget_at_60ms():
    # INI 2 + ALG (100 pilots + 2 proc) + SET (3 messages + 1 switch) = 108 TTIs
    plan = build_frame(default_params(Scheme.OCE), ControlMode.IB_C, 60.0, CFG.tti_ms,
                       default_catalog(Scheme.OCE))
    assert plan.total_ttis == 120
    assert plan.span(PhaseKind.INI) == 2
    assert plan.span(PhaseKind.ALG) == 102
    assert plan.span(PhaseKind.SET) == 4
    assert plan.pay_ttis == 12
    assert overhead_ms(plan) == pytest.approx(54.0)


def test_bsw_default_overhead_arithmetic():
    # 2 INI + (32 pilots + 2 proc) + (2 SET messages + 1 switch) = 39 TTIs
    params = default_params(Scheme.BSW)
    catalog = default_catalog(Scheme.BSW)
    assert overhead_ttis(params, ControlMode.IB_C, catalog) == 39
    plan = build_frame(params, ControlMode.IB_C, 40.0, CFG.tti_ms, catalog)
    assert overhead_ms(plan) == pytest.approx(19.5)


def test_out_of_band_removes_risc_messages_from_frame():
    params = default_params(Scheme.OCE)
    catalog = default_catalog(Scheme.OCE)
    plan = build_frame(params, ControlMode.OB_C, 60.0, CFG.tti_ms, catalog)
    assert plan.span(PhaseKind.INI) == 1
    assert plan.span(PhaseKind.SET) == 2      # UE SET message + switch time
    assert plan.pay_ttis == 120 - 105
    ob = [p for p in plan.phases if p.channel_usage is ChannelUse.OUT_OF_BAND]
    assert sum(p.tti_span for p in ob) == 3   # RISC INI (1) + RISC SET (2)
    assert inband_total(plan) == plan.total_ttis


def test_overhead_gap_between_modes_is_small():
    for scheme in (Scheme.OCE, Scheme.BSW, Scheme.BSW_ES):
        params = default_params(scheme)
        catalog = default_catalog(scheme)
        plans = {mode: build_frame(params, mode, 100.0, CFG.tti_ms, catalog)
                 for mode in (ControlMode.IB_C, ControlMode.OB_C)}
        gap = abs(overhead_ms(plans[ControlMode.IB_C]) - overhead_ms(plans[ControlMode.OB_C]))
        assert gap <= 2.0


def test_early_stop_alg_span():
    params = default_params(Scheme.BSW_ES)
    catalog = default_catalog(Scheme.BSW_ES)
    plan = build_frame(params, ControlMode.IB_C, 60.0, CFG.tti_ms, catalog, stop_index=1)
    assert plan.span(PhaseKind.ALG) == 2
    exhausted = build_frame(params, ControlMode.IB_C, 60.0, CFG.tti_ms, catalog)
    assert exhausted.span(PhaseKind.ALG) == 64
    bsw_alg = alg_ttis(default_params(Scheme.BSW))
    assert 2 < bsw_alg    # early stop at the first entry beats the full sweep


def test_early_stop_reservation_can_be_disabled():
    params = default_params(Scheme.BSW_ES, es_reservation=False)
    assert alg_ttis(params, stop_index=5) == 5
    assert alg_ttis(params) == 32


def test_early_stop_span_bounds():
    params = default_params(Scheme.BSW_ES)
    full_sweep = alg_ttis(default_params(Scheme.BSW))
    for k in range(1, 33):
        reserved = k    # one reserved SET slot per evaluation
        assert alg_ttis(params, stop_index=k) <= full_sweep + reserved
    assert alg_ttis(params) == 2 * 32


def test_short_frame_clamps_payload_to_null_rate():
    plan = build_frame(default_params(Scheme.OCE), ControlMode.IB_C, 10.0, CFG.tti_ms,
                       default_catalog(Scheme.OCE))
    assert plan.pay_ttis == 0
    assert overhead_ms(plan) == pytest.approx(10.0)
    assert inband_total(plan) == plan.total_ttis
    assert validate_causality(plan) is None


def test_frame_must_be_tti_multiple():
    with pytest.raises(InvalidParameterError):
        build_frame(default_params(Scheme.OCE), ControlMode.IB_C, 10.3, CFG.tti_ms,
                    default_catalog(Scheme.OCE))
    with pytest.raises(InvalidParameterError):
        frame_ttis(-5.0, CFG.tti_ms)
    assert frame_ttis(4.0, CFG.tti_ms) == 8


def test_frame_ttis_bounded():
    # below half a TTI rounds to no TTI; above MAX_FRAME_TTIS the per-chunk
    # payload sums would leave float64's exact integers
    assert frame_ttis(float(MAX_FRAME_TTIS), 1.0) == MAX_FRAME_TTIS
    for frame_ms, tti_ms in ((1e-12, 0.5), (float(MAX_FRAME_TTIS + 1), 1.0),
                             (10.0, 1e-300), (10.0, 1e-320)):
        with pytest.raises(InvalidParameterError):
            frame_ttis(frame_ms, tti_ms)


def test_scheme_params_bound_phase_bits():
    assert default_params(Scheme.OCE, quant_bits=16).quant_bits == 16
    for bits in (0, 17, 64):
        with pytest.raises(InvalidParameterError):
            default_params(Scheme.OCE, quant_bits=bits)


def test_stop_index_only_for_early_stopping():
    with pytest.raises(InvalidParameterError):
        build_frame(default_params(Scheme.BSW), ControlMode.IB_C, 60.0, CFG.tti_ms,
                    default_catalog(Scheme.BSW), stop_index=3)
    with pytest.raises(InvalidParameterError):
        build_frame(default_params(Scheme.BSW_ES), ControlMode.IB_C, 60.0, CFG.tti_ms,
                    default_catalog(Scheme.BSW_ES), stop_index=0)


# ---------------------------------------------------------------------------
# Causality
# ---------------------------------------------------------------------------

def test_generated_plans_pass_causality():
    plan = build_frame(default_params(Scheme.OCE), ControlMode.IB_C, 60.0, CFG.tti_ms,
                       default_catalog(Scheme.OCE))
    assert validate_causality(plan) is None


def test_payload_before_setup_is_rejected():
    plan = FramePlan(tti_ms=0.5, total_ttis=10, phases=(
        FramePhase(PhaseKind.INI, 1, ChannelUse.IN_BAND),
        FramePhase(PhaseKind.ALG, 3, ChannelUse.IN_BAND),
        FramePhase(PhaseKind.PAY, 4, ChannelUse.IN_BAND),
        FramePhase(PhaseKind.SET, 2, ChannelUse.IN_BAND),
    ))
    violation = validate_causality(plan)
    assert violation is not None
    assert violation.pair == (PhaseKind.PAY, PhaseKind.SET)


def test_setup_before_algorithm_is_rejected():
    plan = FramePlan(tti_ms=0.5, total_ttis=10, phases=(
        FramePhase(PhaseKind.INI, 1, ChannelUse.IN_BAND),
        FramePhase(PhaseKind.SET, 2, ChannelUse.IN_BAND),
        FramePhase(PhaseKind.ALG, 3, ChannelUse.IN_BAND),
        FramePhase(PhaseKind.PAY, 4, ChannelUse.IN_BAND),
    ))
    violation = validate_causality(plan)
    assert violation is not None
    assert violation.pair == (PhaseKind.ALG, PhaseKind.SET)


def test_zero_span_payload_needs_no_setup():
    plan = FramePlan(tti_ms=0.5, total_ttis=4, phases=(
        FramePhase(PhaseKind.PAY, 0, ChannelUse.IN_BAND),
        FramePhase(PhaseKind.INI, 4, ChannelUse.IN_BAND),
    ))
    assert validate_causality(plan) is None


def test_plan_conservation_enforced_at_construction():
    with pytest.raises(InvalidParameterError):
        FramePlan(tti_ms=0.5, total_ttis=10, phases=(
            FramePhase(PhaseKind.PAY, 4, ChannelUse.IN_BAND),
        ))


# ---------------------------------------------------------------------------
# Randomized conservation and ordering properties
# ---------------------------------------------------------------------------

def random_setup(rng):
    scheme = rng.choice([Scheme.OCE, Scheme.BSW, Scheme.BSW_ES])
    params = default_params(
        scheme,
        n_elements=int(rng.integers(1, 200)),
        bsw_codebook_size=int(rng.integers(1, 64)),
        quant_bits=int(rng.integers(1, 5)),
        proc_ttis=int(rng.integers(0, 5)),
        switch_ttis=int(rng.integers(1, 4)),
    )
    catalog = message_catalog(scheme, params.n_elements, params.quant_bits,
                              params.bsw_codebook_size, int(rng.integers(0, 64)),
                              CFG.ini_carries_full_codebook, CFG.symbols_per_tti)
    mode = rng.choice([ControlMode.IB_C, ControlMode.OB_C])
    frame_ms = int(rng.integers(1, 300)) * 0.5
    stop = None
    if scheme is Scheme.BSW_ES and rng.random() < 0.5:
        stop = int(rng.integers(1, params.bsw_codebook_size + 1))
    return params, mode, frame_ms, catalog, stop


def test_random_plans_conserve_and_respect_causality():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        params, mode, frame_ms, catalog, stop = random_setup(rng)
        plan = build_frame(params, mode, frame_ms, CFG.tti_ms, catalog, stop_index=stop)
        assert inband_total(plan) == plan.total_ttis
        assert validate_causality(plan) is None
        assert plan.pay_ttis >= 0


def test_payload_monotone_in_frame_length():
    params = default_params(Scheme.BSW)
    catalog = default_catalog(Scheme.BSW)
    spans = [build_frame(params, ControlMode.IB_C, f, CFG.tti_ms, catalog).pay_ttis
             for f in np.arange(5.0, 100.5, 2.5)]
    assert all(b >= a for a, b in zip(spans, spans[1:]))


def test_out_of_band_payload_never_smaller():
    rng = np.random.default_rng(43)
    for _ in range(200):
        params, _, frame_ms, catalog, stop = random_setup(rng)
        ib = build_frame(params, ControlMode.IB_C, frame_ms, CFG.tti_ms, catalog, stop_index=stop)
        ob = build_frame(params, ControlMode.OB_C, frame_ms, CFG.tti_ms, catalog, stop_index=stop)
        assert ob.pay_ttis >= ib.pay_ttis


def test_control_spans_split_by_mode():
    params, catalog = default_params(Scheme.OCE), default_catalog(Scheme.OCE)

    def spans(mode):
        plan = build_frame(params, mode, 60.0, CFG.tti_ms, catalog)
        return [sum(p.tti_span for p in plan.phases if p.kind is kind and p.channel_usage is use)
                for kind in (PhaseKind.INI, PhaseKind.SET)
                for use in (ChannelUse.IN_BAND, ChannelUse.OUT_OF_BAND)]

    ini_in, ini_out, set_in, set_out = spans(ControlMode.IB_C)
    assert ini_in == 2 and set_in == 3
    assert ini_out == 0 and set_out == 0
    ini_in, ini_out, set_in, set_out = spans(ControlMode.OB_C)
    assert ini_in == 1 and set_in == 1
    assert ini_out == 1 and set_out == 2


@pytest.mark.parametrize("fields", [{}, dict(symbols_per_tti=1, proc_ttis=0, es_reservation=False),
                                    dict(n_elements=9, bsw_codebook_size=5, switch_ttis=3)])
def test_plans_and_overheads_share_one_model(fields):
    # overhead_ttis is what a frame plan spends before PAY when the frame is
    # long enough, and out of band is exactly what OB-C moves off the frame
    cfg = replace(CFG, **fields)
    for scheme in Scheme:
        params, catalog = cfg.scheme_params(scheme), cfg.catalog(scheme)
        stops = [None] + list(range(1, params.bsw_codebook_size + 1)) \
            if scheme is Scheme.BSW_ES else [None]
        for stop in stops:
            overhead = {mode: overhead_ttis(params, mode, catalog, stop) for mode in ControlMode}
            for mode in ControlMode:
                for total in range(1, overhead[mode] + 4):
                    plan = build_frame(params, mode, total * cfg.tti_ms, cfg.tti_ms, catalog,
                                       stop_index=stop)
                    assert plan.total_ttis - plan.pay_ttis == min(total, overhead[mode])
                    if mode is ControlMode.OB_C:
                        assert sum(p.tti_span for p in plan.phases
                                   if p.channel_usage is ChannelUse.OUT_OF_BAND) \
                            == overhead[ControlMode.IB_C] - overhead[ControlMode.OB_C]
