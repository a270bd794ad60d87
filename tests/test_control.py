import math

import numpy as np
import pytest

from riscplane.control import (
    NOMINAL_BITS_PER_SYMBOL,
    SNR_CAP_DB,
    SNR_FLOOR_DB,
    ControlChannelState,
    ControlMode,
    PhaseKind,
    Recipient,
    Scheme,
    control_reliability,
    db_to_linear,
    message_catalog,
    min_snr_for_reliability,
    msg_success_prob,
)
from riscplane.errors import InvalidParameterError
from riscplane.metrics import reliability_grid

SYMBOLS = 84    # control symbols per TTI, which the expected values below assume


def catalog_by_key(catalog):
    return {(m.recipient, m.phase): m for m in catalog}


# ---------------------------------------------------------------------------
# Message catalog
# ---------------------------------------------------------------------------

def test_catalog_has_four_messages_in_order():
    catalog = message_catalog(Scheme.OCE, 100, 2, 32, 16, False, SYMBOLS)
    assert [(m.recipient, m.phase) for m in catalog] == [
        (Recipient.UE, PhaseKind.INI),
        (Recipient.RISC, PhaseKind.INI),
        (Recipient.UE, PhaseKind.SET),
        (Recipient.RISC, PhaseKind.SET),
    ]


def test_oce_set_message_carries_full_phase_map():
    # header 16 + 100 elements * 2 bits = 216 bits
    catalog = catalog_by_key(message_catalog(Scheme.OCE, 100, 2, 32, 16, False, SYMBOLS))
    msg = catalog[(Recipient.RISC, PhaseKind.SET)]
    assert msg.payload_bits == 216
    assert msg.tti_cost == math.ceil(216 / (NOMINAL_BITS_PER_SYMBOL * SYMBOLS)) == 2


@pytest.mark.parametrize("size,expected_bits", [(32, 21), (1, 16), (33, 22), (2, 17)])
def test_bsw_set_message_carries_entry_index(size, expected_bits):
    catalog = catalog_by_key(message_catalog(Scheme.BSW, 100, 2, size, 16, False, SYMBOLS))
    assert catalog[(Recipient.RISC, PhaseKind.SET)].payload_bits == expected_bits


def test_ini_budgets_and_floors():
    catalog = catalog_by_key(message_catalog(Scheme.BSW_ES, 100, 2, 32, 16, False, SYMBOLS))
    assert catalog[(Recipient.UE, PhaseKind.INI)].payload_bits == 48
    assert catalog[(Recipient.RISC, PhaseKind.INI)].payload_bits == 32
    assert catalog[(Recipient.UE, PhaseKind.SET)].payload_bits == 32
    assert all(m.tti_cost == 1 for m in catalog.values())


def test_ini_can_carry_full_codebook_for_sweeping_schemes():
    plain = catalog_by_key(message_catalog(Scheme.BSW, 100, 2, 32, 16, False, SYMBOLS))
    full = catalog_by_key(
        message_catalog(Scheme.BSW, 100, 2, 32, 16, ini_carries_full_codebook=True,
                        symbols_per_tti=SYMBOLS))
    extra = 32 * 100 * 2
    assert (full[(Recipient.RISC, PhaseKind.INI)].payload_bits
            == plain[(Recipient.RISC, PhaseKind.INI)].payload_bits + extra)
    oce = catalog_by_key(
        message_catalog(Scheme.OCE, 100, 2, 32, 16, ini_carries_full_codebook=True,
                        symbols_per_tti=SYMBOLS))
    assert oce[(Recipient.RISC, PhaseKind.INI)].payload_bits == 32


def test_catalog_rejects_bad_counts():
    with pytest.raises(InvalidParameterError):
        message_catalog(Scheme.OCE, 0, 2, 32, 16, False, SYMBOLS)
    with pytest.raises(InvalidParameterError):
        message_catalog(Scheme.OCE, 4, 2, 32, -1, False, SYMBOLS)
    with pytest.raises(InvalidParameterError):
        message_catalog(Scheme.OCE, 4, 2, 32, 16, False, 0)


@pytest.mark.parametrize("field, value", [("n_elements", 0), ("quant_bits", 17),
                                          ("bsw_codebook_size", 0), ("bsw_codebook_size", 2.0),
                                          ("header_bits", -1), ("symbols_per_tti", 0),
                                          ("ini_carries_full_codebook", "no")])
def test_catalog_errors_name_the_config_field(field, value):
    args = dict(scheme=Scheme.BSW, n_elements=4, quant_bits=2, bsw_codebook_size=8,
                header_bits=16, ini_carries_full_codebook=False, symbols_per_tti=SYMBOLS)
    with pytest.raises(InvalidParameterError) as err:
        message_catalog(**{**args, field: value})
    assert err.value.field_name == field


def test_catalog_takes_numpy_integers():
    plain = message_catalog(Scheme.BSW, 100, 2, 32, 16, True, SYMBOLS)
    assert message_catalog(Scheme.BSW, *map(np.int64, (100, 2, 32, 16)), True, SYMBOLS) == plain


@pytest.mark.parametrize("symbols_per_tti", [1, 84, 840])
def test_tti_costs_follow_symbols_per_tti(symbols_per_tti):
    # each message takes the fewest TTIs carrying it at 2 bit/symbol, so its
    # outage threshold is at most 2^2 - 1 = 3 whatever the TTI size
    catalog = message_catalog(Scheme.OCE, 100, 2, 32, 16, False, symbols_per_tti)
    state = ControlChannelState(avg_snr_ue=1000.0, avg_snr_ris=1000.0,
                                symbols_per_tti=symbols_per_tti)
    for msg in catalog:
        assert msg.tti_cost == max(1, math.ceil(msg.payload_bits / (2 * symbols_per_tti)))
        assert msg.payload_bits <= 2 * msg.tti_cost * symbols_per_tti
    assert catalog_by_key(catalog)[(Recipient.RISC, PhaseKind.SET)].tti_cost == \
        {1: 108, 84: 2, 840: 1}[symbols_per_tti]
    assert control_reliability(catalog, state, ControlMode.IB_C) >= 0.98    # exp(-4 * 3 / 1000)


# ---------------------------------------------------------------------------
# Message success probability
# ---------------------------------------------------------------------------

def test_zero_rate_message_always_succeeds():
    assert msg_success_prob(0, 84, 0.001) == 1.0


def test_success_prob_closed_form_value():
    # rate 1 bit/symbol, threshold 2^1 - 1 = 1, mean SNR 10
    assert msg_success_prob(84, 84, 10.0) == pytest.approx(math.exp(-0.1), rel=1e-12)


def test_success_prob_matches_monte_carlo():
    rng = np.random.default_rng(2024)
    draws = rng.exponential(size=1_000_000)
    p = msg_success_prob(84, 84, 10.0)
    threshold = (2.0 ** (84 / 84) - 1.0) / 10.0
    emp = float(np.mean(draws >= threshold))
    se = math.sqrt(p * (1 - p) / draws.size)
    assert abs(emp - p) <= 3 * se


def test_success_prob_monotone_toward_one_in_snr():
    probs = [msg_success_prob(84, 84, db_to_linear(db)) for db in range(0, 61, 5)]
    assert all(b >= a for a, b in zip(probs, probs[1:]))
    assert probs[-1] > 0.999
    assert msg_success_prob(10 ** 6, 84, 10.0) == 0.0


def test_success_prob_rejects_bad_arguments():
    with pytest.raises(InvalidParameterError):
        msg_success_prob(84, 0, 10.0)
    with pytest.raises(InvalidParameterError):
        msg_success_prob(84, 84, 0.0)
    with pytest.raises(InvalidParameterError):
        msg_success_prob(-1, 84, 10.0)
    # an infinite SNR would make an infinite outage threshold's factor nan
    with pytest.raises(InvalidParameterError):
        msg_success_prob(84, 84, math.inf)
    with pytest.raises(InvalidParameterError):
        ControlChannelState(avg_snr_ue=math.inf, avg_snr_ris=10.0, symbols_per_tti=SYMBOLS)


# ---------------------------------------------------------------------------
# End-to-end control reliability
# ---------------------------------------------------------------------------

def test_out_of_band_reliability_is_ue_product():
    catalog = message_catalog(Scheme.OCE, 100, 2, 32, 16, False, SYMBOLS)
    state = ControlChannelState(avg_snr_ue=10.0, avg_snr_ris=10.0, symbols_per_tti=SYMBOLS)
    expected = 1.0
    for msg in catalog:
        if msg.recipient is Recipient.UE:
            expected *= msg_success_prob(msg.payload_bits, msg.tti_cost * 84, 10.0)
    assert control_reliability(catalog, state, ControlMode.OB_C) == pytest.approx(expected)


def test_in_band_reliability_is_product_of_four():
    catalog = message_catalog(Scheme.BSW, 100, 2, 32, 16, False, SYMBOLS)
    state = ControlChannelState(avg_snr_ue=8.0, avg_snr_ris=3.0, symbols_per_tti=SYMBOLS)
    expected = 1.0
    for msg in catalog:
        snr = 8.0 if msg.recipient is Recipient.UE else 3.0
        expected *= msg_success_prob(msg.payload_bits, msg.tti_cost * 84, snr)
    assert control_reliability(catalog, state, ControlMode.IB_C) == pytest.approx(expected)


def test_reliability_matches_joint_monte_carlo():
    catalog = message_catalog(Scheme.OCE, 100, 2, 32, 16, False, SYMBOLS)
    snr = db_to_linear(30.0)
    state = ControlChannelState(avg_snr_ue=snr, avg_snr_ris=snr, symbols_per_tti=SYMBOLS)
    p = control_reliability(catalog, state, ControlMode.IB_C)
    rng = np.random.default_rng(99)
    n = 200_000
    ok = np.ones(n, dtype=bool)
    for msg in catalog:
        threshold = (2.0 ** (msg.payload_bits / (msg.tti_cost * 84)) - 1.0) / snr
        ok &= rng.exponential(size=n) >= threshold
    emp = float(np.mean(ok))
    se = math.sqrt(p * (1 - p) / n)
    assert abs(emp - p) <= 3 * se


def test_out_of_band_equals_in_band_when_risc_messages_are_free():
    # the dominance of out-of-band control collapses to equality exactly when
    # the controller-bound messages cannot fail
    from riscplane.control import ControlMessage
    catalog = [
        ControlMessage(Recipient.UE, PhaseKind.INI, 48, 1),
        ControlMessage(Recipient.RISC, PhaseKind.INI, 0, 1),
        ControlMessage(Recipient.UE, PhaseKind.SET, 32, 1),
        ControlMessage(Recipient.RISC, PhaseKind.SET, 0, 1),
    ]
    state = ControlChannelState(avg_snr_ue=5.0, avg_snr_ris=2.0, symbols_per_tti=SYMBOLS)
    ob = control_reliability(catalog, state, ControlMode.OB_C)
    ib = control_reliability(catalog, state, ControlMode.IB_C)
    assert ob == ib


def test_reliability_rejects_wrong_catalog_size():
    catalog = message_catalog(Scheme.OCE, 100, 2, 32, 16, False, SYMBOLS)
    state = ControlChannelState(avg_snr_ue=10.0, avg_snr_ris=10.0, symbols_per_tti=SYMBOLS)
    with pytest.raises(InvalidParameterError):
        control_reliability(catalog[:3], state, ControlMode.IB_C)


# ---------------------------------------------------------------------------
# Minimum SNR search
# ---------------------------------------------------------------------------

def single_message_catalog():
    # one real UE message, three zero-bit fillers
    from riscplane.control import ControlMessage
    return [
        ControlMessage(Recipient.UE, PhaseKind.INI, 84, 1),
        ControlMessage(Recipient.RISC, PhaseKind.INI, 0, 1),
        ControlMessage(Recipient.UE, PhaseKind.SET, 0, 1),
        ControlMessage(Recipient.RISC, PhaseKind.SET, 0, 1),
    ]


def test_min_snr_single_message_analytic_inversion():
    # exp(-1/snr) >= 0.99  =>  snr = 1/ln(1/0.99) = 99.499 linear = 19.978 dB
    got = min_snr_for_reliability(single_message_catalog(), 0.99, 10.0,
                                  Recipient.UE, ControlMode.IB_C, SYMBOLS)
    expected = 10 * math.log10(1.0 / math.log(1.0 / 0.99))
    assert got == pytest.approx(expected, abs=0.02)
    assert got == pytest.approx(19.98, abs=0.02)


def test_min_snr_tiny_target_returns_search_floor():
    # reliability at the -20 dB floor is exp(-100) ~ 3.7e-44, so any target
    # below that is met by the whole search range
    got = min_snr_for_reliability(single_message_catalog(), 1e-45, 10.0,
                                  Recipient.UE, ControlMode.IB_C, SYMBOLS)
    assert got == SNR_FLOOR_DB


def test_min_snr_out_of_band_ris_axis_is_floor():
    catalog = message_catalog(Scheme.OCE, 100, 2, 32, 16, False, SYMBOLS)
    got = min_snr_for_reliability(catalog, 0.99, db_to_linear(30.0),
                                  Recipient.RISC, ControlMode.OB_C, SYMBOLS)
    assert got == SNR_FLOOR_DB


def test_min_snr_unreachable_returns_sentinel():
    got = min_snr_for_reliability(single_message_catalog(), 0.999999999999,
                                  10.0, Recipient.UE, ControlMode.IB_C, SYMBOLS)
    assert math.isinf(got)


def test_min_snr_rejects_bad_target():
    for target in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(InvalidParameterError):
            min_snr_for_reliability(single_message_catalog(), target, 10.0,
                                    Recipient.UE, ControlMode.IB_C, SYMBOLS)


@pytest.mark.parametrize("symbols_per_tti", [0, -84, 2.5, True])
@pytest.mark.parametrize("public", ["reliability_grid", "min_snr_for_reliability"])
def test_reliability_functions_reject_bad_symbols_per_tti(public, symbols_per_tti):
    # 0 divided by zero and -84 gave a reliability above 1; the thresholds now check it
    catalog = message_catalog(Scheme.OCE, 100, 2, 32, 16, False, SYMBOLS)
    with pytest.raises(InvalidParameterError) as err:
        if public == "reliability_grid":
            reliability_grid(catalog, ControlMode.IB_C, [10.0], [10.0], symbols_per_tti)
        else:
            min_snr_for_reliability(catalog, 0.99, 10.0, Recipient.UE, ControlMode.IB_C,
                                    symbols_per_tti)
    assert err.value.field_name == "symbols_per_tti"


def test_scheme_ordering_in_band_ris_threshold():
    # the full phase map costs OCE a strictly higher RIS-side SNR than the
    # index signaling of beam sweeping
    fixed_ue = db_to_linear(30.0)
    oce = min_snr_for_reliability(message_catalog(Scheme.OCE, 100, 2, 32, 16, False, SYMBOLS),
                                  0.99, fixed_ue, Recipient.RISC, ControlMode.IB_C, SYMBOLS)
    bsw = min_snr_for_reliability(message_catalog(Scheme.BSW, 100, 2, 32, 16, False, SYMBOLS),
                                  0.99, fixed_ue, Recipient.RISC, ControlMode.IB_C, SYMBOLS)
    assert oce > bsw


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("axis", list(Recipient))
@pytest.mark.parametrize("mode", list(ControlMode))
@pytest.mark.parametrize("target", [0.9, 0.99, 0.999])
def test_min_snr_closed_form_is_exact(scheme, axis, mode, target):
    catalog = message_catalog(scheme, 100, 2, 32, 16, False, SYMBOLS)
    fixed = db_to_linear(30.0)
    got = min_snr_for_reliability(catalog, target, fixed, axis, mode, SYMBOLS)

    def reliability(snr_db):
        snr = db_to_linear(snr_db)
        ue, ris = (snr, fixed) if axis is Recipient.UE else (fixed, snr)
        return control_reliability(catalog, ControlChannelState(ue, ris, SYMBOLS), mode)

    if got == SNR_FLOOR_DB:
        assert reliability(SNR_FLOOR_DB) >= target * (1 - 1e-12)
    elif math.isinf(got):
        assert reliability(SNR_CAP_DB) < target
    else:
        assert reliability(got) >= target * (1 - 1e-12)
        assert reliability(got - 0.001) < target


def test_ue_threshold_equal_across_schemes_out_of_band():
    fixed_ris = db_to_linear(30.0)
    oce = min_snr_for_reliability(message_catalog(Scheme.OCE, 100, 2, 32, 16, False, SYMBOLS),
                                  0.99, fixed_ris, Recipient.UE, ControlMode.OB_C, SYMBOLS)
    bsw = min_snr_for_reliability(message_catalog(Scheme.BSW, 100, 2, 32, 16, False, SYMBOLS),
                                  0.99, fixed_ris, Recipient.UE, ControlMode.OB_C, SYMBOLS)
    assert oce == pytest.approx(bsw, abs=0.01)
