"""Control-message catalog, outage reliability and SNR threshold search.

Each frame needs four control messages: two initialization messages (to the
UE and to the surface controller) and two setup messages carrying the rate
selection and the configuration to load. Message decoding is modeled as
quasi-static Rayleigh outage: a message of `b` bits over `s` symbols on a
channel with average SNR `gamma` succeeds with probability

    exp(-(2^(b/s) - 1) / gamma)

which is the probability that the instantaneous capacity of an
exponentially distributed channel power exceeds the message rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidParameterError


class Scheme(Enum):
    OCE = "oce"          # estimate the channel, adapt the rate
    BSW = "bsw"          # sweep a fixed codebook against a preset SNR target
    BSW_ES = "bsw-es"    # beam sweep with early stopping


class ControlMode(Enum):
    IB_C = "ib"          # surface control shares the data-plane spectrum
    OB_C = "ob"          # surface control on a dedicated error-free channel


class Recipient(Enum):
    UE = "ue"
    RISC = "risc"


class MsgPhase(Enum):
    INI = "ini"
    SET = "set"


# Fixed descriptor field sizes (bits).
PILOT_SCHEDULE_BITS = 32
CODEBOOK_ID_BITS = 16
MCS_FIELD_BITS = 16

# Message TTI costs assume a nominal 2 bit/symbol control rate over the 84
# control symbols of a TTI (12 subcarriers x 7 OFDM symbols per 0.5 ms).
CONTROL_BITS_PER_TTI = 168

# Search window for minimum-SNR queries (dB).
SNR_FLOOR_DB = -20.0
SNR_CAP_DB = 60.0


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


@dataclass(frozen=True)
class ControlMessage:
    recipient: Recipient
    phase: MsgPhase
    payload_bits: int
    tti_cost: int    # TTIs the message occupies on its own channel

    def __post_init__(self):
        if self.payload_bits < 0:
            raise InvalidParameterError("payload_bits must be >= 0")
        if self.tti_cost < 1:
            raise InvalidParameterError("tti_cost must be >= 1")


@dataclass(frozen=True)
class ControlChannelState:
    """Average link quality of the two control channels (linear SNR)."""

    avg_snr_ue: float
    avg_snr_ris: float
    symbols_per_tti: int

    def __post_init__(self):
        if not (self.avg_snr_ue > 0 and self.avg_snr_ris > 0):
            raise InvalidParameterError("control channel SNRs must be > 0")
        if self.symbols_per_tti < 1:
            raise InvalidParameterError("symbols_per_tti must be >= 1")


def _tti_cost(payload_bits: int) -> int:
    return max(1, -(-payload_bits // CONTROL_BITS_PER_TTI))


def message_catalog(
    scheme: Scheme,
    n_elements: int,
    quant_bits: int,
    codebook_size: int,
    header_bits: int,
    ini_carries_full_codebook: bool,
) -> list[ControlMessage]:
    """The four control messages of one frame, in transmission order.

    Bit budgets: both INI messages carry a header plus a fixed descriptor
    (pilot schedule for the UE, codebook id for the controller); the UE SET
    message carries the rate selection; the controller SET message carries
    the full per-element phase map under OCE (N * quant_bits core bits) and
    only the integer index of the chosen entry under beam sweeping
    (ceil(log2 C) core bits).
    """
    if n_elements < 1 or quant_bits < 1 or codebook_size < 1:
        raise InvalidParameterError("n_elements, quant_bits, codebook_size must be >= 1")
    if header_bits < 0:
        raise InvalidParameterError("header_bits must be >= 0")

    ini_risc_bits = header_bits + CODEBOOK_ID_BITS
    if ini_carries_full_codebook and scheme is not Scheme.OCE:
        ini_risc_bits += codebook_size * n_elements * quant_bits

    if scheme is Scheme.OCE:
        set_risc_core = n_elements * quant_bits
    else:
        set_risc_core = (codebook_size - 1).bit_length()    # ceil(log2 C)

    budgets = [
        (Recipient.UE, MsgPhase.INI, header_bits + PILOT_SCHEDULE_BITS),
        (Recipient.RISC, MsgPhase.INI, ini_risc_bits),
        (Recipient.UE, MsgPhase.SET, header_bits + MCS_FIELD_BITS),
        (Recipient.RISC, MsgPhase.SET, header_bits + set_risc_core),
    ]
    return [
        ControlMessage(recipient=r, phase=p, payload_bits=b, tti_cost=_tti_cost(b))
        for r, p, b in budgets
    ]


def msg_success_prob(payload_bits: int, symbols: int, avg_snr: float) -> float:
    """Probability that one message decodes under quasi-static Rayleigh fading."""
    if symbols < 1:
        raise InvalidParameterError("symbols must be >= 1")
    if not avg_snr > 0:
        raise InvalidParameterError("avg_snr must be > 0")
    if payload_bits < 0:
        raise InvalidParameterError("payload_bits must be >= 0")
    rate = payload_bits / symbols
    if rate > 1000.0:    # 2^rate overflows a double; outage is certain anyway
        return 0.0
    threshold = 2.0 ** rate - 1.0
    return math.exp(-threshold / avg_snr)


def control_reliability(
    catalog: list[ControlMessage],
    state: ControlChannelState,
    mode: ControlMode,
) -> float:
    """Probability that all four control messages of a frame decode.

    Messages see independent fading draws. UE-bound messages always ride the
    in-band UE control channel; controller-bound messages use the in-band
    surface control channel under IB-C and an idealized error-free channel
    under OB-C.
    """
    if len(catalog) != 4:
        raise InvalidParameterError("catalog must contain exactly 4 messages")
    prob = 1.0
    for msg in catalog:
        if msg.recipient is Recipient.RISC and mode is ControlMode.OB_C:
            continue
        snr = state.avg_snr_ue if msg.recipient is Recipient.UE else state.avg_snr_ris
        symbols = msg.tti_cost * state.symbols_per_tti
        prob *= msg_success_prob(msg.payload_bits, symbols, snr)
    return prob


def min_snr_for_reliability(
    catalog: list[ControlMessage],
    target: float,
    fixed_other_snr: float,
    which_axis: Recipient,
    mode: ControlMode,
    symbols_per_tti: int,
) -> float:
    """Smallest average SNR (dB) on one axis reaching the reliability target.

    Bisection to 0.01 dB over [SNR_FLOOR_DB, SNR_CAP_DB]; returns the search
    floor when any SNR suffices and math.inf when the target is unreachable
    below the cap. Relies on reliability being monotone in the searched SNR.
    """
    if not 0.0 < target < 1.0:
        raise InvalidParameterError("target must be in (0, 1)")
    if not fixed_other_snr > 0:
        raise InvalidParameterError("fixed_other_snr must be > 0")

    def rel_at(x_db: float) -> float:
        v = db_to_linear(x_db)
        ue = v if which_axis is Recipient.UE else fixed_other_snr
        ris = v if which_axis is Recipient.RISC else fixed_other_snr
        state = ControlChannelState(avg_snr_ue=ue, avg_snr_ris=ris,
                                    symbols_per_tti=symbols_per_tti)
        return control_reliability(catalog, state, mode)

    if rel_at(SNR_FLOOR_DB) >= target:
        return SNR_FLOOR_DB
    if rel_at(SNR_CAP_DB) < target:
        return math.inf
    lo, hi = SNR_FLOOR_DB, SNR_CAP_DB
    while hi - lo > 0.01:
        mid = 0.5 * (lo + hi)
        if rel_at(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi
