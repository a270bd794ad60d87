"""Control-message catalog, outage reliability and SNR thresholds.

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
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .channel import check_counts
from .errors import InvalidParameterError, check_bool, check_int, check_positive


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


class PhaseKind(Enum):
    INI = "ini"          # initialization messages
    ALG = "alg"          # pilot sweep and processing
    SET = "set"          # setup messages and the surface reconfiguration
    PAY = "pay"          # payload


# Fixed descriptor field sizes (bits).
PILOT_SCHEDULE_BITS = 32
CODEBOOK_ID_BITS = 16
MCS_FIELD_BITS = 16

# Message TTI costs assume a nominal control rate of 2 bit/symbol over the
# symbols_per_tti control symbols of a TTI (84 by default: 12 subcarriers x 7
# OFDM symbols per 0.5 ms).
NOMINAL_BITS_PER_SYMBOL = 2

# Answer window of minimum-SNR queries (dB).
SNR_FLOOR_DB = -20.0
SNR_CAP_DB = 60.0


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def positive_linear(db: float | Sequence[float], field_name: str) -> float | list[float]:
    """db_to_linear of a dB value, or a list of it over a non-empty, strictly increasing dB axis.

    Each must be positive and finite (from about -3237 to 3082 dB), else InvalidParameterError.
    """
    if isinstance(db, numbers.Real):
        return positive_linear((db,), field_name)[0]
    if len(db) == 0 or any(b <= a for a, b in zip(db, db[1:])):
        raise InvalidParameterError(field_name, "must be a non-empty, strictly increasing axis")
    linear = []
    for point in db:
        try:
            linear.append(db_to_linear(float(point)))
        except OverflowError:
            linear.append(math.inf)
        if not 0.0 < linear[-1] < math.inf:
            raise InvalidParameterError(field_name, f"{point} dB has no finite linear value > 0")
    return linear


@dataclass(frozen=True)
class ControlMessage:
    recipient: Recipient
    phase: PhaseKind
    payload_bits: int
    tti_cost: int    # TTIs the message occupies on its own channel

    def __post_init__(self):
        check_int("payload_bits", self.payload_bits, 0)
        check_int("tti_cost", self.tti_cost, 1)


@dataclass(frozen=True)
class ControlChannelState:
    """Average link quality of the two control channels (linear SNR)."""

    avg_snr_ue: float
    avg_snr_ris: float
    symbols_per_tti: int

    def __post_init__(self):
        check_positive("avg_snr_ue", self.avg_snr_ue)
        check_positive("avg_snr_ris", self.avg_snr_ris)
        check_int("symbols_per_tti", self.symbols_per_tti, 1)


def message_catalog(
    scheme: Scheme,
    n_elements: int,
    quant_bits: int,
    bsw_codebook_size: int,
    header_bits: int,
    ini_carries_full_codebook: bool,
    symbols_per_tti: int,
) -> list[ControlMessage]:
    """The four control messages of one frame, in transmission order.

    Bit budgets: both INI messages carry a header plus a fixed descriptor
    (pilot schedule for the UE, codebook id for the controller); the UE SET
    message carries the rate selection; the controller SET message carries
    the full per-element phase map under OCE (N * quant_bits core bits) and
    only the integer index of the chosen entry under beam sweeping
    (ceil(log2 C) core bits). A message occupies the fewest TTIs, at least
    one, that carry its bits at NOMINAL_BITS_PER_SYMBOL.
    """
    check_counts(n_elements, quant_bits, bsw_codebook_size)
    check_int("header_bits", header_bits, 0)
    check_int("symbols_per_tti", symbols_per_tti, 1)
    check_bool("ini_carries_full_codebook", ini_carries_full_codebook)
    bits_per_tti = NOMINAL_BITS_PER_SYMBOL * symbols_per_tti

    ini_risc_bits = header_bits + CODEBOOK_ID_BITS
    if ini_carries_full_codebook and scheme is not Scheme.OCE:
        ini_risc_bits += bsw_codebook_size * n_elements * quant_bits

    if scheme is Scheme.OCE:
        set_risc_core = n_elements * quant_bits
    else:
        # ceil(log2 C); int() because numpy integers have no bit_length
        set_risc_core = (int(bsw_codebook_size) - 1).bit_length()

    budgets = [
        (Recipient.UE, PhaseKind.INI, header_bits + PILOT_SCHEDULE_BITS),
        (Recipient.RISC, PhaseKind.INI, ini_risc_bits),
        (Recipient.UE, PhaseKind.SET, header_bits + MCS_FIELD_BITS),
        (Recipient.RISC, PhaseKind.SET, header_bits + set_risc_core),
    ]
    return [ControlMessage(recipient=r, phase=p, payload_bits=b,
                           tti_cost=max(1, -(-b // bits_per_tti)))
            for r, p, b in budgets]


def out_of_band(msg: ControlMessage, mode: ControlMode) -> bool:
    """Whether msg rides the error-free out-of-band channel: controller-bound under OB-C."""
    return msg.recipient is Recipient.RISC and mode is ControlMode.OB_C


def outage_threshold(payload_bits: int, symbols: int) -> float:
    """2^(b/s) - 1; inf above 1000 bit/symbol, where 2^rate overflows, so exp(-inf) = 0.0."""
    rate = payload_bits / symbols
    return 2.0 ** rate - 1.0 if rate <= 1000.0 else math.inf


def outage_thresholds(
    catalog: list[ControlMessage], mode: ControlMode, symbols_per_tti: int
) -> list[tuple[Recipient, float]]:
    """(recipient, outage threshold) of every message that can fail, in catalog order.

    Out-of-band messages cannot fail. A message succeeds with probability
    exp(-threshold / avg_snr) at the average SNR of its recipient's channel.
    """
    if len(catalog) != 4:
        raise InvalidParameterError("catalog", "must contain exactly 4 messages")
    check_int("symbols_per_tti", symbols_per_tti, 1)
    return [(msg.recipient, outage_threshold(msg.payload_bits, msg.tti_cost * symbols_per_tti))
            for msg in catalog if not out_of_band(msg, mode)]


def msg_success_prob(payload_bits: int, symbols: int, avg_snr: float) -> float:
    """Probability that one message decodes under quasi-static Rayleigh fading."""
    check_int("symbols", symbols, 1)
    check_positive("avg_snr", avg_snr)
    check_int("payload_bits", payload_bits, 0)
    return math.exp(-outage_threshold(payload_bits, symbols) / avg_snr)


def reliability_matrix(catalog: list[ControlMessage], mode: ControlMode, snr_ris: Sequence[float],
                       snr_ue: Sequence[float], symbols_per_tti: int) -> np.ndarray:
    """Probability that all four control messages of a frame decode, rows over linear snr_ris.

    Messages see independent fading draws; see outage_thresholds. A factor is
    computed once per point of its recipient's axis, and the factors are
    multiplied in catalog order into a matrix of ones.
    """
    matrix = np.ones((len(snr_ris), len(snr_ue)))
    for recipient, threshold in outage_thresholds(catalog, mode, symbols_per_tti):
        axis = snr_ue if recipient is Recipient.UE else snr_ris
        factor = np.array([math.exp(-threshold / snr) for snr in axis])
        matrix *= factor[None, :] if recipient is Recipient.UE else factor[:, None]
    return matrix


def control_reliability(
    catalog: list[ControlMessage],
    state: ControlChannelState,
    mode: ControlMode,
) -> float:
    """reliability_matrix at the one SNR pair of state."""
    return float(reliability_matrix(catalog, mode, [state.avg_snr_ris], [state.avg_snr_ue],
                                    state.symbols_per_tti)[0, 0])


def min_snr_for_reliability(
    catalog: list[ControlMessage],
    target: float,
    fixed_other_snr: float,
    which_axis: Recipient,
    mode: ControlMode,
    symbols_per_tti: int,
) -> float:
    """Smallest average SNR (dB) on one axis reaching the reliability target.

    Reliability is exp(-A / snr - B / fixed_other_snr), where A and B sum the
    outage thresholds of the messages on the searched and on the other axis,
    so the answer is the exact inverse snr = A / (-ln target - B /
    fixed_other_snr). Returns SNR_FLOOR_DB when any SNR from the floor up
    suffices and math.inf when no SNR up to SNR_CAP_DB does.
    """
    if not 0.0 < target < 1.0:
        raise InvalidParameterError("target", "must be in (0, 1)")
    check_positive("fixed_other_snr", fixed_other_snr)
    thresholds = outage_thresholds(catalog, mode, symbols_per_tti)
    axis = sum(t for recipient, t in thresholds if recipient is which_axis)
    other = sum(t for recipient, t in thresholds if recipient is not which_axis)
    slack = -math.log(target) - other / fixed_other_snr
    if axis / db_to_linear(SNR_FLOOR_DB) <= slack:
        return SNR_FLOOR_DB
    if slack <= 0.0:
        return math.inf
    snr_db = 10.0 * math.log10(axis / slack)
    return snr_db if snr_db <= SNR_CAP_DB else math.inf
