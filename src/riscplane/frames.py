"""TTI-granular frame timelines for the three control schemes.

A frame is INI -> ALG -> SET -> PAY. The INI and SET phases carry the
control messages, the ALG phase holds the pilot sweep plus processing, and
whatever time is left goes to PAY. Out-of-band control messages overlap the
in-band timeline and cost no frame TTIs; the surface reconfiguration time
always elapses on the frame timeline regardless of control mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .channel import check_counts
from .control import ControlMessage, ControlMode, PhaseKind, Scheme, out_of_band
from .errors import InvalidParameterError, check_bool, check_int, check_positive

# Most TTIs a frame (and, by RunConfig's check, a frame overhead) may span. A
# 4096-trial chunk (metrics.CHUNK_TRIALS) then sums at most 2^52 payload or
# overhead TTIs per frame, which int64 holds and float64 represents exactly.
# The run adds the chunks' overhead sums in float64, so a curve's total
# rounds once it passes 2^53 TTIs (more than 8,192 trials at this bound).
MAX_FRAME_TTIS = 2 ** 40


class ChannelUse(Enum):
    IN_BAND = "in_band"
    OUT_OF_BAND = "out_of_band"
    NONE = "none"    # elapsing frame time with no transmission (processing, reconfiguration)


@dataclass(frozen=True)
class FramePhase:
    kind: PhaseKind
    tti_span: int
    channel_usage: ChannelUse

    def __post_init__(self):
        check_int("tti_span", self.tti_span, 0)


@dataclass(frozen=True)
class FramePlan:
    """Ordered timeline of one frame.

    Every span except OUT_OF_BAND ones elapses on the frame timeline, so
    those spans must sum to total_ttis. Phase ordering is checked separately
    by validate_causality so that hand-built invalid plans can be expressed.
    """

    tti_ms: float
    phases: tuple[FramePhase, ...]
    total_ttis: int

    def __post_init__(self):
        inband = sum(p.tti_span for p in self.phases
                     if p.channel_usage is not ChannelUse.OUT_OF_BAND)
        if inband != self.total_ttis:
            raise InvalidParameterError(
                "total_ttis", f"is {self.total_ttis}, but the in-band spans sum to {inband}")

    def span(self, kind: PhaseKind) -> int:
        """Total in-band TTIs of one phase kind."""
        return sum(p.tti_span for p in self.phases
                   if p.kind is kind and p.channel_usage is not ChannelUse.OUT_OF_BAND)

    @property
    def pay_ttis(self) -> int:
        return self.span(PhaseKind.PAY)

    @property
    def frame_ms(self) -> float:
        return self.total_ttis * self.tti_ms


@dataclass(frozen=True)
class SchemeParams:
    scheme: Scheme
    n_elements: int
    bsw_codebook_size: int
    quant_bits: int
    proc_ttis: int          # ALG processing time
    switch_ttis: int        # surface configuration load time
    es_reservation: bool    # reserve a SET slot after each sweep evaluation

    def __post_init__(self):
        check_counts(self.n_elements, self.quant_bits, self.bsw_codebook_size)
        check_int("proc_ttis", self.proc_ttis, 0)
        check_int("switch_ttis", self.switch_ttis, 1)
        check_bool("es_reservation", self.es_reservation)


@dataclass(frozen=True)
class CausalityViolation:
    """Names the phase pair whose ordering breaks the causality constraint."""

    pair: tuple[PhaseKind, PhaseKind]
    detail: str


def alg_ttis(params: SchemeParams, stop_index: Optional[int] = None) -> int:
    """In-band ALG span of a scheme.

    OCE sweeps one pilot TTI per element, beam sweeping one per codebook
    entry, both followed by the processing time. Early stopping spends one
    pilot plus one reserved SET opportunity per evaluated entry and ends at
    stop_index (None means the sweep was exhausted).
    """
    if params.scheme is Scheme.OCE:
        return params.n_elements + params.proc_ttis
    if params.scheme is Scheme.BSW:
        return params.bsw_codebook_size + params.proc_ttis
    evals = params.bsw_codebook_size if stop_index is None else stop_index
    per_eval = 2 if params.es_reservation else 1
    return per_eval * evals


def frame_ttis(frame_ms: float, tti_ms: float) -> int:
    """A frame's whole number of TTIs, 1 to MAX_FRAME_TTIS; errors name tti_ms or frame_grid."""
    check_positive("tti_ms", tti_ms)
    if not frame_ms > 0:
        raise InvalidParameterError("frame_grid", f"{frame_ms} ms must be > 0")
    ratio = frame_ms / tti_ms
    if not ratio <= MAX_FRAME_TTIS:     # also catches an infinite ratio
        raise InvalidParameterError("frame_grid", f"{frame_ms} ms is over {MAX_FRAME_TTIS} TTIs")
    total = round(ratio)
    if abs(ratio - total) > 1e-9 or total < 1:
        raise InvalidParameterError("frame_grid", f"{frame_ms} ms is not a positive multiple of "
                                    f"tti_ms = {tti_ms}")
    return total


def _overhead_phases(
    params: SchemeParams,
    mode: ControlMode,
    catalog: list[ControlMessage],
    stop_index: Optional[int],
) -> list[FramePhase]:
    """The unclamped INI, ALG and SET phases of a frame, in timeline order.

    INI and SET messages are split into in-band and out-of-band spans, and
    processing and reconfiguration elapse with no transmission.
    """
    def messages(phase: PhaseKind) -> list[FramePhase]:
        spans = {ChannelUse.IN_BAND: 0, ChannelUse.OUT_OF_BAND: 0}
        for msg in catalog:
            if msg.phase is phase:
                use = ChannelUse.OUT_OF_BAND if out_of_band(msg, mode) else ChannelUse.IN_BAND
                spans[use] += msg.tti_cost
        return [FramePhase(phase, span, use) for use, span in spans.items()]

    proc = 0 if params.scheme is Scheme.BSW_ES else params.proc_ttis
    return [
        *messages(PhaseKind.INI),
        FramePhase(PhaseKind.ALG, alg_ttis(params, stop_index) - proc, ChannelUse.IN_BAND),
        FramePhase(PhaseKind.ALG, proc, ChannelUse.NONE),
        *messages(PhaseKind.SET),
        FramePhase(PhaseKind.SET, params.switch_ttis, ChannelUse.NONE),
    ]


def overhead_ttis(
    params: SchemeParams,
    mode: ControlMode,
    catalog: list[ControlMessage],
    stop_index: Optional[int] = None,
) -> int:
    """Frame TTIs consumed before PAY can start (unclamped).

    stop_index = 0 gives a BSW_ES frame's overhead without any evaluation;
    goodput_columns adds each trial's evaluations to it. build_frame rejects
    that value.
    """
    return sum(p.tti_span for p in _overhead_phases(params, mode, catalog, stop_index)
               if p.channel_usage is not ChannelUse.OUT_OF_BAND)


def build_frame(
    params: SchemeParams,
    mode: ControlMode,
    frame_ms: float,
    tti_ms: float,
    catalog: list[ControlMessage],
    stop_index: Optional[int] = None,
) -> FramePlan:
    """Assemble the INI/ALG/SET/PAY timeline of one frame.

    When the control phases do not fit, they are truncated at the frame
    boundary and PAY gets span 0 (the null-rate condition).
    """
    if stop_index is not None:
        if params.scheme is not Scheme.BSW_ES:
            raise InvalidParameterError("stop_index", "is only meaningful for BSW_ES")
        if not 1 <= stop_index <= params.bsw_codebook_size:
            raise InvalidParameterError("stop_index", "must be in [1, bsw_codebook_size]")
    total = frame_ttis(frame_ms, tti_ms)
    timeline, budget = [], total
    for phase in _overhead_phases(params, mode, catalog, stop_index):
        if phase.channel_usage is not ChannelUse.OUT_OF_BAND:
            phase = FramePhase(phase.kind, min(phase.tti_span, budget), phase.channel_usage)
            budget -= phase.tti_span
        if phase.tti_span > 0:
            timeline.append(phase)
    timeline.append(FramePhase(PhaseKind.PAY, budget, ChannelUse.IN_BAND))
    return FramePlan(tti_ms=tti_ms, phases=tuple(timeline), total_ttis=total)


def validate_causality(plan: FramePlan) -> Optional[CausalityViolation]:
    """Check that configurations are computed and signaled before use.

    Returns None when the plan is causally valid, otherwise a violation
    naming the offending phase pair: (ALG, SET) when configuration signaling
    precedes the algorithmic phase that computes it, (PAY, SET) when a
    configuration-consuming payload phase precedes its setup signaling.
    """
    seen_set = False
    for ph in plan.phases:
        if ph.kind is PhaseKind.SET:
            seen_set = True
        elif ph.kind is PhaseKind.ALG and seen_set:
            return CausalityViolation(
                pair=(PhaseKind.ALG, PhaseKind.SET),
                detail="SET signaling scheduled before the ALG phase computing its content",
            )
    seen_set = False
    for ph in plan.phases:
        if ph.kind is PhaseKind.SET:
            seen_set = True
        elif ph.kind is PhaseKind.PAY and ph.tti_span > 0 and not seen_set:
            return CausalityViolation(
                pair=(PhaseKind.PAY, PhaseKind.SET),
                detail="payload phase scheduled before the SET phase loading its configuration",
            )
    return None


def overhead_ms(plan: FramePlan) -> float:
    """Frame time not spent on payload."""
    return (plan.total_ttis - plan.pay_ttis) * plan.tti_ms
