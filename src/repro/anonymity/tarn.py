"""TARN-style timed random-address hopping.

TARN (Yu et al.) periodically re-randomizes the externally visible
addresses of live traffic through SDN rewrite rules, so any observer
correlating on header signatures loses the trail at every hop interval.
Expressed on this repo's data plane: every live m-flow's *interior*
addresses (everything between the pinned entry and delivery segments) are
re-drawn on a timer through the controller's repair machinery — the same
acked-install / ``remove_by_cookie`` barrier that makes failure repair
safe makes rotation hitless, and the entry/delivery pins keep both
endpoints' transport state valid across hops.
"""

from __future__ import annotations

from ..core.channel import MimicChannel
from .base import Strategy, register_strategy

__all__ = ["TarnHopping"]


@register_strategy
class TarnHopping(Strategy):
    """Rotate live flows' interior m-addresses every ``period_s`` seconds."""

    name = "tarn"
    source = "TARN (Yu et al.)"
    mechanism = (
        "timed re-draw of all interior m-addresses via the repair barrier; "
        "entry/delivery pinned"
    )
    knobs = "`period_s`, `phase_jitter`"

    def __init__(self, period_s: float = 2.0, phase_jitter: float = 0.5):
        super().__init__()
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        self.period_s = period_s
        #: fraction of a period each channel's clock is offset by (drawn
        #: from a per-channel stream) so fleet rotations don't synchronize
        self.phase_jitter = phase_jitter

    def on_established(self, channel: MimicChannel) -> None:
        """Start the channel's phase-jittered rotation clock."""
        self.mic.sim.process(
            self._hop_loop(channel), name=f"anon.tarn.ch{channel.channel_id}"
        )

    def _hop_loop(self, channel: MimicChannel):
        mic = self.mic
        sim = mic.sim
        rng = sim.rng(f"anonymity-tarn/ch{channel.channel_id}")
        phase = rng.random() * self.phase_jitter * self.period_s
        if phase:
            yield sim.timeout(phase)
        while mic.channel_of(channel.channel_id) is not None:
            yield sim.timeout(self.period_s)
            if mic.channel_of(channel.channel_id) is None:
                return
            for idx in range(len(channel.flows)):
                mic.rotate_flow(channel, idx)
