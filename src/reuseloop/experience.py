"""Episode experience: step samples from self-execution and observation.

An episode dataset keeps the two sources apart, one list each, so a
sample's source is the list that holds it. Self-execution samples come
from the agent's own attempts, failed steps included; observation samples
are unpacked from successful external behaviors, one successful sample per
observed action.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .tasks import ObservedEvent


class ExperienceSample(NamedTuple):
    """One recorded step: its 1-based index, the action, and whether it
    succeeded."""

    t: int
    action: str
    success: bool


@dataclass
class EpisodeDataset:
    """Per-episode samples, one list per source, step indices strictly
    increasing within each."""

    self_samples: list[ExperienceSample] = field(default_factory=list, init=False)
    obs_samples: list[ExperienceSample] = field(default_factory=list, init=False)

    def record_step(self, sample: ExperienceSample) -> None:
        """Append a self-execution ``sample``."""
        samples = self.self_samples
        if samples and sample.t <= samples[-1].t:
            raise ValueError(
                f"step index {sample.t} not after last recorded index {samples[-1].t}"
            )
        samples.append(sample)

    def ingest_observation(self, event: ObservedEvent) -> None:
        """Unpack a successful observed behavior into observation samples.

        Each observed action becomes one successful sample; indices continue
        after any samples already recorded from earlier observations.
        """
        if not event.success:
            raise ValueError("only successful observations can be ingested")
        start = self.obs_samples[-1].t if self.obs_samples else 0
        for offset, action in enumerate(event.action_sequence, start=1):
            self.obs_samples.append(ExperienceSample(start + offset, action, True))
