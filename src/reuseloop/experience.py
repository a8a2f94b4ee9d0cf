"""Episode experience: step samples from self-execution and observation.

An episode dataset keeps the two sources apart, one list each, so a
sample's source is the list that holds it. Each list is a run of rollouts,
and every rollout is numbered from step 1: a ``collect`` of the agent's
own attempt, failed steps included, or one successful observed behavior,
one successful sample per observed action. So k rollouts of one source
hold k samples at an index, and ``learner._tally`` counts every sample at
an index, whichever rollout and source it came from: the rollouts vote
per index.
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
    """Per-episode samples, one list per source, each a run of rollouts
    numbered from step 1."""

    self_samples: list[ExperienceSample] = field(default_factory=list, init=False)
    obs_samples: list[ExperienceSample] = field(default_factory=list, init=False)

    def record_step(self, sample: ExperienceSample) -> None:
        """Append a self-execution ``sample``."""
        self.self_samples.append(sample)

    def ingest_observation(self, event: ObservedEvent) -> None:
        """Unpack a successful observed behavior into observation samples.

        Each observed action becomes one successful sample, numbered from
        step 1 like every rollout.
        """
        if not event.success:
            raise ValueError("only successful observations can be ingested")
        self.obs_samples += [
            ExperienceSample(t, action, True) for t, action in enumerate(event.action_sequence, 1)
        ]
