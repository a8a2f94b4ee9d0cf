"""Episode experience: step samples from self-execution and observation.

An episode dataset keeps the two sources apart. Self-execution samples come
from the agent's own attempts, failed steps included; observation samples
are unpacked from successful external behaviors, one successful sample per
observed action.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .tasks import ObservedEvent

SOURCE_SELF = "self"
SOURCE_OBSERVED = "observed"
SOURCES = (SOURCE_SELF, SOURCE_OBSERVED)


@dataclass(frozen=True)
class ExperienceSample:
    """One recorded step: its 1-based index, the action, whether it
    succeeded, and where the sample came from."""

    t: int
    action: str
    success: bool
    source: str

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("step index t must be >= 1")
        if self.source not in SOURCES:
            raise ValueError(f"unknown sample source {self.source!r}")


@dataclass
class EpisodeDataset:
    """Per-episode samples, split by source, step indices strictly increasing."""

    self_samples: list[ExperienceSample] = field(default_factory=list, init=False)
    obs_samples: list[ExperienceSample] = field(default_factory=list, init=False)

    def record_step(self, sample: ExperienceSample) -> "EpisodeDataset":
        """Append ``sample`` to the list matching its source."""
        target = self.self_samples if sample.source == SOURCE_SELF else self.obs_samples
        if target and sample.t <= target[-1].t:
            raise ValueError(
                f"step index {sample.t} not after last recorded index {target[-1].t}"
            )
        target.append(sample)
        return self

    def ingest_observation(self, event: ObservedEvent) -> "EpisodeDataset":
        """Unpack a successful observed behavior into observation samples.

        Each observed action becomes one successful sample; indices continue
        after any samples already recorded from earlier observations.
        """
        if not event.success:
            raise ValueError("only successful observations can be ingested")
        start = self.obs_samples[-1].t if self.obs_samples else 0
        for offset, action in enumerate(event.action_sequence, start=1):
            self.obs_samples.append(ExperienceSample(start + offset, action, True, SOURCE_OBSERVED))
        return self
