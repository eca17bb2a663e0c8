"""Learning-rate schedule math: linear warmup into cosine decay.

The schedule is a pure function of the step so trainers, plots, and tests
all read the same curve without sharing mutable state.
"""

from __future__ import annotations

import math

from .errors import StepOutOfRange, check_type
from .values import FrozenValue

DEFAULT_LR_PEAK = 1e-4
DEFAULT_WARMUP_FRAC = 0.08
DEFAULT_BATCH_SIZE = 16
DEFAULT_GRAD_ACCUM = 4
DEFAULT_EPOCHS = 2


class TrainConfig(FrozenValue):
    """Schedule and batch settings for one training run."""

    __slots__ = (
        "total_steps", "lr_peak", "warmup_frac", "batch_size", "grad_accum", "epochs",
    )

    def __init__(
        self,
        total_steps: int,
        lr_peak: float = DEFAULT_LR_PEAK,
        warmup_frac: float = DEFAULT_WARMUP_FRAC,
        batch_size: int = DEFAULT_BATCH_SIZE,
        grad_accum: int = DEFAULT_GRAD_ACCUM,
        epochs: int = DEFAULT_EPOCHS,
    ):
        self._set_fields(total_steps, lr_peak, warmup_frac, batch_size, grad_accum, epochs)
        for name in ("total_steps", "batch_size", "grad_accum", "epochs"):
            check_type(name, getattr(self, name), int)
        for name in ("lr_peak", "warmup_frac"):
            check_type(name, getattr(self, name), int, float)
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {self.total_steps}")
        # nan passes every comparison below, and inf turns the curve to nan.
        if not math.isfinite(self.lr_peak):
            raise ValueError(f"lr_peak must be finite, got {self.lr_peak}")
        if self.lr_peak <= 0.0:
            raise ValueError(f"lr_peak must be > 0, got {self.lr_peak}")
        if not 0.0 <= self.warmup_frac < 1.0:
            raise ValueError(f"warmup_frac must be in [0, 1), got {self.warmup_frac}")
        if self.batch_size < 1 or self.grad_accum < 1:
            raise ValueError("batch_size and grad_accum must be >= 1")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")

    @property
    def warmup_steps(self) -> int:
        """Warmup length: warmup_frac of total steps, rounded half up.

        Capped at total_steps - 1 so at least one decay step exists.
        """
        steps = math.floor(self.warmup_frac * self.total_steps + 0.5)
        return min(steps, self.total_steps - 1)


def effective_batch(config: TrainConfig) -> int:
    """Examples contributing to one optimizer update."""
    return config.batch_size * config.grad_accum


def lr_at(step: float, config: TrainConfig) -> float:
    """Learning rate at a (possibly fractional) step in [0, total_steps].

    Rises linearly from 0 at step 0 to the peak at the warmup boundary,
    then follows a half cosine down to exactly 0 at total_steps. The two
    segments agree at the boundary. With no warmup the curve starts at
    the peak.
    """
    if not 0.0 <= step <= config.total_steps:
        raise StepOutOfRange(f"step {step} outside [0, {config.total_steps}]")
    warmup = config.warmup_steps
    if step < warmup:
        return config.lr_peak * (step / warmup)
    progress = (step - warmup) / (config.total_steps - warmup)
    return config.lr_peak * 0.5 * (1.0 + math.cos(math.pi * progress))


def emit_schedule(
    config: TrainConfig, resolution: int = 101
) -> list[tuple[float, float]]:
    """Sample the schedule at evenly spaced steps, endpoints included."""
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    points = []
    for i in range(resolution):
        step = i * config.total_steps / (resolution - 1)
        points.append((step, lr_at(step, config)))
    return points


def steps_for_corpus(example_count: int, config: TrainConfig) -> int:
    """Optimizer updates needed to see the corpus for the configured epochs.

    Partial final batches still trigger an update, hence the ceiling.
    """
    if example_count < 1:
        raise ValueError(f"example_count must be >= 1, got {example_count}")
    return math.ceil(example_count * config.epochs / effective_batch(config))
