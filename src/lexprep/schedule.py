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
DEFAULT_BETA1 = 0.9
DEFAULT_BETA2 = 0.98
DEFAULT_EPSILON = 1e-6
DEFAULT_WEIGHT_DECAY = 0.01
DEFAULT_BATCH_SIZE = 16
DEFAULT_GRAD_ACCUM = 4
DEFAULT_EPOCHS = 2


class TrainConfig(FrozenValue):
    """Optimizer and schedule hyperparameters for one training run."""

    __slots__ = (
        "total_steps", "lr_peak", "warmup_frac", "beta1", "beta2", "epsilon",
        "weight_decay", "batch_size", "grad_accum", "epochs",
    )

    def __init__(
        self,
        total_steps: int,
        lr_peak: float = DEFAULT_LR_PEAK,
        warmup_frac: float = DEFAULT_WARMUP_FRAC,
        beta1: float = DEFAULT_BETA1,
        beta2: float = DEFAULT_BETA2,
        epsilon: float = DEFAULT_EPSILON,
        weight_decay: float = DEFAULT_WEIGHT_DECAY,
        batch_size: int = DEFAULT_BATCH_SIZE,
        grad_accum: int = DEFAULT_GRAD_ACCUM,
        epochs: int = DEFAULT_EPOCHS,
    ):
        self._set_fields(
            total_steps, lr_peak, warmup_frac, beta1, beta2, epsilon, weight_decay,
            batch_size, grad_accum, epochs,
        )
        for name in ("total_steps", "batch_size", "grad_accum", "epochs"):
            check_type(name, getattr(self, name), int)
        for name in self.__slots__[1:7]:  # lr_peak to weight_decay
            check_type(name, getattr(self, name), int, float)
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {self.total_steps}")
        # nan passes every comparison below, and inf turns the curve to nan.
        for name in ("lr_peak", "epsilon", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lr_peak <= 0.0:
            raise ValueError(f"lr_peak must be > 0, got {self.lr_peak}")
        if not 0.0 <= self.warmup_frac < 1.0:
            raise ValueError(f"warmup_frac must be in [0, 1), got {self.warmup_frac}")
        if not 0.0 < self.beta1 < self.beta2 < 1.0:
            raise ValueError(
                f"betas must satisfy 0 < beta1 < beta2 < 1, got "
                f"({self.beta1}, {self.beta2})"
            )
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.weight_decay < 0.0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
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
