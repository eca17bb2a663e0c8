"""Warmup+cosine schedule math and the training hyperparameter set."""

import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lexprep.errors import StepOutOfRange
from lexprep.schedule import (
    TrainConfig,
    effective_batch,
    emit_schedule,
    lr_at,
    steps_for_corpus,
)


def test_default_hyperparameters():
    config = TrainConfig(total_steps=1000)
    assert config.lr_peak == 1e-4
    assert config.warmup_frac == 0.08
    assert config.batch_size == 16
    assert config.grad_accum == 4
    assert config.epochs == 2


def test_effective_batch_examples():
    assert effective_batch(TrainConfig(total_steps=10)) == 64
    assert effective_batch(TrainConfig(total_steps=10, batch_size=1, grad_accum=1)) == 1
    assert effective_batch(TrainConfig(total_steps=10, batch_size=8, grad_accum=3)) == 24


@pytest.mark.parametrize("total_steps", [100, 1000, 123457])
def test_schedule_landmarks(total_steps):
    config = TrainConfig(total_steps=total_steps)
    warmup = config.warmup_steps
    assert warmup == round(0.08 * total_steps)
    assert lr_at(0, config) == 0.0
    assert lr_at(warmup, config) == config.lr_peak
    assert lr_at(total_steps, config) == 0.0
    midpoint = warmup + (total_steps - warmup) / 2
    assert math.isclose(lr_at(midpoint, config), config.lr_peak / 2, rel_tol=1e-12)


def test_warmup_is_linear():
    config = TrainConfig(total_steps=1000)
    warmup = config.warmup_steps
    for step in range(warmup):
        assert math.isclose(
            lr_at(step, config), config.lr_peak * step / warmup, rel_tol=1e-12
        )


def test_boundary_continuity():
    for total_steps in (50, 100, 1000, 9999):
        config = TrainConfig(total_steps=total_steps)
        warmup = config.warmup_steps
        if warmup == 0:
            continue
        gap = abs(lr_at(warmup - 1, config) - lr_at(warmup, config))
        assert gap <= config.lr_peak / warmup + 1e-15


def test_unimodal():
    config = TrainConfig(total_steps=1000)
    values = [lr for _, lr in emit_schedule(config, resolution=501)]
    peaks = sum(
        1
        for i in range(1, len(values) - 1)
        if values[i - 1] < values[i] >= values[i + 1]
    )
    assert peaks == 1
    top = values.index(max(values))
    assert all(values[i] <= values[i + 1] for i in range(top))
    assert all(values[i] >= values[i + 1] for i in range(top, len(values) - 1))


def test_emit_resolution_two_returns_endpoints():
    config = TrainConfig(total_steps=777)
    assert emit_schedule(config, resolution=2) == [(0.0, 0.0), (777.0, 0.0)]


def test_emit_peak_location():
    config = TrainConfig(total_steps=1000)
    points = emit_schedule(config, resolution=1001)
    best_step, best_lr = max(points, key=lambda p: p[1])
    assert best_step == 80
    assert best_lr == config.lr_peak


def test_emit_max_near_peak_at_any_resolution():
    config = TrainConfig(total_steps=1000)
    for resolution in (2, 5, 11, 101):
        points = emit_schedule(config, resolution)
        spacing = config.total_steps / (resolution - 1)
        best_step, _ = max(points, key=lambda p: p[1])
        assert abs(best_step - config.warmup_steps) <= spacing


def test_emit_rejects_resolution_below_two():
    with pytest.raises(ValueError):
        emit_schedule(TrainConfig(total_steps=10), resolution=1)


def test_step_out_of_range():
    config = TrainConfig(total_steps=100)
    with pytest.raises(StepOutOfRange):
        lr_at(-1, config)
    with pytest.raises(StepOutOfRange):
        lr_at(101, config)


def test_no_warmup_starts_at_peak():
    config = TrainConfig(total_steps=100, warmup_frac=0.0)
    assert config.warmup_steps == 0
    assert lr_at(0, config) == config.lr_peak


def test_warmup_capped_below_total():
    config = TrainConfig(total_steps=10, warmup_frac=0.99)
    assert config.warmup_steps == 9
    assert lr_at(10, config) == 0.0


@given(st.integers(1, 10**6), st.floats(0.0, 0.99))
def test_lr_stays_in_band(total_steps, warmup_frac):
    config = TrainConfig(total_steps=total_steps, warmup_frac=warmup_frac)
    for step in {0, total_steps // 3, total_steps // 2, total_steps}:
        lr = lr_at(step, config)
        assert 0.0 <= lr <= config.lr_peak


@pytest.mark.parametrize(
    "kwargs",
    [
        {"total_steps": 0},
        {"total_steps": 10, "lr_peak": 0.0},
        {"total_steps": 10, "lr_peak": -1e-4},
        {"total_steps": 10, "warmup_frac": 1.0},
        {"total_steps": 10, "warmup_frac": -0.1},
        {"total_steps": 10, "warmup_frac": math.nan},
        {"total_steps": 10, "warmup_frac": math.inf},
        {"total_steps": -1},
        {"total_steps": 10, "batch_size": -1},
        {"total_steps": 10, "grad_accum": -1},
        {"total_steps": 10, "batch_size": 0},
        {"total_steps": 10, "grad_accum": 0},
        {"total_steps": 10, "epochs": 0},
        {"total_steps": 10, "lr_peak": math.nan},
        {"total_steps": 10, "lr_peak": math.inf},
    ],
)
def test_invalid_configs_rejected(kwargs):
    config_kwargs = dict(kwargs)
    with pytest.raises(ValueError):
        TrainConfig(**config_kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"total_steps": 10, "grad_accum": 2.5},
        {"total_steps": 10, "batch_size": math.nan},
        {"total_steps": True},
        {"total_steps": 10.0},
        {"total_steps": 10, "epochs": 2.0},
        {"total_steps": 10, "batch_size": False},
    ],
    ids=[
        "float-grad_accum",
        "nan-batch_size",
        "bool-total_steps",
        "float-total_steps",
        "float-epochs",
        "bool-batch_size",
    ],
)
def test_integer_fields_refuse_other_types(kwargs):
    with pytest.raises(TypeError):
        TrainConfig(**kwargs)


@pytest.mark.parametrize("name", ["lr_peak", "warmup_frac"])
@pytest.mark.parametrize("value", [True, False, "1e-4"], ids=["True", "False", "str"])
def test_real_fields_refuse_bools_and_strings(name, value):
    # A bool is no number: lr_peak=True once gave a curve peaking at 1.0.
    message = f"^{name} must be int or float, got {re.escape(repr(value))}$"
    with pytest.raises(TypeError, match=message):
        TrainConfig(10, **{name: value})


def test_real_fields_take_ints():
    config = TrainConfig(10, lr_peak=1, warmup_frac=0)
    assert lr_at(10, config) == 0.0 and lr_at(0, config) == 1


def test_steps_for_corpus_rounds_up():
    config = TrainConfig(total_steps=1)
    assert steps_for_corpus(64, config) == 2
    assert steps_for_corpus(65, config) == 3
    assert steps_for_corpus(1, config) == 1
    with pytest.raises(ValueError):
        steps_for_corpus(0, config)
