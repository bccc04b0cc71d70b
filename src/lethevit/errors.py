"""Exception hierarchy shared by every lethevit module.

Errors are split along the CLI exit-code boundary: ConfigError and its
subclasses signal bad user input (exit 2), everything else under
LetheError signals a runtime failure (exit 1).
"""

import dataclasses
import math


class LetheError(Exception):
    """Base class for all lethevit errors."""


class ConfigError(LetheError):
    """Invalid configuration value or missing config key."""


def require_finite(config) -> None:
    """Raise ConfigError naming the first float field of the dataclass
    `config` that holds NaN or an infinity."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{type(config).__name__}.{f.name} must be finite, got {value}")


def require_nonnegative(value: float, name: str) -> None:
    """Raise ConfigError naming `name` when `value` is negative: numpy's
    PCG64 generators take no negative seed, and SGD (as PyTorch's) no
    negative momentum or weight decay."""
    if value < 0:
        raise ConfigError(f"{name} must be >= 0, got {value}")


class DimensionError(LetheError):
    """Tensor shapes incompatible with the requested operation."""


class LabelError(LetheError):
    """Class label outside the valid range."""


class ContractError(LetheError):
    """An operation precondition was violated (e.g. non-scalar loss)."""


class DegenerateVectorError(LetheError):
    """Cosine similarity requested for a (near-)zero-norm vector."""


class NonFiniteError(LetheError):
    """A NaN or Inf appeared at an operation boundary."""


class DivergenceError(LetheError):
    """A training step produced a non-finite value: its loss, a gradient,
    the parameter update or a teacher forward. Names the phase and step;
    the detail says which value."""

    def __init__(self, phase: str, step: int, detail: str = ""):
        self.phase = phase
        self.step = step
        msg = f"non-finite value in phase '{phase}' at step {step}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class FormatError(LetheError):
    """A persisted file failed validation; names the byte offset."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (byte offset {offset})")
