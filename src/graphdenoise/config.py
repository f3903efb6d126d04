"""Run configuration: defaults, flat key=value config files, CLI overrides."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import CliUsageError


@dataclass
class RunConfig:
    """Everything a command needs; defaults match the reference protocol
    (64x64 patches, K=10, 15 CG steps, s=1, 20 epochs, batch 3, lr 0.001)."""

    patch_side: int = 64
    window_radius: int = 3
    K: int = 10
    s: float = 1.0
    T: int = 15
    sigma: float = 15.0
    sigma_train: float = 15.0
    sigma_test: tuple[float, ...] = (10.0, 15.0, 25.0)
    epochs: int = 20
    batch_size: int = 3
    learning_rate: float = 0.001
    seed: int = 0
    train_dir: str = ""
    test_dir: str = ""
    checkpoint: str = ""
    out: str = ""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            floats = value if isinstance(value, tuple) else (value,)
            if not all(math.isfinite(v) for v in floats if isinstance(v, float)):
                raise CliUsageError(f"{f.name} must be finite, got {value}")
        if self.learning_rate <= 0.0:
            raise CliUsageError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.seed < 0:
            raise CliUsageError(f"seed must be >= 0, got {self.seed}")
        if not self.sigma_test:
            raise CliUsageError("sigma_test must list at least one sigma")


def _coerce(name: str, text: str, kind) -> object:
    text = text.strip()
    try:
        if kind is int:
            return int(text)
        if kind is float:
            return float(text)
        if kind is str:
            return text
        if kind is tuple:
            parts = [p for p in text.split(",") if p.strip()]
            return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise CliUsageError(f"bad value for {name}: {text!r}") from exc
    raise CliUsageError(f"cannot parse config field {name}")


_FIELD_KINDS = {f.name: type(f.default) for f in fields(RunConfig)}


def parse_config_file(path) -> dict:
    """Parse one `key = value` per line; blank lines and #-comments allowed."""
    values: dict[str, object] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliUsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELD_KINDS:
            raise CliUsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _coerce(key, value, _FIELD_KINDS[key])
    return values


def build_config(config_path: str | None, overrides: dict) -> RunConfig:
    """defaults <- config file <- CLI flags, later sources win."""
    values: dict[str, object] = {}
    if config_path:
        values.update(parse_config_file(config_path))
    for key, text in overrides.items():
        if text is None:
            continue
        values[key] = _coerce(key, str(text), _FIELD_KINDS[key])
    return RunConfig(**values)
