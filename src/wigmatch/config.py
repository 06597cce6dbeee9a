"""Run configuration: flat key=value files with CLI-flag overrides.

The RunConfig field types are the only schema: the config-file parser and
the CLI flags are both derived from them.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, fields

from .errors import ParameterError
from .model import STRATEGIES
from .rng import derive_streams

MODES = ("oracle-seed",)
CHOICES = {
    "strategy": STRATEGIES,
    "mode": MODES,
    "spectral_mode": ("record", "strict"),
    "selection_rule": ("scan-order", "max-stat"),
}


@dataclass
class RunConfig:
    n: int = 400
    rho: float = 0.9
    epsilon: float = 0.0
    strategy: str = "planted-clique-weight"
    k0: int = 24
    gamma: float | None = None          # None -> 4 / k0
    min_rounds: int = 0                 # 0 -> stop at t_star
    xi_factor: int = 12
    denoiser_b: float = 1.0
    master_seed: int = 0
    mode: str = "oracle-seed"          # the one mode; kept in every record
    spectral_mode: str = "record"
    selection_rule: str = "scan-order"
    trials: int = 1
    threshold_mult: float = 10.0
    clique_weight: float = 5.0
    spike_scale: float | None = None    # None -> 20 sqrt(n)
    max_resamples: int = 64
    max_swaps: int | None = None        # None -> 10 n
    bad_seed_candidates: int = 0
    random_candidates: int = 0
    output: str | None = None           # JSON manifest path
    dump_dir: str | None = None         # score matrix / assignment dumps
    trace_cleaning: bool = False
    verbose: bool = False

    def validate(self) -> "RunConfig":
        for name, (base, _) in FIELD_TYPES.items():
            value = getattr(self, name)
            if base is float and value is not None and not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        if self.n < 2:
            raise ParameterError(f"n must be >= 2, got {self.n}")
        if not (0.0 < self.rho <= 1.0):
            raise ParameterError(f"rho must lie in (0, 1], got {self.rho}")
        if not (0.0 <= self.epsilon < 1.0):
            raise ParameterError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ParameterError(
                    f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        if self.k0 < 12:
            raise ParameterError(f"k0 must be >= 12, got {self.k0}")
        if self.k0 >= self.n:
            raise ParameterError("k0 must be smaller than n")
        for name in ("min_rounds", "max_resamples", "max_swaps",
                     "bad_seed_candidates", "random_candidates"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ParameterError(f"{name} must be >= 0, got {value}")
        if not self.threshold_mult > 0.0:
            raise ParameterError(f"threshold_mult must be > 0, got {self.threshold_mult}")
        if self.trials < 1:
            raise ParameterError("trials must be >= 1")
        if self.xi_factor < 1:
            raise ParameterError("xi_factor must be >= 1")
        return self

    @property
    def max_swaps_value(self) -> int:
        return self.max_swaps if self.max_swaps is not None else 10 * self.n

    def stream_seeds(self) -> dict[str, int]:
        return derive_streams(self.master_seed)

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            out[f.name] = getattr(self, f.name)
        return out


def _field_types() -> dict[str, tuple[type, bool]]:
    """Each RunConfig field's base type and whether it may be None."""
    out = {}
    for name, hint in typing.get_type_hints(RunConfig).items():
        args = typing.get_args(hint)
        base = next((a for a in args if a is not type(None)), hint)
        out[name] = (base, type(None) in args)
    return out


FIELD_TYPES = _field_types()


def _coerce(key: str, raw: str):
    base, optional = FIELD_TYPES[key]
    raw = raw.strip()
    if optional and raw.lower() in ("", "none", "null"):
        return None
    if base is bool:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ParameterError(f"cannot parse boolean {key}={raw!r}")
    try:
        return base(raw)
    except ValueError as exc:
        raise ParameterError(f"cannot parse {key}={raw!r}: {exc}") from None


def parse_config_file(path) -> dict:
    """Flat KEY=VALUE format; '#' starts a comment; unknown keys rejected."""
    known = {f.name for f in fields(RunConfig)}
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected KEY=VALUE, got {line!r}")
            key, raw = line.split("=", 1)
            key = key.strip()
            if key not in known:
                raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
            out[key] = _coerce(key, raw)
    return out


def make_config(file_path=None, overrides: dict | None = None) -> RunConfig:
    values: dict = {}
    if file_path:
        values.update(parse_config_file(file_path))
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val
    return RunConfig(**values).validate()
