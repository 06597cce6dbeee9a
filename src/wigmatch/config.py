"""Run configuration: flat key=value files with CLI-flag overrides.

The RunConfig field types are the only schema: the config-file parser and
the CLI flags are both derived from them.  A field is a value a caller
varies.  The algorithm's fixed values (the round growth, frame width,
denoiser frequency, cleaning threshold, adversary weights and the resample
and swap caps) are module constants or library defaults; RunConfig mirrors
them as plain class constants, not fields, only so that the benchmark's
replay can read them from a config.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, fields

from .denoiser import build_schedule
from .errors import ParameterError
from .model import CLIQUE_WEIGHT, STRATEGIES
from .preprocess import THRESHOLD_MULT
from .spectral import XI_FACTOR

CHOICES = {"strategy": STRATEGIES}


@dataclass
class RunConfig:
    n: int = 400
    rho: float = 0.9
    epsilon: float = 0.0
    strategy: str = "planted-clique-weight"
    k0: int = 24
    min_rounds: int = 0                 # 0 -> stop at t_star
    master_seed: int = 0                # 64-bit
    trials: int = 1
    bad_seed_candidates: int = 0
    random_candidates: int = 0
    output: str | None = None           # JSON manifest path
    dump_dir: str | None = None         # score matrix / assignment dumps
    trace_cleaning: bool = False
    verbose: bool = False

    # constants, not fields, kept only because the benchmark's replay reads
    # them; from gamma on, each mirrors a module constant or library default
    mode = "oracle-seed"
    spectral_mode = "record"
    selection_rule = "scan-order"
    gamma = None            # 4 / k0
    xi_factor = XI_FACTOR
    denoiser_b = 1.0
    threshold_mult = THRESHOLD_MULT
    clique_weight = CLIQUE_WEIGHT
    spike_scale = None      # 20 sqrt(n)
    max_resamples = 64
    max_swaps = None        # 10 n

    def validate(self) -> "RunConfig":
        for name, (base, _) in FIELD_TYPES.items():
            value = getattr(self, name)
            if base is float and value is not None and not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        if self.n < 2:
            raise ParameterError(f"n must be >= 2, got {self.n}")
        if not (0.0 <= self.epsilon < 1.0):
            raise ParameterError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ParameterError(
                    f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        if self.k0 >= self.n:
            raise ParameterError("k0 must be smaller than n")
        if not (0 <= self.master_seed < 2 ** 64):
            raise ParameterError(f"master_seed must lie in [0, 2**64), got {self.master_seed}")
        for name in ("min_rounds", "bad_seed_candidates", "random_candidates"):
            value = getattr(self, name)
            if value < 0:
                raise ParameterError(f"{name} must be >= 0, got {value}")
        if self.trials < 1:
            raise ParameterError("trials must be >= 1")
        # the schedule a run builds, so a value it refuses fails here rather
        # than after generate, corrupt and clean
        build_schedule(self.rho, self.n, self.k0, min_rounds=self.min_rounds)
        return self

    @property
    def max_swaps_value(self) -> int:
        return self.max_swaps if self.max_swaps is not None else 10 * self.n

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
