"""Run configuration: flat key=value files with CLI-flag overrides."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ParameterError
from .model import STRATEGIES
from .rng import derive_streams

MODES = ("oracle-seed", "tiny-enumeration")
SPECTRAL_MODES = ("record", "strict")
SELECTION_RULES = ("scan-order", "max-stat")


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
    mode: str = "oracle-seed"
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
        if self.n < 2:
            raise ParameterError(f"n must be >= 2, got {self.n}")
        if not (0.0 < self.rho <= 1.0):
            raise ParameterError(f"rho must lie in (0, 1], got {self.rho}")
        if not (0.0 <= self.epsilon < 1.0):
            raise ParameterError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        if self.strategy not in STRATEGIES:
            raise ParameterError(f"unknown strategy {self.strategy!r}")
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.spectral_mode not in SPECTRAL_MODES:
            raise ParameterError(f"spectral_mode must be one of {SPECTRAL_MODES}")
        if self.selection_rule not in SELECTION_RULES:
            raise ParameterError(f"selection_rule must be one of {SELECTION_RULES}")
        if self.mode == "tiny-enumeration":
            if self.n > 12 or self.k0 > 2:
                raise ParameterError(
                    "tiny-enumeration is gated to n <= 12 and k0 <= 2 "
                    f"(got n={self.n}, k0={self.k0})")
        else:
            if self.k0 < 12:
                raise ParameterError(f"k0 must be >= 12 in oracle-seed mode, got {self.k0}")
        if self.k0 >= self.n:
            raise ParameterError("k0 must be smaller than n")
        if self.min_rounds < 0:
            raise ParameterError("min_rounds must be >= 0")
        if self.trials < 1:
            raise ParameterError("trials must be >= 1")
        if self.xi_factor < 1:
            raise ParameterError("xi_factor must be >= 1")
        return self

    @property
    def gamma_value(self) -> float:
        return self.gamma if self.gamma is not None else 4.0 / self.k0

    @property
    def spike_value(self) -> float:
        return self.spike_scale if self.spike_scale is not None else 20.0 * math.sqrt(self.n)

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


_BOOL_KEYS = {"trace_cleaning", "verbose"}
_INT_KEYS = {"n", "k0", "min_rounds", "xi_factor", "master_seed", "trials",
             "max_resamples", "max_swaps", "bad_seed_candidates", "random_candidates"}
_FLOAT_KEYS = {"rho", "epsilon", "gamma", "denoiser_b", "threshold_mult",
               "clique_weight", "spike_scale"}
_OPTIONAL_KEYS = {"gamma", "spike_scale", "max_swaps", "output", "dump_dir"}


def _coerce(key: str, raw: str):
    raw = raw.strip()
    if key in _OPTIONAL_KEYS and raw.lower() in ("", "none", "null"):
        return None
    if key in _BOOL_KEYS:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ParameterError(f"cannot parse boolean {key}={raw!r}")
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
    except ValueError as exc:
        raise ParameterError(f"cannot parse {key}={raw!r}: {exc}") from None
    return raw


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
