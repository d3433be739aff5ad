"""Line-oriented experiment configuration.

Files hold 'section.key = value' lines ('#' starts a comment); there are
no nested structures, so any tooling can parse them.  Sections: model
(named built-in plus free coefficients), discretization (K, N, n, delta,
T, steps, quadrature) and run (seed, paths).  Every documented
precondition is checked here, before any work happens, and violations
name the offending field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .models import MODEL_NAMES
from .propagator import default_substeps, max_sample_spacing


class ConfigError(ValueError):
    """Invalid configuration or input file; the message names the field or the file."""


_MODEL_KEYS = {"name", "a", "sigma", "rho", "h", "eps", "m0", "P0"}
_DISC_KEYS = {"K", "N", "n", "delta", "T", "delta_obs", "delta_sim", "quad_m"}
_RUN_KEYS = {"seed", "paths"}
_KEYS = {"model": _MODEL_KEYS, "discretization": _DISC_KEYS, "run": _RUN_KEYS}


@dataclass
class ExperimentConfig:
    model_name: str = "ou-linear"
    model_params: dict = field(default_factory=dict)
    K: int = 8
    N: int = 2
    n: int = 4
    delta: float = 0.01
    T: float = 1.0
    delta_obs: float | None = None     # default delta / (8 n)
    delta_sim: float | None = None     # default delta_obs / 4
    quad_m: int = 64
    seed: int = 0
    paths: int = 1

    def resolved_delta_obs(self) -> float:
        return max_sample_spacing(self.delta, self.n) if self.delta_obs is None else self.delta_obs

    def resolved_delta_sim(self) -> float:
        return self.resolved_delta_obs() / 4 if self.delta_sim is None else self.delta_sim

    def resolved_substeps(self) -> int:
        return default_substeps(self.n)

    def validate(self) -> "ExperimentConfig":
        if self.model_name not in MODEL_NAMES:
            raise ConfigError(f"model.name: unknown model '{self.model_name}'")
        if self.K < 1:
            raise ConfigError(f"discretization.K: must be >= 1, got {self.K}")
        if self.N < 0:
            raise ConfigError(f"discretization.N: must be >= 0, got {self.N}")
        if self.n < 1:
            raise ConfigError(f"discretization.n: must be >= 1, got {self.n}")
        if self.delta <= 0:
            raise ConfigError(f"discretization.delta: must be > 0, got {self.delta}")
        if self.T <= 0:
            raise ConfigError(f"discretization.T: must be > 0, got {self.T}")
        nwin = self.T / self.delta
        if abs(nwin - round(nwin)) > 1e-9:
            raise ConfigError("discretization.T: must be an integer multiple of delta")
        dobs, max_dobs = self.resolved_delta_obs(), max_sample_spacing(self.delta, self.n)
        if dobs > max_dobs * (1 + 1e-9):
            raise ConfigError(f"discretization.delta_obs: must be <= delta/(8 n) = {max_dobs:.3g}"
                              " to resolve the fastest cosine mode")
        per = self.delta / dobs
        if abs(per - round(per)) > 1e-9:
            raise ConfigError("discretization.delta_obs: must divide delta evenly")
        dsim = self.resolved_delta_sim()
        if dsim > dobs:
            raise ConfigError("discretization.delta_sim: must be <= delta_obs")
        rat = dobs / dsim
        if abs(rat - round(rat)) > 1e-9:
            raise ConfigError("discretization.delta_sim: must divide delta_obs evenly")
        if not 1 <= self.quad_m <= 150:
            raise ConfigError(f"discretization.quad_m: must be in 1..150, got {self.quad_m}")
        if self.seed < 0:
            raise ConfigError(f"run.seed: must be >= 0, got {self.seed}")
        if self.paths < 1:
            raise ConfigError(f"run.paths: must be >= 1, got {self.paths}")
        return self


def _convert(section, key, value):
    ints = {("discretization", k) for k in ("K", "N", "n", "quad_m")}
    ints |= {("run", "seed"), ("run", "paths")}
    if (section, key) in ints:
        try:
            return int(value)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key}: expected an integer, got '{value}'") from exc
    if (section, key) == ("model", "name"):
        return value
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: expected a number, got '{value}'") from exc


def parse_config(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line or "." not in line.split("=", 1)[0]:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got '{raw.strip()}'")
        lhs, value = (part.strip() for part in line.split("=", 1))
        section, _, key = lhs.partition(".")
        keys = _KEYS.get(section)
        if keys is None:
            raise ConfigError(f"{section}.{key}: unknown section '{section}'")
        if key not in keys:
            raise ConfigError(f"{section}.{key}: unknown key")
        value = _convert(section, key, value)
        if (section, key) == ("model", "name"):
            cfg.model_name = value
        elif section == "model":
            cfg.model_params[key] = value
        else:
            setattr(cfg, key, value)
    return cfg.validate()


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())
