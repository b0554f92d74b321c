"""Pipeline configuration and the flat key = value config file format.

Defaults reproduce the reference setup: eps 0.22, min_pts 1, the
standard feature hop ranges, classification threshold 0.5, and
indoor-favoring tie breaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, get_args, get_type_hints

from .errors import ConfigError, FormatError
from .features import BASELINE_RANGES, FeatureRanges
from .learner import GBM, RANDOM_FOREST

VARIANTS = ("graph", "clusters", "fingerprints")


def parse_kv_file(path) -> Dict[str, str]:
    """Read `key = value` lines; '#' starts a comment; blanks ignored."""
    out: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected key = value")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def parse_fields(cls, raw: Dict[str, str]) -> Dict[str, Any]:
    """Convert raw `key = value` strings to the field types dataclass
    `cls` declares. Only Optional fields accept none, null or an empty
    value."""
    hints = get_type_hints(cls)
    out: Dict[str, Any] = {}
    for key, value in raw.items():
        if key not in hints:
            raise ConfigError(f"unknown {cls.__name__} key {key!r}")
        typ = hints[key]
        args = get_args(typ)
        if type(None) in args:
            if value.lower() in ("none", "null", ""):
                out[key] = None
                continue
            (typ,) = [a for a in args if a is not type(None)]
        try:
            out[key] = typ(value)
        except ValueError as e:
            raise ConfigError(f"bad {typ.__name__} value for {key}: {value!r}") from e
    return out


@dataclass(frozen=True)
class PipelineConfig:
    eps: float = 0.22
    min_pts: int = 1
    max_gap_ms: Optional[int] = None
    learner: str = "rf"            # rf | gbm
    seed: int = 0
    threshold: float = 0.5
    tie_rule: str = "indoor"       # indoor | drop
    variant: str = "graph"         # graph | clusters | fingerprints
    # feature hop ranges (graph variant)
    neighbors_d_min: int = 2
    neighbors_d_max: int = 6
    power_d_min: int = 0
    power_d_max: int = 4
    aps_d_min: int = 0
    aps_d_max: int = 4
    fps_d_min: int = 0
    fps_d_max: int = 4
    # learner hyperparameters
    n_trees: int = 100
    rf_max_features: Optional[int] = None
    rf_max_depth: Optional[int] = None
    min_leaf: int = 1
    gbm_rounds: int = 100
    gbm_depth: int = 3
    learning_rate: float = 0.1

    def validate(self) -> "PipelineConfig":
        if not 0.0 <= self.eps < 2.0:
            raise ConfigError(f"eps must be in [0, 2), got {self.eps}")
        for name, lo in (
            ("min_pts", 1), ("seed", 0), ("max_gap_ms", 0),
            ("n_trees", 1), ("rf_max_features", 1), ("rf_max_depth", 1),
            ("min_leaf", 1), ("gbm_rounds", 1), ("gbm_depth", 1),
        ):
            value = getattr(self, name)
            if value is not None and value < lo:  # None: an unset Optional
                raise ConfigError(f"{name} must be >= {lo}, got {value}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.learner not in ("rf", "gbm"):
            raise ConfigError(f"learner must be rf or gbm, got {self.learner!r}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"threshold must be in [0, 1], got {self.threshold}")
        if self.tie_rule not in ("indoor", "drop"):
            raise ConfigError(f"tie_rule must be indoor or drop, got {self.tie_rule!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        for lo, hi, name in (
            (self.neighbors_d_min, self.neighbors_d_max, "neighbors_d"),
            (self.power_d_min, self.power_d_max, "power_d"),
            (self.aps_d_min, self.aps_d_max, "aps_d"),
            (self.fps_d_min, self.fps_d_max, "fps_d"),
        ):
            if lo < 0 or hi < lo:
                raise ConfigError(f"bad {name} range [{lo}, {hi}]")
        return self

    def learner_kind(self) -> str:
        return RANDOM_FOREST if self.learner == "rf" else GBM

    def hyperparameters(self) -> Dict:
        if self.learner == "rf":
            return {
                "n_trees": self.n_trees,
                "max_features": self.rf_max_features,
                "min_leaf": self.min_leaf,
                "max_depth": self.rf_max_depth,
            }
        return {
            "n_rounds": self.gbm_rounds,
            "depth": self.gbm_depth,
            "learning_rate": self.learning_rate,
            "min_leaf": self.min_leaf,
        }

    def feature_ranges(self) -> FeatureRanges:
        if self.variant in ("clusters", "fingerprints"):
            return BASELINE_RANGES
        return FeatureRanges(
            neighbors=(self.neighbors_d_min, self.neighbors_d_max),
            power=(self.power_d_min, self.power_d_max),
            aps=(self.aps_d_min, self.aps_d_max),
            fps=(self.fps_d_min, self.fps_d_max),
        )


def config_from_file(path) -> PipelineConfig:
    return config_with_overrides(PipelineConfig(), parse_kv_file(path))


def config_with_overrides(base: PipelineConfig, overrides: Dict[str, str]) -> PipelineConfig:
    return replace(base, **parse_fields(PipelineConfig, overrides)).validate()
