"""Pipeline configuration and the flat key = value config file format.

A config holds the settings a run varies. Defaults reproduce the
reference setup: eps 0.22, min_pts 1, classification threshold 0.5.
The learners run at `learner.RF_DEFAULTS` and `learner.GBM_DEFAULTS`
but for the ensemble size (at most `MAX_ENSEMBLE`); a library caller
sets the rest through `learner.train`. Node ties go to indoor
(`learner.label_nodes`).
The feature hop ranges are the paper's, fixed: `DEFAULT_RANGES`
(neighbors 2..6; power, aps and fps 0..4) for the graph variant and
the hop-0 `BASELINE_RANGES` for the clusters and fingerprints
baselines. `select-dims` is how those sizes are assessed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, get_args, get_type_hints

from .errors import ConfigError, FormatError
from .clustering import ClusterParams
from .features import BASELINE_RANGES, DEFAULT_RANGES, FeatureRanges
from .learner import GBM, GBM_DEFAULTS, RANDOM_FOREST, RF_DEFAULTS

VARIANTS = ("graph", "clusters", "fingerprints")
LEARNERS = ("rf", "gbm")
MAX_ENSEMBLE = 4096  # trees (rf) or rounds (gbm); a fit grows one tree per unit


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
    eps: float = ClusterParams.eps
    min_pts: int = ClusterParams.min_pts
    max_gap_ms: Optional[int] = None
    learner: str = "rf"            # rf | gbm
    seed: int = 0
    threshold: float = 0.5
    variant: str = "graph"         # graph | clusters | fingerprints
    n_trees: int = RF_DEFAULTS["n_trees"]
    gbm_rounds: int = GBM_DEFAULTS["n_rounds"]

    def validate(self) -> "PipelineConfig":
        ClusterParams(self.eps, self.min_pts).validate()
        for name, lo in (("seed", 0), ("max_gap_ms", 0), ("n_trees", 1), ("gbm_rounds", 1)):
            value = getattr(self, name)
            if value is not None and value < lo:  # None: an unset Optional
                raise ConfigError(f"{name} must be >= {lo}, got {value}")
        if self.seed > 2**63 - 1:  # model files hold the seed as an int64
            raise ConfigError(f"seed must be <= 2**63 - 1, got {self.seed}")
        for name in ("n_trees", "gbm_rounds"):
            if getattr(self, name) > MAX_ENSEMBLE:
                raise ConfigError(f"{name} must be <= {MAX_ENSEMBLE}, got {getattr(self, name)}")
        if self.learner not in LEARNERS:
            raise ConfigError(f"learner must be rf or gbm, got {self.learner!r}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"threshold must be in [0, 1], got {self.threshold}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        return self

    def learner_kind(self) -> str:
        return RANDOM_FOREST if self.learner == "rf" else GBM

    def hyperparameters(self) -> Dict:
        """The learner's defaults at the configured ensemble size."""
        if self.learner == "rf":
            return {**RF_DEFAULTS, "n_trees": self.n_trees}
        return {**GBM_DEFAULTS, "n_rounds": self.gbm_rounds}

    def feature_ranges(self) -> FeatureRanges:
        return DEFAULT_RANGES if self.variant == "graph" else BASELINE_RANGES


def config_from_file(path) -> PipelineConfig:
    return config_with_overrides(PipelineConfig(), parse_kv_file(path))


def config_with_overrides(base: PipelineConfig, overrides: Dict[str, str]) -> PipelineConfig:
    return replace(base, **parse_fields(PipelineConfig, overrides)).validate()
