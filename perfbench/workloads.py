"""Workload definitions: which synthetic worlds each workload generates,
how the benchmark seed maps to world seeds, and the pipeline config it
runs.

The method trains once on one device's scans and then scores every new
stream, so each workload trains on one fixed world (world seed 1, the
training world of the c07 and c08 acceptance tests) and the benchmark
seed picks the worlds it scores: world seed ``1000 * seed + 2 + k`` for
batch test world k, ``1000 * seed + 100 + k`` for warm-up stream k. Seed
0 therefore scores the c07 test world (seed 2) first.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Tuple

from wifi_inout.config import PipelineConfig
from wifi_inout.model import write_scan_log
from wifi_inout.synth import WorldSpec, generate

NAMES = ("batch_graph_rf", "batch_fingerprints_gbm", "warmup_stream")

HOUR = 3600.0
TRAIN_SEED = 1


def c07_world(seed: int, hours: float) -> WorldSpec:
    """The c07 benchmark world (``_benchmark_world`` in the acceptance
    tests) at a chosen length: instantaneous features overlap between
    the classes, so the temporal graph structure is what separates them."""
    return WorldSpec(
        seed=seed, duration_s=hours * HOUR,
        buildings=8,
        building_ap_min=3, building_ap_max=10,
        indoor_rssi_mean=-70.0, indoor_rssi_sigma=9.0,
        outdoor_visible_min=1, outdoor_visible_max=6,
        outdoor_rssi_mean=-77.0, outdoor_rssi_sigma=9.0,
        ap_dropout=0.35, outdoor_empty_prob=0.1,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    config: PipelineConfig
    train: WorldSpec
    tests: Tuple[WorldSpec, ...]
    warmup_minutes: Optional[int] = None  # None: batch pipeline.score

    def train_path(self, workdir) -> str:
        return os.path.join(workdir, "train.scans")

    def test_paths(self, workdir):
        return [os.path.join(workdir, f"test-{k}.scans") for k in range(len(self.tests))]


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload `name` for benchmark seed `seed`; `tiny` shrinks every
    world so the self-tests run in seconds."""
    base = 1000 * seed
    if name == "batch_graph_rf":
        hours = 1.0 if tiny else 16.0
        return Workload(
            name, seed, PipelineConfig(variant="graph", learner="rf", seed=7),
            train=c07_world(TRAIN_SEED, hours),
            tests=(c07_world(base + 2, hours),),
        )
    if name == "batch_fingerprints_gbm":
        # raw-fingerprint accuracy varies with the scored world (0.77-0.91
        # over ten single worlds), so it is pooled over three
        hours = 1.0 if tiny else 8.0
        return Workload(
            name, seed, PipelineConfig(variant="fingerprints", learner="gbm", seed=7),
            train=c07_world(TRAIN_SEED, hours),
            tests=tuple(c07_world(base + 2 + k, hours) for k in range(3)),
        )
    if name == "warmup_stream":
        # the c08 set-up: default-spec RF model, default normal worlds;
        # an indoor dwell lasts at most 10 minutes and every world starts
        # indoors, so a stream longer than that holds both classes
        minutes, streams = (12, 2) if tiny else (20, 8)
        return Workload(
            name, seed, PipelineConfig(seed=5),
            train=WorldSpec(seed=TRAIN_SEED, duration_s=(1.0 if tiny else 4.0) * HOUR),
            tests=tuple(WorldSpec(seed=base + 100 + k, duration_s=minutes * 60.0)
                        for k in range(streams)),
            warmup_minutes=minutes,
        )
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def write_inputs(wl: Workload, workdir) -> None:
    """Generate every world of the workload and write its scan log."""
    write_scan_log(generate(wl.train), wl.train_path(workdir))
    for spec, path in zip(wl.tests, wl.test_paths(workdir)):
        write_scan_log(generate(spec), path)
