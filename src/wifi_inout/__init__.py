"""Indoor-outdoor detection from Wi-Fi scan streams.

Pipeline: ingest scan logs into a sparse fingerprint matrix, cluster
fingerprints under a rank-correlation distance, build the cluster
transition graph, extract neighborhood features per node, train a
weighted tree ensemble, and broadcast node scores back to fingerprints.
"""

from .clustering import ClusterAssignment, ClusterParams, cluster, singleton_assignment
from .config import PipelineConfig, config_from_file
from .distance import DistanceCase, DistanceValue, distance
from .evaluation import (
    EvalReport,
    SwitchLatencyReport,
    WarmupReport,
    XvalReport,
    auc,
    evaluate,
    location_cross_validation,
    switch_latency,
    warmup_eval,
)
from .features import (
    DEFAULT_RANGES,
    FeatureRanges,
    FeatureTable,
    extract_features,
    neighborhood_feature_grid,
    select_neighborhood_sizes,
)
from .fpindex import FingerprintIndex, build_index, region_query
from .graph import Neighborhood, TransitionGraph, build_graph, neighborhood
from .learner import (
    GBM,
    RANDOM_FOREST,
    Model,
    Prediction,
    label_nodes,
    predict,
    train,
    train_arrays,
)
from .model import (
    INDOOR,
    OUTDOOR,
    Fingerprint,
    FingerprintMatrix,
    ScanLog,
    ScanRecord,
    canonical_bssid,
    ingest,
    label_codes,
    read_scan_log,
    rssi_to_power,
    write_scan_log,
)
from .pipeline import Stages, build_stages, fit, run_pipeline, score
from .synth import WorldSpec, generate, worldspec_from_file

__version__ = "0.1.0"
