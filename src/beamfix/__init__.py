"""Site-specific GPS error characterization and denoising from camera
detections and mmWave beam indices."""

from .geo import GeoPosition, LocalOffset, NoiseSpec
from .dataset import DatasetBundle, DatasetMeta, DetectionClass, Direction
from .grid import GridTable
from .nn import MlpModel, Normalizer, TrainConfig
from .simulate import BeamCodebook, SceneGeometry, TrajectoryConfig
from .txid import BeamTable, Identification
from .denoise import LookupTable

__version__ = "0.1.0"

__all__ = [
    "BeamCodebook",
    "BeamTable",
    "DatasetBundle",
    "DatasetMeta",
    "DetectionClass",
    "Direction",
    "GeoPosition",
    "GridTable",
    "Identification",
    "LocalOffset",
    "LookupTable",
    "MlpModel",
    "NoiseSpec",
    "Normalizer",
    "SceneGeometry",
    "TrainConfig",
    "TrajectoryConfig",
]
