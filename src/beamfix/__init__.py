"""Site-specific GPS error characterization and denoising from camera
detections and mmWave beam indices."""

from .geo import GeoPosition, LocalOffset, NoiseSpec
from .dataset import DatasetBundle, DatasetMeta, DetectionClass, Direction
from .grid import KeyedTable
from .nn import MlpModel, Normalizer, TrainConfig
from .simulate import BeamCodebook, SceneGeometry, TrajectoryConfig
from .txid import Identification

__version__ = "0.1.0"

__all__ = [
    "BeamCodebook",
    "DatasetBundle",
    "DatasetMeta",
    "DetectionClass",
    "Direction",
    "GeoPosition",
    "Identification",
    "KeyedTable",
    "LocalOffset",
    "MlpModel",
    "NoiseSpec",
    "Normalizer",
    "SceneGeometry",
    "TrainConfig",
    "TrajectoryConfig",
]
