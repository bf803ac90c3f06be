"""Cross-attention message-passing transformer decoders for linear block
codes, with classical belief-propagation baselines, an AWGN/BPSK channel
simulator, a training engine, and a Monte-Carlo BER/complexity harness."""

__version__ = "0.1.0"

from .codes import Code, get_code, list_codes, load_code
from .gf2 import BinaryMatrix
from .models import DecoderModel, ModelConfig, Variant, decide, param_count
from .ensemble import CrossEDModel, EnsembleConfig, build_ensemble
from .bp import BpConfig, TannerGraph, bp_decode
from .channel import NoiseSpec, modulate, sample
from .training import TrainConfig, train
from .evaluation import BerReport, StopRule, estimate_ber

__all__ = [
    "__version__",
    "Code", "get_code", "list_codes", "load_code", "BinaryMatrix",
    "DecoderModel", "ModelConfig", "Variant", "decide", "param_count",
    "CrossEDModel", "EnsembleConfig", "build_ensemble",
    "BpConfig", "TannerGraph", "bp_decode",
    "NoiseSpec", "modulate", "sample",
    "TrainConfig", "train",
    "BerReport", "StopRule", "estimate_ber",
]
