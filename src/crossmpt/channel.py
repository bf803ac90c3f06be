"""BPSK modulation over AWGN with the syndrome/magnitude preprocessing used by
all decoders here.

Sign conventions, fixed globally: bit 0 maps to +1, bit 1 to -1; bin(+) = 0,
bin(-) = 1; sign(0) counts as +. Sampling is pure given (seed, stream
indices), so replay and parallel generation are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import Code
from .masks import tanner_graph

__all__ = [
    "NoiseSpec",
    "ChannelSample",
    "BatchSample",
    "modulate",
    "hard_decision",
    "ebn0_to_sigma",
    "syndromes_of",
    "sample",
    "sample_batch",
    "make_invariance_pair",
    "stream_rng",
]


def stream_rng(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for (seed, stream...) — pure and collision-free."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, stream)]))


def modulate(bits: np.ndarray) -> np.ndarray:
    """BPSK: 0 -> +1, 1 -> -1."""
    bits = np.asarray(bits)
    if not ((bits == 0) | (bits == 1)).all():
        raise ValueError("modulate expects bits in {0,1}")
    return 1.0 - 2.0 * bits.astype(np.float64)


def hard_decision(y: np.ndarray) -> np.ndarray:
    """bin(sign(y)) with sign(0) treated as +."""
    return (np.asarray(y) < 0).astype(np.uint8)


def ebn0_to_sigma(ebn0_db: float | np.ndarray, rate: float) -> float | np.ndarray:
    """AWGN noise std-dev for a given Eb/N0 (dB, elementwise) and code rate."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    with np.errstate(divide="ignore"):  # -inf dB is pure noise: sigma = inf
        return 1.0 / np.sqrt(2.0 * rate * 10.0 ** (ebn0_db / 10.0))


@dataclass(frozen=True)
class NoiseSpec:
    """Eb/N0 range (dB), code rate, and master seed for a sampling stream."""

    ebn0_range_db: tuple[float, float]
    rate: float
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.ebn0_range_db
        if not lo <= hi:
            raise ValueError(f"Eb/N0 range needs lo <= hi, got ({lo}, {hi})")
        if not 0 < self.rate < 1:
            raise ValueError(f"rate must lie in (0,1), got {self.rate}")

    @staticmethod
    def for_code(code: Code, lo: float, hi: float | None = None, seed: int = 0) -> "NoiseSpec":
        hi = lo if hi is None else hi
        return NoiseSpec((float(lo), float(hi)), code.rate, seed)


@dataclass(frozen=True)
class ChannelSample:
    """One simulated transmission with every preprocessed view attached.

    syndromes holds one bit vector per PCM of the code used for sampling;
    target is the binarized multiplicative noise, the training label.
    """

    x: np.ndarray
    x_s: np.ndarray
    y: np.ndarray
    y_b: np.ndarray
    mag: np.ndarray
    syndromes: tuple[np.ndarray, ...]
    target: np.ndarray
    ebn0_db: float


@dataclass(frozen=True)
class BatchSample:
    """Column-stacked batch of channel samples (row b is sample b)."""

    x: np.ndarray
    x_s: np.ndarray
    y: np.ndarray
    y_b: np.ndarray
    mag: np.ndarray
    syndromes: tuple[np.ndarray, ...]
    target: np.ndarray
    ebn0_db: np.ndarray

    def __len__(self) -> int:
        return self.y.shape[0]

    def row(self, b: int) -> ChannelSample:
        return ChannelSample(
            x=self.x[b],
            x_s=self.x_s[b],
            y=self.y[b],
            y_b=self.y_b[b],
            mag=self.mag[b],
            syndromes=tuple(s[b] for s in self.syndromes),
            target=self.target[b],
            ebn0_db=float(self.ebn0_db[b]),
        )


def syndromes_of(code: Code, bits: np.ndarray) -> tuple[np.ndarray, ...]:
    """H_j @ bits mod 2 for every PCM of the code; bits may be (n,) or (B, n)."""
    return tuple(tanner_graph(h).syndrome(bits) for h in code.pcms)


def _derive(code: Code, x_s: np.ndarray, y: np.ndarray, ebn0: np.ndarray) -> BatchSample:
    """The batch that received the words y for the sent BPSK words x_s."""
    x = hard_decision(x_s)
    y_b = hard_decision(y)
    mag = np.abs(y)
    target = hard_decision(y * x_s)
    return BatchSample(
        x=x,
        x_s=x_s,
        y=y,
        y_b=y_b,
        mag=mag,
        syndromes=syndromes_of(code, y_b),
        target=target,
        ebn0_db=ebn0,
    )


def sample_batch(
    code: Code,
    spec: NoiseSpec,
    count: int,
    policy: str = "all_zero",
    stream: tuple[int, ...] = (0,),
) -> BatchSample:
    """Draw `count` independent transmissions.

    policy "all_zero" transmits the zero codeword; "random" draws uniform
    messages and encodes them. Eb/N0 is drawn uniformly in dB per sample,
    then mapped to sigma via the rate.
    """
    rng = stream_rng(spec.seed, *stream)
    n = code.n
    if policy == "all_zero":
        x = np.zeros((count, n), dtype=np.uint8)
    elif policy == "random":
        msgs = rng.integers(0, 2, size=(count, code.k), dtype=np.uint8)
        x = code.encode_batch(msgs)
    else:
        raise ValueError(f"unknown codeword policy {policy!r}")
    lo, hi = spec.ebn0_range_db
    if lo == hi:
        ebn0 = np.full(count, lo)
    else:
        ebn0 = rng.uniform(lo, hi, size=count)
    sigma = ebn0_to_sigma(ebn0, spec.rate)
    x_s = modulate(x)
    y = x_s + rng.standard_normal((count, n)) * sigma[:, None]
    return _derive(code, x_s, y, ebn0)


def sample(
    code: Code,
    spec: NoiseSpec,
    policy: str = "all_zero",
    index: int = 0,
) -> ChannelSample:
    """One transmission; pure function of (spec.seed, index)."""
    return sample_batch(code, spec, 1, policy=policy, stream=(index,)).row(0)


def make_invariance_pair(code: Code, noise_pattern: ChannelSample, new_codeword: np.ndarray) -> ChannelSample:
    """Re-transmit `new_codeword` under the multiplicative noise of an existing
    sample.

    The returned sample has entry-identical magnitude and syndromes, which is
    the preprocessing property that makes all-zero-codeword training valid.
    Raises ValueError when new_codeword is not in the code.
    """
    new_codeword = np.asarray(new_codeword, dtype=np.uint8)
    if new_codeword.shape != (code.n,):
        raise ValueError(f"codeword length {new_codeword.shape} != n={code.n}")
    if not code.contains(new_codeword):
        raise ValueError("word fails the parity-check membership test")
    mult_noise = noise_pattern.y * noise_pattern.x_s  # x_s is +-1
    x_s = modulate(new_codeword)[None, :]
    batch = _derive(code, x_s, x_s * mult_noise, np.array([noise_pattern.ebn0_db]))
    return batch.row(0)
