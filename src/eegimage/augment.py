"""Training-time augmentations over microvolt segments.

All five transforms are label-preserving by construction: chain permutation
and left-right swapping move whole anatomical chains, never single channels,
so lateralized patterns stay lateralized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import LEFT_CHANNELS, RIGHT_CHANNELS

N_CHAINS = 4
CHAIN_LEN = 4
# row i of a swapped segment is the channel that mirrors channel i
LEFT_RIGHT_SWAP = np.empty(N_CHAINS * CHAIN_LEN, dtype=np.int64)
LEFT_RIGHT_SWAP[list(LEFT_CHANNELS + RIGHT_CHANNELS)] = RIGHT_CHANNELS + LEFT_CHANNELS


@dataclass(frozen=True)
class AugmentConfig:
    p_mask: float = 0.5
    p_permute: float = 0.25
    p_invert: float = 0.25
    p_time_reverse: float = 0.25
    p_swap_lr: float = 0.25
    mask_max_frac: float = 0.1

    def __post_init__(self):
        for name in ("p_mask", "p_permute", "p_invert", "p_time_reverse", "p_swap_lr"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if not (0.0 < self.mask_max_frac <= 0.5):
            raise ValueError("mask_max_frac must be in (0, 0.5]")


def mask_window_array(
    x: np.ndarray, start: int, length: int, channels: Sequence[int]
) -> np.ndarray:
    if start < 0 or start + length > x.shape[1]:
        raise ValueError(f"mask window [{start}, {start + length}) out of range")
    out = x.copy()
    out[np.asarray(channels, dtype=int)[:, None], np.arange(start, start + length)] = 0.0
    return out


def invert(x: np.ndarray) -> np.ndarray:
    return -x


def time_reverse(x: np.ndarray) -> np.ndarray:
    return x[:, ::-1].copy()


def swap_lr(x: np.ndarray) -> np.ndarray:
    """Exchange homologous left/right chains (LT<->RT, LP<->RP)."""
    return x[LEFT_RIGHT_SWAP].copy()


def permute_chains(x: np.ndarray, perm: Sequence[int]) -> np.ndarray:
    """Reorder the four chains, keeping within-chain channel order."""
    if sorted(perm) != list(range(N_CHAINS)):
        raise ValueError(f"not a permutation of 4 chains: {perm}")
    idx = np.concatenate([np.arange(CHAIN_LEN) + CHAIN_LEN * c for c in perm])
    return x[idx].copy()


def apply_array(x: np.ndarray, cfg: AugmentConfig, rng: np.random.Generator) -> np.ndarray:
    """Apply each augmentation independently with its probability."""
    n_ch, t = x.shape
    if rng.random() < cfg.p_mask:
        max_len = max(1, int(cfg.mask_max_frac * t))
        length = int(rng.integers(1, max_len + 1))
        start = int(rng.integers(0, t - length + 1))
        n_sel = int(rng.integers(1, n_ch + 1))
        channels = rng.choice(n_ch, size=n_sel, replace=False)
        x = mask_window_array(x, start, length, channels)
    if rng.random() < cfg.p_permute:
        x = permute_chains(x, rng.permutation(N_CHAINS))
    if rng.random() < cfg.p_invert:
        x = invert(x)
    if rng.random() < cfg.p_time_reverse:
        x = time_reverse(x)
    if rng.random() < cfg.p_swap_lr:
        x = swap_lr(x)
    return x

