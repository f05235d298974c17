"""Signal conditioning: Butterworth bandpass, amplitude clipping, 0-255 scaling.

Order of operations is filter -> clip -> scale. Augmentations run in
microvolt space, so scaling is the last step before the model: train.py
clips and scales each batch as it enters forward_batch, and every other
caller hands the model filtered microvolts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal as sps

CLIP_UV = 1024.0
SCALE_MAX = 255.0
# the preprocess command's record of the FilterSpec its output went through
PREPROCESS_META = "preprocess_meta.json"


@dataclass(frozen=True)
class FilterSpec:
    fs: float
    order: int = 3
    low_hz: float = 0.5
    high_hz: float = 45.0
    mode: str = "zero_phase"  # or "causal"

    def __post_init__(self):
        if not (0 < self.low_hz < self.high_hz < self.fs / 2):
            raise ValueError(
                f"band edges must satisfy 0 < {self.low_hz} < {self.high_hz} < fs/2={self.fs / 2}"
            )
        if self.mode not in ("zero_phase", "causal"):
            raise ValueError(f"unknown filter mode {self.mode!r}")
        if self.order < 1:
            raise ValueError("order must be >= 1")


def design_bandpass(spec: FilterSpec) -> np.ndarray:
    """Digital Butterworth bandpass as second-order sections.

    Bilinear transform with frequency pre-warping; SOS form keeps the cascade
    numerically stable near the low band edge.
    """
    return sps.butter(
        spec.order,
        [spec.low_hz, spec.high_hz],
        btype="bandpass",
        output="sos",
        fs=spec.fs,
    )


def filter_array(x: np.ndarray, spec: FilterSpec, sos: np.ndarray | None = None) -> np.ndarray:
    """Bandpass each row of a [channels x T] array.

    sos is design_bandpass(spec), designed here when not given; a caller
    filtering many arrays designs it once.
    """
    if sos is None:
        sos = design_bandpass(spec)
    if spec.mode == "causal":
        return sps.sosfilt(sos, x, axis=-1)
    t = x.shape[-1]
    if t <= 6 * spec.order:
        raise ValueError(
            f"zero-phase mode needs more than {6 * spec.order} samples, got {t}"
        )
    # Reflective padding sized to the slowest corner's settle time; order-based
    # padding is far too short for a 0.5 Hz edge.
    padlen = min(t - 1, int(round(spec.fs / spec.low_hz)))
    return sps.sosfiltfilt(sos, x, axis=-1, padtype="even", padlen=padlen)


def clip_scale_array(x: np.ndarray) -> np.ndarray:
    """Clip to +-1024 uV then map linearly onto [0, 255], in the one new
    array np.clip returns."""
    if np.any(np.isnan(x)):
        raise ValueError("NaN in input samples")
    out = np.clip(x, -CLIP_UV, CLIP_UV)
    out += CLIP_UV
    out *= SCALE_MAX / (2 * CLIP_UV)
    return out
