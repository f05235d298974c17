"""Synthetic class-structured EEG datasets for training and testing.

Not a physiological simulator: each class plants a recognizable signature in
the central fifth of the window on top of pink-noise background, so the
pipeline (including the central-selection component) has something real to
learn without clinical data.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import (
    LEFT_CHANNELS,
    RIGHT_CHANNELS,
    ClassId,
    DatasetManifest,
    EegSegment,
    ManifestEntry,
    save_manifest,
    subset_tag,
    write_signal,
)

N_CHANNELS = 16


@dataclass
class SynthConfig:
    n_patients: int = 60
    segments_per_patient: int = 20
    fs: float = 100.0
    t_total_s: float = 10.0
    class_mix: tuple[float, ...] = (1 / 6,) * 6
    annotators_range: tuple[int, int] = (3, 15)
    label_noise: float = 0.1
    seed: int = 0
    noise_rms_uv: float = 15.0
    signature_amp_uv: float = 80.0

    def __post_init__(self):
        for name in ("n_patients", "segments_per_patient", "fs", "t_total_s"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.noise_rms_uv >= 0:
            raise ValueError(f"noise_rms_uv must be >= 0, got {self.noise_rms_uv}")
        if abs(sum(self.class_mix) - 1.0) > 1e-9 or len(self.class_mix) != 6:
            raise ValueError("class_mix must be 6 probabilities summing to 1")
        if self.annotators_range[0] < 1 or self.annotators_range[0] > self.annotators_range[1]:
            raise ValueError("annotators_range must satisfy 1 <= min <= max")
        if not (0.0 <= self.label_noise <= 1.0):
            raise ValueError("label_noise must be a probability")
        if self.t_total_s % 5 != 0:
            raise ValueError("t_total_s must be divisible by 5")
        if self.n_samples == 0 or self.n_samples % 5 != 0:
            raise ValueError("fs * t_total_s must be a positive multiple of 5 samples")

    @property
    def n_samples(self) -> int:
        return int(round(self.fs * self.t_total_s))


def pink_noise(rng: np.random.Generator, shape: int | tuple[int, ...],
               rms: float) -> np.ndarray:
    """1/f-shaped noise along the last axis of shape, each row scaled to the
    requested RMS amplitude. Rows are drawn in C order from one
    standard_normal call, so a (k, n) call equals k one-row calls."""
    white = rng.standard_normal(shape)
    n = white.shape[-1]
    spec = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n)
    freqs[0] = freqs[1]  # avoid division by zero; DC handled below
    spec = spec / np.sqrt(freqs)
    spec[..., 0] = 0.0
    x = np.fft.irfft(spec, n)
    return x * (rms / np.sqrt(np.mean(x**2, axis=-1, keepdims=True)))


def _center_slice(n: int) -> slice:
    return slice(2 * n // 5, 2 * n // 5 + n // 5)


def _seizure_signature(rng, t: np.ndarray, amp: float) -> np.ndarray:
    """Evolving high-amplitude bursts sweeping 3-12 Hz."""
    f0 = rng.uniform(3.5, 5.0)
    f1 = rng.uniform(8.0, 11.5)
    dur = t[-1] - t[0] if len(t) > 1 else 1.0
    inst_freq = f0 + (f1 - f0) * (t - t[0]) / max(dur, 1e-9)
    phase = 2 * np.pi * np.cumsum(inst_freq) * (t[1] - t[0] if len(t) > 1 else 0.01)
    envelope = 0.5 + 0.5 * (t - t[0]) / max(dur, 1e-9)
    burst = 0.6 + 0.4 * np.sin(2 * np.pi * rng.uniform(0.8, 1.5) * t) ** 2
    return amp * 1.4 * envelope * burst * np.sin(phase + rng.uniform(0, 2 * np.pi))


def _periodic_discharges(rng, t: np.ndarray, amp: float) -> np.ndarray:
    """Sharp biphasic transients repeating at 1-2.5 Hz."""
    rate = rng.uniform(1.0, 2.5)
    width = rng.uniform(0.04, 0.07)
    phase0 = rng.uniform(0, 1 / rate)
    t_rel = t - t[0] + phase0
    centers = np.arange(0, t_rel[-1] + 1 / rate, 1 / rate)
    d = t_rel - centers[:, None]
    # onto zeros one center after another, in order: bit-identical to a loop
    x = np.add.reduce(-d / width * np.exp(0.5 - (d / width) ** 2 / 2), axis=0,
                      initial=0.0)
    return amp * 1.6 * x


def _rhythmic_delta(rng, t: np.ndarray, amp: float) -> np.ndarray:
    """Sinusoidal 1-3 Hz delta."""
    f = rng.uniform(1.0, 3.0)
    return amp * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))


def synth_segment_samples(
    cls: ClassId, cfg: SynthConfig, rng: np.random.Generator
) -> np.ndarray:
    """One [16 x T] microvolt segment whose central fifth carries the class
    signature."""
    n = cfg.n_samples
    x = pink_noise(rng, (N_CHANNELS, n), cfg.noise_rms_uv)
    if cls == ClassId.OTHER:
        return x.astype(np.float32)

    sl = _center_slice(n)
    t = np.arange(sl.start, sl.stop) / cfg.fs
    amp = cfg.signature_amp_uv * rng.uniform(0.8, 1.2)

    if cls in (ClassId.LPD, ClassId.LRDA):
        channels = LEFT_CHANNELS if rng.random() < 0.5 else RIGHT_CHANNELS
    else:
        channels = tuple(range(N_CHANNELS))

    for ch in channels:
        ch_amp = amp * rng.uniform(0.85, 1.15)
        if cls == ClassId.SEIZURE:
            sig = _seizure_signature(rng, t, ch_amp)
        elif cls in (ClassId.LPD, ClassId.GPD):
            sig = _periodic_discharges(rng, t, ch_amp)
        else:  # LRDA, GRDA
            sig = _rhythmic_delta(rng, t, ch_amp)
        x[ch, sl] += sig
    return x.astype(np.float32)


def synth_votes(cls: ClassId, cfg: SynthConfig, rng: np.random.Generator) -> tuple[int, ...]:
    n_annotators = int(rng.integers(cfg.annotators_range[0], cfg.annotators_range[1] + 1))
    votes = [0] * 6
    for _ in range(n_annotators):
        if rng.random() < cfg.label_noise:
            others = [c for c in range(6) if c != int(cls)]
            votes[others[int(rng.integers(5))]] += 1
        else:
            votes[int(cls)] += 1
    return tuple(votes)


def _segment_rng(seed: int, index: int) -> np.random.Generator:
    # Independent per-segment streams keyed by (seed, index): parallel workers
    # produce identical data in any order.
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def generate(cfg: SynthConfig, out_dir: Path, header_comment: str | None = None) -> DatasetManifest:
    """Write signal files plus manifest.csv under out_dir and return the
    manifest."""
    out_dir = Path(out_dir)
    signal_dir = out_dir / "signals"
    signal_dir.mkdir(parents=True, exist_ok=True)

    entries = []
    index = 0
    for p in range(cfg.n_patients):
        patient_id = f"p{p:04d}"
        recording_id = f"r{p:04d}"
        for s in range(cfg.segments_per_patient):
            rng = _segment_rng(cfg.seed, index)
            cls = ClassId(int(rng.choice(6, p=np.asarray(cfg.class_mix))))
            samples = synth_segment_samples(cls, cfg, rng)
            votes = synth_votes(cls, cfg, rng)
            segment_id = f"s{index:06d}"
            rel_path = f"signals/{segment_id}.eeg"
            seg = EegSegment(
                samples=samples,
                fs=cfg.fs,
                segment_id=segment_id,
                recording_id=recording_id,
                patient_id=patient_id,
            )
            write_signal(out_dir / rel_path, seg)
            entries.append(
                ManifestEntry(
                    segment_id=segment_id,
                    recording_id=recording_id,
                    patient_id=patient_id,
                    votes=votes,
                    subset=subset_tag(votes),
                    path=rel_path,
                )
            )
            index += 1

    manifest = DatasetManifest(entries, root=out_dir)
    save_manifest(manifest, out_dir / "manifest.csv", header_comment=header_comment)
    return manifest
