"""Synthetic dataset generator: determinism, label construction, and the
class signatures that make the pipeline learnable."""

import numpy as np
import pytest

import eegimage.synthgen as synthgen
from eegimage.cli import main
from eegimage.data import (
    LEFT_CHANNELS,
    RIGHT_CHANNELS,
    ClassId,
    read_signal,
)
from eegimage.synthgen import SynthConfig, generate, pink_noise

# --- oracle ---


def bandpower(x, fs, f_lo, f_hi):
    """Sum of |rfft|^2 over [f_lo, f_hi]."""
    spec = np.fft.rfft(np.asarray(x, dtype=np.float64))
    freqs = np.fft.rfftfreq(len(x), 1.0 / fs)
    mask = (freqs >= f_lo) & (freqs <= f_hi)
    return float(np.sum(np.abs(spec[mask]) ** 2))


def fifth_slices(n):
    c = 2 * n // 5
    w = n // 5
    return slice(0, w), slice(c, c + w)  # flanking, central


def one_class_config(cls, **kw):
    mix = [0.0] * 6
    mix[int(cls)] = 1.0
    base = dict(
        n_patients=3,
        segments_per_patient=4,
        fs=100.0,
        t_total_s=5.0,
        class_mix=tuple(mix),
        label_noise=0.0,
        seed=0,
    )
    base.update(kw)
    return SynthConfig(**base)


# --- config validation ---


def test_config_rejects_bad_class_mix():
    with pytest.raises(ValueError):
        SynthConfig(class_mix=(0.5, 0.5, 0, 0, 0, 0.5))
    with pytest.raises(ValueError):
        SynthConfig(class_mix=(1.0,))


def test_config_rejects_bad_annotators_range():
    with pytest.raises(ValueError):
        SynthConfig(annotators_range=(0, 5))
    with pytest.raises(ValueError):
        SynthConfig(annotators_range=(7, 3))


def test_config_rejects_bad_label_noise():
    with pytest.raises(ValueError):
        SynthConfig(label_noise=1.5)


def test_config_rejects_duration_not_divisible_by_five():
    with pytest.raises(ValueError):
        SynthConfig(t_total_s=7.0)


@pytest.mark.parametrize("flag,value,field", [
    ("--fs", "0", "fs"),
    ("--fs", "-100", "fs"),
    ("--duration", "0", "t_total_s"),
    ("--patients", "0", "n_patients"),
    ("--segments", "0", "segments_per_patient"),
    ("--noise-rms", "-5", "noise_rms_uv"),
])
def test_gen_rejects_a_bad_value_naming_its_field(tmp_path, capsys, flag, value, field):
    out = tmp_path / "data"
    assert main(["gen", "--out-dir", str(out), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be "), err
    assert not out.exists()


# --- reference: the per-channel generator ---


def reference_pink_noise(rng, n, rms):
    """One channel of 1/f noise: one rfft/irfft per row."""
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n)
    freqs[0] = freqs[1]
    spec = spec / np.sqrt(freqs)
    spec[0] = 0.0
    x = np.fft.irfft(spec, n)
    return x * (rms / np.sqrt(np.mean(x**2)))


def reference_periodic_discharges(rng, t, amp):
    """Biphasic transients added onto zeros one center at a time."""
    rate = rng.uniform(1.0, 2.5)
    width = rng.uniform(0.04, 0.07)
    phase0 = rng.uniform(0, 1 / rate)
    x = np.zeros_like(t)
    t_rel = t - t[0] + phase0
    for c in np.arange(0, t_rel[-1] + 1 / rate, 1 / rate):
        d = t_rel - c
        x += -d / width * np.exp(0.5 - (d / width) ** 2 / 2)
    return amp * 1.6 * x


def reference_segment_samples(cls, cfg, rng):
    """The generator channel by channel, drawing in the same order."""
    n = cfg.n_samples
    x = np.stack([reference_pink_noise(rng, n, cfg.noise_rms_uv) for _ in range(16)])
    if cls == ClassId.OTHER:
        return x.astype(np.float32)
    sl = synthgen._center_slice(n)
    t = np.arange(sl.start, sl.stop) / cfg.fs
    amp = cfg.signature_amp_uv * rng.uniform(0.8, 1.2)
    if cls in (ClassId.LPD, ClassId.LRDA):
        channels = LEFT_CHANNELS if rng.random() < 0.5 else RIGHT_CHANNELS
    else:
        channels = tuple(range(16))
    for ch in channels:
        ch_amp = amp * rng.uniform(0.85, 1.15)
        if cls == ClassId.SEIZURE:
            sig = synthgen._seizure_signature(rng, t, ch_amp)
        elif cls in (ClassId.LPD, ClassId.GPD):
            sig = reference_periodic_discharges(rng, t, ch_amp)
        else:
            sig = synthgen._rhythmic_delta(rng, t, ch_amp)
        x[ch, sl] += sig
    return x.astype(np.float32)


@pytest.mark.parametrize("fs,duration,noise_rms", [
    (100.0, 10.0, 15.0),
    (100.0, 5.0, 40.0),
    (101.0, 5.0, 15.0),  # 505 samples: odd length
])
@pytest.mark.parametrize("cls", list(ClassId))
def test_generate_writes_the_per_channel_generators_bytes(
        tmp_path, monkeypatch, cls, fs, duration, noise_rms):
    cfg = one_class_config(cls, n_patients=2, segments_per_patient=3, fs=fs,
                           t_total_s=duration, noise_rms_uv=noise_rms,
                           label_noise=0.3, seed=int(cls) + 21)
    generate(cfg, tmp_path / "vectorised", header_comment="x")
    monkeypatch.setattr(synthgen, "synth_segment_samples", reference_segment_samples)
    generate(cfg, tmp_path / "reference", header_comment="x")
    a = sorted(p.relative_to(tmp_path / "vectorised")
               for p in (tmp_path / "vectorised").rglob("*") if p.is_file())
    b = sorted(p.relative_to(tmp_path / "reference")
               for p in (tmp_path / "reference").rglob("*") if p.is_file())
    assert a == b and len(a) == 7  # manifest.csv and six signal files
    for rel in a:
        assert ((tmp_path / "vectorised" / rel).read_bytes()
                == (tmp_path / "reference" / rel).read_bytes()), rel


@pytest.mark.parametrize("fs,duration", [(100.0, 10.0), (101.0, 5.0), (256.0, 10.0)])
def test_periodic_discharges_sum_the_centers_in_order(fs, duration):
    # the signal files are float32, which hides a float64 sum taken in
    # another order; the waveform itself must match bit for bit
    n = int(round(fs * duration))
    sl = synthgen._center_slice(n)
    t = np.arange(sl.start, sl.stop) / fs
    for seed in range(300):
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = synthgen._periodic_discharges(rng_a, t, 80.0)
        want = reference_periodic_discharges(rng_b, t, 80.0)
        assert np.array_equal(got, want), seed
        assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize("n", [5, 500, 505, 1000])
def test_pink_noise_rows_equal_one_row_calls(n):
    rng_a, rng_b = np.random.default_rng(n), np.random.default_rng(n)
    rows = pink_noise(rng_a, (16, n), 15.0)
    singles = np.stack([reference_pink_noise(rng_b, n, 15.0) for _ in range(16)])
    assert rows.shape == (16, n) and np.array_equal(rows, singles)
    assert rng_a.random() == rng_b.random()
    one = pink_noise(np.random.default_rng(n), n, 15.0)
    assert one.shape == (n,) and np.array_equal(one, singles[0])


# --- votes and labels ---


def test_zero_label_noise_gives_unanimous_votes(tmp_path):
    cfg = SynthConfig(n_patients=4, segments_per_patient=3, fs=100.0,
                      t_total_s=5.0, label_noise=0.0, seed=1)
    manifest = generate(cfg, tmp_path)
    for e in manifest.entries:
        nonzero = [v for v in e.votes if v > 0]
        assert len(nonzero) == 1  # consensus equals the generating class


def test_vote_totals_within_annotator_range(tmp_path):
    cfg = SynthConfig(n_patients=4, segments_per_patient=4, fs=100.0,
                      t_total_s=5.0, annotators_range=(3, 15), seed=2)
    manifest = generate(cfg, tmp_path)
    totals = [sum(e.votes) for e in manifest.entries]
    assert all(3 <= t <= 15 for t in totals)


def test_degenerate_class_mix(tmp_path):
    manifest = generate(one_class_config(ClassId.SEIZURE), tmp_path)
    assert all(int(np.argmax(e.votes)) == 0 for e in manifest.entries)


# --- determinism ---


def test_same_seed_bit_identical(tmp_path):
    cfg = SynthConfig(n_patients=3, segments_per_patient=2, fs=100.0,
                      t_total_s=5.0, seed=7)
    m1 = generate(cfg, tmp_path / "a")
    m2 = generate(cfg, tmp_path / "b")
    assert m1.entries == m2.entries
    assert ((tmp_path / "a/manifest.csv").read_bytes()
            == (tmp_path / "b/manifest.csv").read_bytes())
    for e in m1.entries:
        assert ((tmp_path / "a" / e.path).read_bytes()
                == (tmp_path / "b" / e.path).read_bytes())


def test_different_seeds_differ(tmp_path):
    cfg1 = SynthConfig(n_patients=2, segments_per_patient=2, fs=100.0,
                       t_total_s=5.0, seed=0)
    cfg2 = SynthConfig(n_patients=2, segments_per_patient=2, fs=100.0,
                       t_total_s=5.0, seed=1)
    m1 = generate(cfg1, tmp_path / "a")
    m2 = generate(cfg2, tmp_path / "b")
    s1 = read_signal(tmp_path / "a" / m1.entries[0].path).samples
    s2 = read_signal(tmp_path / "b" / m2.entries[0].path).samples
    assert not np.array_equal(s1, s2)


# --- signal construction ---


def test_amplitudes_stay_clipping_safe(tmp_path):
    # every class present; signal must stay within +-1024 uV pre-clip
    cfg = SynthConfig(n_patients=6, segments_per_patient=4, fs=100.0,
                      t_total_s=5.0, seed=3)
    manifest = generate(cfg, tmp_path)
    for e in manifest.entries:
        seg = read_signal(tmp_path / e.path)
        assert np.abs(seg.samples).max() < 1024.0


def test_other_class_is_pure_background(tmp_path):
    manifest = generate(one_class_config(ClassId.OTHER, seed=4), tmp_path)
    seg = read_signal(tmp_path / manifest.entries[0].path)
    n = seg.samples.shape[1]
    flank, center = fifth_slices(n)
    for ch in range(16):
        p_f = bandpower(seg.samples[ch, flank], 100.0, 1, 3)
        p_c = bandpower(seg.samples[ch, center], 100.0, 1, 3)
        assert p_c < 20 * p_f + 1e3  # same order: no injected signature


def test_grda_delta_power_in_central_window_all_channels(tmp_path):
    manifest = generate(one_class_config(ClassId.GRDA, seed=5), tmp_path)
    for e in manifest.entries:
        seg = read_signal(tmp_path / e.path)
        n = seg.samples.shape[1]
        flank, center = fifth_slices(n)
        for ch in range(16):
            p_f = bandpower(seg.samples[ch, flank], 100.0, 1, 3)
            p_c = bandpower(seg.samples[ch, center], 100.0, 1, 3)
            assert p_c > 4 * p_f, f"segment {e.segment_id} channel {ch}"


def hemisphere_delta_ratio(x, channels):
    """Central-vs-flanking 1-3 Hz power pooled over one hemisphere.

    Pooling 8 channels tames the heavy tail of single-channel 3-bin
    estimates, which can spike past 10x on pure pink noise.
    """
    n = x.shape[1]
    flank, center = fifth_slices(n)
    c = sum(bandpower(x[ch, center], 100.0, 1, 3) for ch in channels)
    f = sum(bandpower(x[ch, flank], 100.0, 1, 3) for ch in channels)
    return c / f


def test_lrda_delta_power_on_exactly_one_hemisphere(tmp_path):
    manifest = generate(one_class_config(ClassId.LRDA, seed=6,
                                         n_patients=4), tmp_path)
    for e in manifest.entries:
        seg = read_signal(tmp_path / e.path)
        n = seg.samples.shape[1]
        flank, center = fifth_slices(n)
        left = hemisphere_delta_ratio(seg.samples, LEFT_CHANNELS)
        right = hemisphere_delta_ratio(seg.samples, RIGHT_CHANNELS)
        # one side lights up, the other stays at the noise floor
        assert max(left, right) > 4 and min(left, right) < 4, e.segment_id
        side = LEFT_CHANNELS if left > right else RIGHT_CHANNELS
        for ch in side:
            p_f = bandpower(seg.samples[ch, flank], 100.0, 1, 3)
            p_c = bandpower(seg.samples[ch, center], 100.0, 1, 3)
            assert p_c > 3 * p_f, f"segment {e.segment_id} channel {ch}"


def test_lpd_discharges_are_lateralized(tmp_path):
    manifest = generate(one_class_config(ClassId.LPD, seed=8), tmp_path)
    left, right = set(LEFT_CHANNELS), set(RIGHT_CHANNELS)
    seen_sides = set()
    for e in manifest.entries:
        seg = read_signal(tmp_path / e.path)
        n = seg.samples.shape[1]
        flank, center = fifth_slices(n)
        # broadband energy: discharges are sharp, not narrowband
        var_c = seg.samples[:, center].var(axis=1)
        var_f = seg.samples[:, flank].var(axis=1)
        elevated = {ch for ch in range(16) if var_c[ch] > 4 * var_f[ch]}
        assert elevated in (left, right), e.segment_id
        seen_sides.add("L" if elevated == left else "R")
    assert seen_sides == {"L", "R"}  # both hemispheres occur across draws


def test_swapping_hemispheres_maps_lrda_to_lrda(tmp_path):
    # left-right channel swap must move the signature to the other side
    manifest = generate(one_class_config(ClassId.LRDA, seed=9), tmp_path)
    seg = read_signal(tmp_path / manifest.entries[0].path)

    def hot_side(x):
        left = hemisphere_delta_ratio(x, LEFT_CHANNELS)
        right = hemisphere_delta_ratio(x, RIGHT_CHANNELS)
        assert max(left, right) > 4 and min(left, right) < 4
        return "L" if left > right else "R"

    before = hot_side(seg.samples)
    swapped = seg.samples.copy()
    swapped[list(LEFT_CHANNELS)], swapped[list(RIGHT_CHANNELS)] = (
        seg.samples[list(RIGHT_CHANNELS)],
        seg.samples[list(LEFT_CHANNELS)],
    )
    after = hot_side(swapped)
    assert {before, after} == {"L", "R"}


def test_seizure_band_sweep_present(tmp_path):
    manifest = generate(one_class_config(ClassId.SEIZURE, seed=10), tmp_path)
    seg = read_signal(tmp_path / manifest.entries[0].path)
    n = seg.samples.shape[1]
    flank, center = fifth_slices(n)
    for ch in range(16):
        p_f = bandpower(seg.samples[ch, flank], 100.0, 3, 12)
        p_c = bandpower(seg.samples[ch, center], 100.0, 3, 12)
        assert p_c > 4 * p_f


# --- noise floor ---


def test_pink_noise_rms_and_spectrum():
    rng = np.random.default_rng(0)
    x = pink_noise(rng, 4096, rms=15.0)
    assert abs(np.sqrt(np.mean(x**2)) - 15.0) < 1e-9
    # 1/f: low band carries more power than an equally wide high band
    lo = bandpower(x, 100.0, 1, 10)
    hi = bandpower(x, 100.0, 30, 39)
    assert lo > hi


def test_manifest_and_signals_on_disk(tmp_path):
    cfg = SynthConfig(n_patients=2, segments_per_patient=3, fs=100.0,
                      t_total_s=5.0, seed=11)
    manifest = generate(cfg, tmp_path, header_comment="seed=11")
    assert (tmp_path / "manifest.csv").exists()
    assert len(manifest.entries) == 6
    for e in manifest.entries:
        seg = read_signal(manifest.segment_path(e))
        assert seg.samples.shape == (16, 500)
        assert seg.fs == 100.0
        assert seg.patient_id == e.patient_id
