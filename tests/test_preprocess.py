"""Signal conditioning: Butterworth bandpass design and application, amplitude
clipping, and the 0-255 scaling map."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from eegimage.preprocess import (
    CLIP_UV,
    SCALE_MAX,
    FilterSpec,
    clip_scale_array,
    design_bandpass,
    filter_array,
)

FS = 200.0

# --- oracle: evaluate the biquad cascade directly on the unit circle ---


def cascade_gain(sos, f_hz, fs):
    z = np.exp(2j * np.pi * f_hz / fs)
    h = 1.0 + 0j
    for b0, b1, b2, a0, a1, a2 in sos:
        h *= (b0 + b1 / z + b2 / z**2) / (a0 + a1 / z + a2 / z**2)
    return abs(h)


def gain(spec, freqs_hz):
    """|H| of spec's designed filter at each frequency (one pass), from the
    cascade oracle."""
    sos = design_bandpass(spec)
    return np.array([cascade_gain(sos, f, spec.fs) for f in freqs_hz])


def sine(freq_hz, fs=FS, dur_s=10.0, amp=1.0):
    t = np.arange(int(fs * dur_s)) / fs
    return amp * np.sin(2 * np.pi * freq_hz * t)[None, :]


def steady_amplitude(x, fs=FS, edge_s=1.0):
    core = x[int(fs * edge_s) : -int(fs * edge_s)]
    return (core.max() - core.min()) / 2


# --- FilterSpec validation ---


def test_spec_rejects_bad_band_edges():
    with pytest.raises(ValueError):
        FilterSpec(fs=FS, low_hz=45.0, high_hz=0.5)
    with pytest.raises(ValueError):
        FilterSpec(fs=FS, low_hz=0.0)
    with pytest.raises(ValueError):
        FilterSpec(fs=FS, high_hz=100.0)  # at Nyquist
    with pytest.raises(ValueError):
        FilterSpec(fs=80.0)  # default high edge 45 > fs/2


def test_spec_rejects_unknown_mode_and_bad_order():
    with pytest.raises(ValueError):
        FilterSpec(fs=FS, mode="forward_backward")
    with pytest.raises(ValueError):
        FilterSpec(fs=FS, order=0)


# --- filter design anchors ---


def test_dc_gain_is_exactly_zero():
    # bandpass has a zero at z=1, and the SOS sections keep it exact:
    # two sections have numerator coefficient sums of exactly 0.0
    sos = design_bandpass(FilterSpec(fs=FS))
    assert any(s[0] + s[1] + s[2] == 0.0 for s in sos)
    assert gain(FilterSpec(fs=FS), [0.0])[0] == 0.0


def test_unit_gain_at_geometric_center():
    fc = np.sqrt(0.5 * 45.0)
    g = gain(FilterSpec(fs=FS), [fc])[0]
    assert abs(20 * np.log10(g)) < 0.1


def test_minus_3db_at_band_corners():
    g = gain(FilterSpec(fs=FS), [0.5, 45.0])
    db = 20 * np.log10(g)
    assert np.all(np.abs(db - (-3.0103)) < 0.2)


def test_response_matches_direct_cascade_evaluation():
    spec = FilterSpec(fs=FS)
    sos = design_bandpass(spec)
    freqs = np.array([0.25, 0.5, 2.0, 4.743, 10.0, 30.0, 45.0, 60.0, 80.0])
    lib = np.abs(sps.sosfreqz(sos, worN=freqs, fs=FS)[1])
    direct = np.array([cascade_gain(sos, f, FS) for f in freqs])
    np.testing.assert_allclose(lib, direct, rtol=0, atol=1e-10)


def test_sos_shape_and_stability():
    sos = design_bandpass(FilterSpec(fs=FS))
    assert sos.shape == (3, 6)  # order-3 bandpass -> 6 poles -> 3 biquads
    # poles inside the unit circle
    for _, _, _, a0, a1, a2 in sos:
        roots = np.roots([a0, a1, a2])
        assert np.all(np.abs(roots) < 1.0)


# --- time-domain anchors ---


def test_constant_100uv_removed_zero_phase():
    const = np.full((2, int(FS * 10)), 100.0)
    out = filter_array(const, FilterSpec(fs=FS))
    assert np.abs(out).max() < 1.0


def test_constant_100uv_removed_causal_after_transient():
    const = np.full((1, int(FS * 10)), 100.0)
    out = filter_array(const, FilterSpec(fs=FS, mode="causal"))[0]
    assert np.abs(out[int(4 * FS) :]).max() < 1.0


def test_10hz_sine_passes_at_squared_magnitude():
    # forward-backward filtering applies |H| twice
    spec = FilterSpec(fs=FS)
    out = filter_array(sine(10.0), spec)[0]
    amp = steady_amplitude(out)
    h2 = gain(spec, [10.0])[0] ** 2
    db_err = 20 * np.log10(amp / h2)
    assert abs(db_err) < 0.5
    assert abs(20 * np.log10(amp)) < 0.5  # and |H(10)|^2 is ~unity itself


def test_80hz_sine_attenuated_20db():
    out = filter_array(sine(80.0), FilterSpec(fs=FS))[0]
    amp = steady_amplitude(out)
    assert 20 * np.log10(amp) <= -20.0


def test_80hz_attenuation_holds_single_pass_too():
    g = gain(FilterSpec(fs=FS), [80.0])[0]
    assert 20 * np.log10(g) <= -20.0


def test_zero_phase_has_no_group_delay():
    # band-limit white noise first so the xcorr peak is well defined
    rng = np.random.default_rng(0)
    spec = FilterSpec(fs=FS)
    band_limited = filter_array(rng.normal(size=(1, int(FS * 10))), spec)
    out = filter_array(band_limited, spec)[0]
    cc = np.correlate(out, band_limited[0], mode="full")
    lag = int(np.argmax(cc)) - (band_limited.shape[1] - 1)
    assert lag == 0


def test_causal_output_differs_from_zero_phase():
    x = sine(10.0)
    zp = filter_array(x, FilterSpec(fs=FS))
    ca = filter_array(x, FilterSpec(fs=FS, mode="causal"))
    assert not np.allclose(zp, ca)


# --- filtering is linear and channel-independent ---


@pytest.mark.parametrize("mode", ["zero_phase", "causal"])
def test_rows_filter_independently(mode):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 500)) * 50
    spec = FilterSpec(fs=FS, mode=mode)
    per_row = np.stack([filter_array(x[i : i + 1], spec)[0] for i in range(4)])
    np.testing.assert_array_equal(per_row, filter_array(x, spec))


def test_filter_is_linear():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 600))
    y = rng.normal(size=(1, 600))
    spec = FilterSpec(fs=FS)
    lhs = filter_array(3.0 * x - 0.5 * y, spec)
    rhs = 3.0 * filter_array(x, spec) - 0.5 * filter_array(y, spec)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_zero_phase_rejects_short_segments():
    spec = FilterSpec(fs=FS)
    with pytest.raises(ValueError, match="zero-phase"):
        filter_array(np.zeros((1, 18)), spec)  # 6*order exactly
    # one more sample is enough, and causal mode has no such floor
    filter_array(np.zeros((1, 19)), spec)
    filter_array(np.zeros((1, 5)), FilterSpec(fs=FS, mode="causal"))


# --- clip and scale ---


def test_scale_anchor_values():
    x = np.array([0.0, -5000.0, 5000.0, 512.0, -1024.0, 1024.0])
    y = clip_scale_array(x)
    np.testing.assert_allclose(
        y, [127.5, 0.0, 255.0, 191.25, 0.0, 255.0], rtol=0, atol=0
    )


def test_scale_output_range():
    rng = np.random.default_rng(3)
    x = rng.normal(scale=2000.0, size=(16, 400))
    y = clip_scale_array(x)
    assert y.min() >= 0.0 and y.max() <= SCALE_MAX


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32])
def test_scale_in_place_matches_the_out_of_place_expression(dtype):
    """The in-place arithmetic is bit-identical to clip, shift, multiply as
    three new arrays, and leaves the caller's array (often a view of the
    dataset) untouched."""
    rng = np.random.default_rng(5)
    x = rng.normal(scale=1500.0, size=(4, 7, 50)).astype(dtype)
    before = x.copy()
    want = (np.clip(x, -CLIP_UV, CLIP_UV) + CLIP_UV) * (SCALE_MAX / (2 * CLIP_UV))
    y = clip_scale_array(x[1:3])
    assert y.dtype == want.dtype
    np.testing.assert_array_equal(y, want[1:3])
    np.testing.assert_array_equal(x, before)


def test_scale_rejects_nan():
    x = np.zeros((2, 10))
    x[1, 3] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        clip_scale_array(x)


@given(st.lists(st.floats(-3000, 3000), min_size=2, max_size=40))
def test_scale_is_monotone(values):
    x = np.sort(np.asarray(values))
    y = clip_scale_array(x)
    assert np.all(np.diff(y) >= 0)


def unscale_array(y):
    """Inverse of clip_scale_array on in-range values (back to microvolts)."""
    return y * (2 * CLIP_UV / SCALE_MAX) - CLIP_UV


@given(
    st.lists(
        st.floats(-CLIP_UV, CLIP_UV, allow_nan=False), min_size=1, max_size=40
    )
)
@settings(max_examples=200)
def test_unscale_inverts_scale_in_range(values):
    x = np.asarray(values)
    np.testing.assert_allclose(unscale_array(clip_scale_array(x)), x, atol=1e-9)


def test_unscale_endpoint_values():
    np.testing.assert_allclose(
        unscale_array(np.array([0.0, 127.5, 255.0])), [-1024.0, 0.0, 1024.0]
    )


# --- pipeline order ---


def test_preprocess_segment_composes_filter_then_scale():
    # the pipeline's order: filter the microvolt signal, then clip and scale
    rng = np.random.default_rng(5)
    x = rng.normal(size=(16, 400)) * 200
    spec = FilterSpec(fs=FS)
    out = clip_scale_array(filter_array(x, spec))
    assert out.min() >= 0.0 and out.max() <= 255.0
    assert not np.array_equal(out, filter_array(clip_scale_array(x), spec))
