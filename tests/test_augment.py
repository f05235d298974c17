"""Training-time augmentations: involution algebra, mask accounting, chain
permutation safety, and deterministic seeding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegimage.augment import (
    AugmentConfig,
    apply_array,
    invert,
    mask_window_array,
    permute_chains,
    swap_lr,
    time_reverse,
)
from eegimage.data import LEFT_CHANNELS, RIGHT_CHANNELS


def random_samples(seed=0, n_ch=16, t=200):
    # normal draws are nonzero almost surely, so masked entries are countable
    return np.random.default_rng(seed).normal(size=(n_ch, t)) * 40


def sorted_rows(x):
    return x[np.lexsort(x.T[::-1])]


# --- config validation ---


def test_config_rejects_bad_probability():
    with pytest.raises(ValueError):
        AugmentConfig(p_mask=1.5)
    with pytest.raises(ValueError):
        AugmentConfig(p_invert=-0.1)


def test_config_rejects_bad_mask_fraction():
    with pytest.raises(ValueError):
        AugmentConfig(mask_max_frac=0.0)
    with pytest.raises(ValueError):
        AugmentConfig(mask_max_frac=0.6)


# --- involutions ---


def test_invert_is_exact_involution():
    x = random_samples(1)
    np.testing.assert_array_equal(invert(invert(x)), x)
    np.testing.assert_array_equal(invert(x), -x)


def test_time_reverse_is_exact_involution():
    x = random_samples(2)
    np.testing.assert_array_equal(time_reverse(time_reverse(x)), x)
    np.testing.assert_array_equal(time_reverse(x)[:, 0], x[:, -1])


def test_swap_lr_is_exact_involution():
    x = random_samples(3)
    np.testing.assert_array_equal(swap_lr(swap_lr(x)), x)


def test_swap_lr_exchanges_hemispheres():
    x = random_samples(4)
    out = swap_lr(x)
    left = np.asarray(LEFT_CHANNELS)
    right = np.asarray(RIGHT_CHANNELS)
    np.testing.assert_array_equal(out[left], x[right])
    np.testing.assert_array_equal(out[right], x[left])


@given(
    do_inv=st.booleans(),
    do_rev=st.booleans(),
    do_swap=st.booleans(),
    order=st.permutations([0, 1, 2]),
)
@settings(max_examples=100)
def test_involutions_commute(do_inv, do_rev, do_swap, order):
    # invert scales, time_reverse acts on time, swap_lr on channels: the three
    # generate a commutative group, so application order never matters
    x = random_samples(5, n_ch=16, t=50)
    ops = [
        invert if do_inv else None,
        time_reverse if do_rev else None,
        swap_lr if do_swap else None,
    ]
    ref = x
    for op in ops:
        if op is not None:
            ref = op(ref)
    out = x
    for i in order:
        if ops[i] is not None:
            out = ops[i](out)
    np.testing.assert_array_equal(out, ref)


# --- masking ---


def test_mask_zero_length_is_identity():
    x = random_samples(6)
    np.testing.assert_array_equal(mask_window_array(x, 10, 0, [0, 3]), x)


def test_mask_full_extent_zeroes_everything():
    x = random_samples(7)
    out = mask_window_array(x, 0, x.shape[1], list(range(16)))
    assert np.all(out == 0.0)


def test_mask_changes_exactly_len_times_channels_entries():
    x = random_samples(8)
    channels = [2, 5, 11]
    out = mask_window_array(x, 40, 25, channels)
    changed = out != x
    assert int(changed.sum()) == 25 * len(channels)
    assert np.all(out[changed.nonzero()] == 0.0)
    # untouched entries are bit-identical
    np.testing.assert_array_equal(out[~changed], x[~changed])


def test_mask_rejects_out_of_range_window():
    x = random_samples(9)
    with pytest.raises(ValueError):
        mask_window_array(x, -1, 5, [0])
    with pytest.raises(ValueError):
        mask_window_array(x, 190, 20, [0])


def test_mask_does_not_modify_input():
    x = random_samples(10)
    before = x.copy()
    mask_window_array(x, 0, 50, [1])
    np.testing.assert_array_equal(x, before)


# --- chain permutation ---


def test_permute_identity():
    x = random_samples(11)
    np.testing.assert_array_equal(permute_chains(x, [0, 1, 2, 3]), x)


def test_permute_preserves_row_multiset():
    x = random_samples(12)
    out = permute_chains(x, [2, 0, 3, 1])
    np.testing.assert_array_equal(sorted_rows(out), sorted_rows(x))
    assert not np.array_equal(out, x)


def test_permute_round_trip_with_inverse():
    x = random_samples(13)
    perm = [3, 0, 1, 2]
    inverse = np.argsort(perm)
    np.testing.assert_array_equal(permute_chains(permute_chains(x, perm), inverse), x)


def test_permute_moves_whole_chains():
    x = random_samples(14)
    out = permute_chains(x, [1, 0, 2, 3])
    np.testing.assert_array_equal(out[0:4], x[4:8])
    np.testing.assert_array_equal(out[4:8], x[0:4])
    np.testing.assert_array_equal(out[8:], x[8:])


def test_permute_rejects_non_permutation():
    x = random_samples(15)
    with pytest.raises(ValueError):
        permute_chains(x, [0, 1, 2, 2])
    with pytest.raises(ValueError):
        permute_chains(x, [0, 1, 2])


# --- the combined apply ---


def test_all_zero_probabilities_is_identity():
    x = random_samples(16)
    cfg = AugmentConfig(
        p_mask=0.0, p_permute=0.0, p_invert=0.0, p_time_reverse=0.0, p_swap_lr=0.0
    )
    out = apply_array(x, cfg, np.random.default_rng(0))
    np.testing.assert_array_equal(out, x)


def test_apply_deterministic_under_fixed_stream():
    x = random_samples(17)
    cfg = AugmentConfig()
    a = apply_array(x, cfg, np.random.default_rng(42))
    b = apply_array(x, cfg, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


def test_independent_streams_do_not_interact():
    # per-sample child streams can be consumed in any order
    x1, x2 = random_samples(18), random_samples(19)
    cfg = AugmentConfig()
    s1, s2 = np.random.SeedSequence(7).spawn(2)
    a1 = apply_array(x1, cfg, np.random.default_rng(s1))
    a2 = apply_array(x2, cfg, np.random.default_rng(s2))
    b2 = apply_array(x2, cfg, np.random.default_rng(s2))
    b1 = apply_array(x1, cfg, np.random.default_rng(s1))
    np.testing.assert_array_equal(a1, b1)
    np.testing.assert_array_equal(a2, b2)


def test_mask_only_apply_zeroes_one_contiguous_window():
    x = random_samples(20)
    cfg = AugmentConfig(
        p_mask=1.0, p_permute=0.0, p_invert=0.0, p_time_reverse=0.0, p_swap_lr=0.0
    )
    out = apply_array(x, cfg, np.random.default_rng(3))
    changed = out != x
    assert changed.any()
    assert np.all(out[changed.nonzero()] == 0.0)
    cols = np.unique(changed.nonzero()[1])
    assert cols.size <= max(1, int(cfg.mask_max_frac * x.shape[1]))
    assert np.array_equal(cols, np.arange(cols[0], cols[-1] + 1))
    # every masked channel covers the same window
    rows = np.unique(changed.nonzero()[0])
    for r in rows:
        np.testing.assert_array_equal(changed[r].nonzero()[0], cols)


def test_deterministic_ops_preserve_amplitude_distribution():
    # invert/time_reverse/swap_lr/permute never change the sample multiset
    x = random_samples(22)
    cfg = AugmentConfig(
        p_mask=0.0, p_permute=1.0, p_invert=0.0, p_time_reverse=1.0, p_swap_lr=1.0
    )
    out = apply_array(x, cfg, np.random.default_rng(5))
    np.testing.assert_array_equal(np.sort(np.abs(out), axis=None), np.sort(np.abs(x), axis=None))
