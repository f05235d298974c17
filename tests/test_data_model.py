"""Segments, labels, manifests and fold splitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_manifest
from eegimage.data import (
    CLASS_NAMES,
    HIGH_QUALITY_MIN_VOTES,
    ClassId,
    DatasetManifest,
    EegSegment,
    ManifestEntry,
    consensus,
    load_manifest,
    read_signal,
    save_manifest,
    soft_label,
    split_folds,
    subset_tag,
    write_signal,
)

# --- classes ---


def test_class_order_is_fixed():
    assert [c.name for c in ClassId] == ["SEIZURE", "LPD", "GPD", "LRDA", "GRDA", "OTHER"]
    assert [int(c) for c in ClassId] == [0, 1, 2, 3, 4, 5]
    assert CLASS_NAMES == ("seizure", "lpd", "gpd", "lrda", "grda", "other")


# --- segments ---


def seg_kwargs(**kw):
    base = dict(
        samples=np.zeros((16, 1000), dtype=np.float32),
        fs=100.0,
        segment_id="s0",
        recording_id="r0",
        patient_id="p0",
    )
    base.update(kw)
    return base


def test_segment_validation():
    EegSegment(**seg_kwargs())  # valid
    bad = np.zeros((16, 1000), dtype=np.float32)
    bad[3, 7] = np.inf
    with pytest.raises(ValueError):
        EegSegment(**seg_kwargs(samples=bad))


# --- labels ---


def test_soft_label_anchors():
    assert np.array_equal(soft_label(np.array([3, 0, 0, 0, 0, 0])),
                          [1, 0, 0, 0, 0, 0])
    assert np.array_equal(soft_label(np.array([10, 10, 0, 0, 0, 0])),
                          [0.5, 0.5, 0, 0, 0, 0])
    got = soft_label(np.array([1, 2, 3, 4, 5, 5]))
    assert np.allclose(got, [0.05, 0.10, 0.15, 0.20, 0.25, 0.25], atol=1e-15)


def test_soft_label_errors():
    with pytest.raises(ValueError):
        soft_label(np.zeros(6))
    with pytest.raises(ValueError):
        soft_label(np.array([1, -1, 1, 0, 0, 0]))
    with pytest.raises(ValueError):
        soft_label(np.array([1, 2, 3]))


@given(st.lists(st.integers(0, 28), min_size=6, max_size=6).filter(lambda v: sum(v) >= 1))
@settings(max_examples=300, deadline=None)
def test_soft_label_always_normalized(votes):
    p = soft_label(np.array(votes))
    assert abs(p.sum() - 1.0) < 1e-12
    assert p.min() >= 0.0


def test_consensus_anchors():
    assert consensus(np.array([5, 3, 0, 0, 0, 0])) == ClassId.SEIZURE
    assert consensus(np.array([0, 0, 0, 0, 0, 7])) == ClassId.OTHER
    assert consensus(np.array([4, 4, 0, 0, 0, 0])) == ClassId.SEIZURE


def test_consensus_zero_votes():
    with pytest.raises(ValueError):
        consensus(np.zeros(6, dtype=int))


@given(st.permutations(list(range(6))), st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_consensus_equivariant_under_permutation(perm, seed):
    rng = np.random.default_rng(seed)
    votes = rng.permutation(np.array([1, 3, 7, 12, 20, 28]))  # distinct counts
    base = int(consensus(votes))
    shuffled = np.empty(6, dtype=votes.dtype)
    for new_pos, old_pos in enumerate(perm):
        shuffled[new_pos] = votes[old_pos]
    got = int(consensus(shuffled))
    assert perm[got] == base


# --- manifests ---


def test_manifest_rejects_duplicate_segment_ids():
    e = ManifestEntry("s0", "r0", "p0", (1, 0, 0, 0, 0, 0), "low_annotation", "x")
    with pytest.raises(ValueError):
        DatasetManifest([e, e])


def test_manifest_rejects_recording_spanning_patients():
    e1 = ManifestEntry("s0", "r0", "p0", (1, 0, 0, 0, 0, 0), "low_annotation", "x")
    e2 = ManifestEntry("s1", "r0", "p1", (1, 0, 0, 0, 0, 0), "low_annotation", "x")
    with pytest.raises(ValueError):
        DatasetManifest([e1, e2])


def test_subset_tag_boundary():
    assert subset_tag([9, 0, 0, 0, 0, 0]) == "low_annotation"
    assert subset_tag([5, 5, 0, 0, 0, 0]) == "high_quality"
    assert HIGH_QUALITY_MIN_VOTES == 10


def test_manifest_csv_round_trip(tmp_path):
    manifest = make_manifest(n_patients=4, segments_per_patient=3, seed=1)
    path = tmp_path / "manifest.csv"
    save_manifest(manifest, path, header_comment="config_hash=abc seed=1")
    loaded = load_manifest(path)
    assert loaded.entries == manifest.entries
    assert loaded.root == tmp_path
    first = path.read_text().splitlines()[0]
    assert first.startswith("#")


def test_manifest_missing_column_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("segment_id,patient_id\ns0,p0\n")
    with pytest.raises(ValueError):
        load_manifest(path)


# --- fold splitting ---


def test_split_folds_balanced_case():
    manifest = make_manifest(n_patients=10, segments_per_patient=2, seed=0)
    folds = split_folds(manifest, k=5, seed=0)
    assert folds.fold_sizes() == [2, 2, 2, 2, 2]


def test_split_folds_deterministic():
    manifest = make_manifest(n_patients=9, segments_per_patient=2, seed=0)
    a = split_folds(manifest, k=4, seed=7)
    b = split_folds(manifest, k=4, seed=7)
    assert a.fold_of_patient == b.fold_of_patient


def test_split_folds_large_cohort_near_balanced():
    manifest = make_manifest(n_patients=1063, segments_per_patient=1, seed=2)
    folds = split_folds(manifest, k=5, seed=3)
    sizes = folds.fold_sizes()
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == 1063


def test_split_folds_errors():
    manifest = make_manifest(n_patients=3, segments_per_patient=1, seed=0)
    with pytest.raises(ValueError):
        split_folds(manifest, k=5, seed=0)
    with pytest.raises(ValueError):
        split_folds(manifest, k=1, seed=0)


@given(st.integers(2, 5), st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_fold_hygiene_property(k, seed):
    rng = np.random.default_rng(seed)
    n_patients = int(rng.integers(k, 30))
    manifest = make_manifest(n_patients, int(rng.integers(1, 5)), seed=seed)
    folds = split_folds(manifest, k=k, seed=seed)
    by_patient = {}
    for e in manifest.entries:
        f = folds.fold_of_patient[e.patient_id]
        by_patient.setdefault(e.patient_id, set()).add(f)
    assert all(len(v) == 1 for v in by_patient.values())
    sizes = folds.fold_sizes()
    assert max(sizes) - min(sizes) <= 1


# --- signal files ---


def test_signal_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    seg = EegSegment(**seg_kwargs(samples=rng.normal(size=(16, 1000)).astype(np.float32)))
    path = tmp_path / "s0.eeg"
    write_signal(path, seg)
    loaded = read_signal(path)
    assert np.array_equal(loaded.samples, seg.samples)
    assert loaded.fs == seg.fs
    assert loaded.segment_id == seg.segment_id
    assert loaded.patient_id == seg.patient_id
    assert loaded.samples.shape[1] / loaded.fs == 10.0


def test_signal_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.eeg"
    path.write_bytes(b"not a signal file\n" + b"\x00" * 64)
    with pytest.raises(ValueError):
        read_signal(path)


def _cut_mid_sample(data):
    return data[:-3]


def _cut_whole_sample(data):
    return data[:-4 * 16]


def _header_edit(old, new):
    return lambda data: data.replace(old, new, 1)


@pytest.mark.parametrize("damage,field", [
    (_cut_mid_sample, "samples"),
    (_cut_whole_sample, "samples"),
    (_header_edit(b"channels=16\n", b"chanels=16\n"), "channels"),
    (_header_edit(b"samples=1000\n", b"samples=1e3\n"), "samples"),
    (_header_edit(b"fs=100.0\n", b"fs=fast\n"), "fs"),
    (_header_edit(b"fs=100.0\n", b"fs=0.0\n"), "fs"),
    (_header_edit(b"dtype=float32\n", b"dtype\n"), "dtype"),
    (_header_edit(b"patient_id=p0\n", b"patient_id\xff\n"), "ASCII"),
])
def test_signal_damage_fails_naming_the_file_and_field(tmp_path, damage, field):
    path = tmp_path / "s0.eeg"
    write_signal(path, EegSegment(**seg_kwargs()))
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(ValueError) as info:
        read_signal(path)
    assert str(info.value).startswith(f"{path}: ") and field in str(info.value)
