"""Stamped JSON records and stamp lines: util.write_record writes what
util.read_record reads, and util.stamp names the same hash."""

import json

import pytest

from test_train import base_record
from eegimage.model import ModelConfig
from eegimage.preprocess import FilterSpec
from eegimage.synthgen import SynthConfig
from eegimage.util import config_hash, read_record, stamp, write_record

EXTRA = dict(fold=2, best_val_loss=0.1234567891, fold_sizes=[3, 4], note="x")


@pytest.mark.parametrize("record, field", [
    (ModelConfig(backbone_channels=(8, 16), dropout_rate=0.3), "config"),
    (FilterSpec(fs=200.0, mode="causal"), "filter"),
    (SynthConfig(n_patients=7, noise_rms_uv=40.0, seed=3), "config"),
    (base_record(k=3, seed=4, augment=None), None),
], ids=["model-config", "filter", "synth-config", "run-record"])
def test_write_record_round_trips_through_read_record(tmp_path, record, field):
    path = tmp_path / "record.json"
    write_record(path, record, field, **EXTRA)
    back, doc = read_record(path, type(record), field)
    assert back == record
    assert doc["config_hash"] == config_hash(record)
    assert {k: doc[k] for k in EXTRA} == EXTRA
    assert path.read_text() == json.dumps(doc, sort_keys=True, indent=1) + "\n"


def test_extra_keys_cannot_displace_the_record_or_its_hash(tmp_path):
    path, cfg = tmp_path / "record.json", FilterSpec(fs=100.0)
    write_record(path, cfg, "filter", filter={"fs": 1.0}, config_hash="0" * 16)
    assert read_record(path, FilterSpec, "filter")[0] == cfg


def test_stamp_names_the_records_hash_and_the_seed():
    cfg = SynthConfig(seed=5)
    assert stamp(cfg, 9) == f"config_hash={config_hash(cfg)} seed=9"
