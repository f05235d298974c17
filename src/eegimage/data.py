"""Segments, annotations, manifests and folds.

The six activity classes use one fixed order everywhere: labels, vote
vectors, prediction vectors and report rows all index classes the same way.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np


class ClassId(enum.IntEnum):
    SEIZURE = 0
    LPD = 1
    GPD = 2
    LRDA = 3
    GRDA = 4
    OTHER = 5


N_CLASSES = 6
CLASS_NAMES = ("seizure", "lpd", "gpd", "lrda", "grda", "other")

SUBSET_LOW = "low_annotation"
SUBSET_HIGH = "high_quality"
HIGH_QUALITY_MIN_VOTES = 10

MANIFEST_COLUMNS = ("segment_id", "recording_id", "patient_id",
                    *(f"votes_{name}" for name in CLASS_NAMES), "subset", "path")

LEFT_CHANNELS = (0, 1, 2, 3, 8, 9, 10, 11)
RIGHT_CHANNELS = (4, 5, 6, 7, 12, 13, 14, 15)


@dataclass
class EegSegment:
    """One bipolar-montage EEG window in microvolts (or dimensionless 0-255
    after scaling)."""

    samples: np.ndarray  # [16 x T]
    fs: float
    segment_id: str
    recording_id: str
    patient_id: str

    def __post_init__(self):
        if not np.all(np.isfinite(self.samples)):
            raise ValueError(f"non-finite samples in segment {self.segment_id}")


def soft_label(votes: np.ndarray) -> np.ndarray:
    """Vote counts -> probability vector (divide by total votes)."""
    votes = np.asarray(votes, dtype=np.float64)
    if votes.shape != (N_CLASSES,):
        raise ValueError(f"votes must have shape ({N_CLASSES},)")
    if np.any(votes < 0):
        raise ValueError("negative vote count")
    total = votes.sum()
    if total < 1:
        raise ValueError("segment has zero votes")
    return votes / total


def consensus(votes: np.ndarray) -> ClassId:
    """Most-voted class; ties go to the lowest class index."""
    votes = np.asarray(votes)
    if votes.sum() < 1:
        raise ValueError("segment has zero votes")
    return ClassId(int(np.argmax(votes)))


@dataclass(frozen=True)
class ManifestEntry:
    segment_id: str
    recording_id: str
    patient_id: str
    votes: tuple[int, ...]
    subset: str
    path: str

    def votes_array(self) -> np.ndarray:
        return np.array(self.votes, dtype=np.int64)


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry]
    root: Path | None = None

    def __post_init__(self):
        seen_ids = set()
        rec_patient: dict[str, str] = {}
        for e in self.entries:
            if e.segment_id in seen_ids:
                raise ValueError(f"duplicate segment_id {e.segment_id}")
            seen_ids.add(e.segment_id)
            prev = rec_patient.setdefault(e.recording_id, e.patient_id)
            if prev != e.patient_id:
                raise ValueError(
                    f"recording {e.recording_id} maps to patients {prev} and {e.patient_id}"
                )

    def __len__(self) -> int:
        return len(self.entries)

    def patients(self) -> list[str]:
        return sorted({e.patient_id for e in self.entries})

    def votes_matrix(self) -> np.ndarray:
        return np.array([e.votes for e in self.entries], dtype=np.int64)

    def consensus_labels(self) -> np.ndarray:
        return np.array([int(consensus(e.votes_array())) for e in self.entries])

    def soft_labels(self) -> np.ndarray:
        return np.stack([soft_label(e.votes_array()) for e in self.entries])

    def segment_path(self, entry: ManifestEntry) -> Path:
        p = Path(entry.path)
        if not p.is_absolute() and self.root is not None:
            p = self.root / p
        return p


def subset_tag(votes: Iterable[int]) -> str:
    return SUBSET_HIGH if sum(votes) >= HIGH_QUALITY_MIN_VOTES else SUBSET_LOW


def save_manifest(manifest: DatasetManifest, path: Path, header_comment: str | None = None) -> None:
    path = Path(path)
    with open(path, "w", newline="") as f:
        if header_comment:
            f.write(f"# {header_comment}\n")
        writer = csv.writer(f)
        writer.writerow(MANIFEST_COLUMNS)
        for e in manifest.entries:
            writer.writerow(
                [e.segment_id, e.recording_id, e.patient_id, *e.votes, e.subset, e.path]
            )


def load_manifest(path: Path) -> DatasetManifest:
    """Read a manifest CSV ('#' lines are comments). Fails, naming the file,
    the line, the segment and the column, on a missing column, a vote that is
    not a non-negative integer, a row whose votes sum to 0, or no rows."""
    path = Path(path)
    entries = []
    with open(path, newline="") as f:
        numbered = [(no, ln) for no, ln in enumerate(f, 1) if not ln.startswith("#")]
    reader = csv.DictReader([ln for _, ln in numbered])
    missing = set(MANIFEST_COLUMNS) - set(reader.fieldnames or ())
    if missing:
        raise ValueError(f"manifest {path} missing columns: {sorted(missing)}")
    for row in reader:
        where = f"{path} line {numbered[reader.line_num - 1][0]}: segment {row['segment_id']!r}"
        votes = []
        for name in CLASS_NAMES:
            raw = (row[f"votes_{name}"] or "").strip()
            if not (raw.isascii() and raw.isdigit()):
                raise ValueError(f"{where}, column votes_{name}: {raw!r} is not a "
                                 "non-negative integer vote count")
            votes.append(int(raw))
        if sum(votes) == 0:
            raise ValueError(f"{where}, columns votes_*: the votes sum to 0")
        entries.append(
            ManifestEntry(
                segment_id=row["segment_id"],
                recording_id=row["recording_id"],
                patient_id=row["patient_id"],
                votes=tuple(votes),
                subset=row["subset"],
                path=row["path"],
            )
        )
    if not entries:
        raise ValueError(f"{path}: lists no segments")
    return DatasetManifest(entries, root=path.parent)


@dataclass(frozen=True)
class FoldAssignment:
    fold_of_patient: dict[str, int]
    k: int

    def fold_sizes(self) -> list[int]:
        sizes = [0] * self.k
        for f in self.fold_of_patient.values():
            sizes[f] += 1
        return sizes


def split_folds(manifest: DatasetManifest, k: int, seed: int) -> FoldAssignment:
    """Assign every patient to one of k folds, in a seeded random order, so
    that fold sizes in patients differ by at most one."""
    if k < 2:
        raise ValueError("k must be >= 2")
    patients = manifest.patients()
    if len(patients) < k:
        raise ValueError(f"need at least {k} patients, have {len(patients)}")
    rng = np.random.default_rng(seed)
    order = [patients[i] for i in rng.permutation(len(patients))]
    return FoldAssignment({pid: i % k for i, pid in enumerate(order)}, k)


# --- per-segment signal files: 8-line text header + raw float32 samples ---

SIGNAL_MAGIC = "eegimage-signal v1"


def write_signal(path: Path, seg: EegSegment) -> None:
    n_ch, t = seg.samples.shape
    header = (
        f"{SIGNAL_MAGIC}\n"
        f"segment_id={seg.segment_id}\n"
        f"recording_id={seg.recording_id}\n"
        f"patient_id={seg.patient_id}\n"
        f"fs={seg.fs!r}\n"
        f"channels={n_ch}\n"
        f"samples={t}\n"
        f"dtype=float32\n"
    )
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(np.ascontiguousarray(seg.samples, dtype="<f4").tobytes())


def read_signal(path: Path) -> EegSegment:
    """Read a file written by :func:`write_signal`; a malformed one fails
    naming the file and the field."""
    path = Path(path)
    with open(path, "rb") as f:
        try:
            header_lines = [f.readline().decode("ascii").rstrip("\n") for _ in range(8)]
        except UnicodeDecodeError:
            raise ValueError(f"{path}: header is not ASCII text") from None
        if header_lines[0] != SIGNAL_MAGIC:
            raise ValueError(f"{path}: not a {SIGNAL_MAGIC} file")
        meta = dict(line.split("=", 1) for line in header_lines[1:] if "=" in line)

        def field(name: str, kind=str):
            if name not in meta:
                raise ValueError(f"{path}: header has no {name} field")
            try:
                return kind(meta[name])
            except ValueError:
                raise ValueError(f"{path}: {name}: {meta[name]!r} is not "
                                 f"{'an integer' if kind is int else 'a number'}") from None

        n_ch, t = field("channels", int), field("samples", int)
        if field("dtype") != "float32":
            raise ValueError(f"{path}: unsupported dtype {meta['dtype']}")
        raw = f.read(n_ch * t * 4)
    if len(raw) != n_ch * t * 4:
        raise ValueError(f"{path}: samples: {len(raw)} bytes of data, but {n_ch} channels x "
                         f"{t} samples of float32 need {n_ch * t * 4}")
    samples = np.frombuffer(raw, dtype="<f4").reshape(n_ch, t).astype(np.float32)
    fs = field("fs", float)
    if not fs > 0:
        raise ValueError(f"{path}: fs: {fs} is not a positive rate")
    return EegSegment(
        samples=samples,
        fs=fs,
        segment_id=field("segment_id"),
        recording_id=field("recording_id"),
        patient_id=field("patient_id"),
    )


def read_segments(manifest: DatasetManifest, fs: float,
                  first: tuple[Path, tuple[int, int]] | None = None):
    """Yield the segment of every manifest entry, in order.

    Each segment must be sampled at fs and have the first segment's
    (channels, samples) shape; the first that does not fails naming its file
    and the field. first = (path, shape) names that first segment when it is
    not in this manifest, as for a block of a larger set.
    """
    for e in manifest.entries:
        p = manifest.segment_path(e)
        seg = read_signal(p)
        if first is None:
            first = (p, seg.samples.shape)
        if seg.fs != fs:
            raise ValueError(f"{p}: fs: sampled at {seg.fs} Hz, the filter expects {fs} Hz")
        if seg.samples.shape != first[1]:
            raise ValueError(f"{p}: shape: {seg.samples.shape} (channels, samples), "
                             f"the first segment {first[0]} is {first[1]}")
        yield seg
