"""On-disk formats: FMAP/LMAP/EMAP binaries, JSON-lines boxes, CSV detections.

All binary formats are little-endian.  Layout:

FMAP: magic ``FMAP`` | version u32 (=2) | layer_count u32 | per layer:
      name_len u32, name bytes (UTF-8), stride u32, C u32, H u32, W u32,
      H*W*C float32 values, row-major over (H, W, C): each pixel's C
      channels are contiguous, as ``FeatureMap.hwc`` holds them, so a
      layer loads as a view of the file's bytes.  Layer names are unique.
LMAP: magic ``LMAP`` | version u32 (=1) | H u32 | W u32 | H*W uint8 class indices.
EMAP: magic ``EMAP`` | version u32 (=1) | H u32 | W u32 | H*W float32 in [0, 1].
"""

from __future__ import annotations

import csv
import json
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DataError
from .geometry import Box, Candidate, Detection, GroundTruthBox
from .maps import NUM_LABEL_CLASSES, EdgeMap, FeatureMap, LabelMap

FMAP_VERSION = 2
#: Version of the LMAP and EMAP formats.
MAP_VERSION = 1

_U32 = struct.Struct("<I")
_HEADER4 = struct.Struct("<4I")


class FormatError(DataError):
    """A file does not conform to its declared format."""


class BadMagicError(FormatError):
    pass


class UnsupportedVersionError(FormatError):
    pass


class TruncatedPayloadError(FormatError):
    pass


class DimensionError(FormatError):
    """Header declares an impossible stride or shape."""


class ValueRangeError(FormatError):
    """A payload value is outside the format's legal range."""

    def __init__(self, message: str, index: int):
        super().__init__(f"{message} (first offending flat index {index})")
        self.index = index


@contextmanager
def open_text(path: str | Path, newline: str | None = None):
    """``path`` opened for reading as UTF-8; bytes that are not UTF-8 are a FormatError."""
    with open(path, encoding="utf-8", newline=newline) as f:
        try:
            yield f
        except UnicodeDecodeError as e:
            raise FormatError(f"{path} is not UTF-8 text: {e}") from None


def read_text(path: str | Path) -> str:
    """The whole of ``path`` as UTF-8 text, as ``open_text`` reads it."""
    with open_text(path) as f:
        return f.read()


class _Reader:
    """Cursor over a file's bytes; ``take`` hands out views, never copies."""

    def __init__(self, data: bytes, what: str):
        self.data = memoryview(data)
        self.pos = 0
        self.what = what

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise TruncatedPayloadError(
                f"{self.what}: needed {n} bytes at offset {self.pos}, "
                f"file has {len(self.data)}"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def expect_magic(self, magic: bytes) -> None:
        got = bytes(self.take(4))
        if got != magic:
            raise BadMagicError(f"{self.what}: expected magic {magic!r}, got {got!r}")

    def expect_version(self, version: int) -> None:
        v = self.u32()
        if v != version:
            raise UnsupportedVersionError(f"{self.what}: unsupported version {v}")

    def done(self) -> None:
        if self.pos != len(self.data):
            raise FormatError(
                f"{self.what}: {len(self.data) - self.pos} trailing bytes after payload"
            )


def _write_chunks(path: str | Path, chunks: list) -> None:
    """Write bytes and C-contiguous arrays back to back, without joining them first."""
    with open(path, "wb") as f:
        f.writelines(chunks)


def write_feature_maps(path: str | Path, layers: list[FeatureMap]) -> None:
    chunks: list = [b"FMAP", _U32.pack(FMAP_VERSION), _U32.pack(len(layers))]
    for fm in layers:
        name = fm.layer_name.encode("utf-8")
        chunks += [_U32.pack(len(name)), name,
                   _HEADER4.pack(fm.stride, fm.channels, fm.height, fm.width),
                   np.ascontiguousarray(fm.hwc, dtype="<f4")]
    _write_chunks(path, chunks)


def read_feature_maps(path: str | Path) -> list[FeatureMap]:
    r = _Reader(Path(path).read_bytes(), str(path))
    r.expect_magic(b"FMAP")
    r.expect_version(FMAP_VERSION)
    count = r.u32()
    layers: list[FeatureMap] = []
    for _ in range(count):
        name_len = r.u32()
        name = bytes(r.take(name_len)).decode("utf-8")
        if any(fm.layer_name == name for fm in layers):
            raise FormatError(f"{path}: layer {name!r} appears more than once")
        stride = r.u32()
        c = r.u32()
        h = r.u32()
        w = r.u32()
        if min(c, h, w) < 1:
            raise DimensionError(f"{path}: layer {name!r} declares shape ({c}, {h}, {w})")
        hwc = np.frombuffer(r.take(4 * c * h * w), dtype="<f4").reshape(h, w, c)
        # FeatureMap stores this view as it is, and scans for non-finite
        # values; only a rejected layer is scanned again, to name the first
        # offending index into the payload.
        try:
            layers.append(FeatureMap(name, stride, hwc.transpose(2, 0, 1)))
        except DataError as e:
            bad = np.flatnonzero(~np.isfinite(hwc))
            if bad.size:
                raise ValueRangeError(f"{path}: layer {name!r} has non-finite value",
                                      int(bad[0])) from None
            raise DimensionError(f"{path}: {e}") from None
    r.done()
    return layers


def write_label_map(path: str | Path, lmap: LabelMap) -> None:
    _write_chunks(path, [b"LMAP", _U32.pack(MAP_VERSION),
                         _U32.pack(lmap.height), _U32.pack(lmap.width), lmap.data])


def read_label_map(path: str | Path) -> LabelMap:
    r = _Reader(Path(path).read_bytes(), str(path))
    r.expect_magic(b"LMAP")
    r.expect_version(MAP_VERSION)
    h = r.u32()
    w = r.u32()
    if min(h, w) < 1:
        raise DimensionError(f"{path}: label map declares shape ({h}, {w})")
    data = np.frombuffer(r.take(h * w), dtype=np.uint8).reshape(h, w)
    r.done()
    # LabelMap checks the class range; a rejected map is scanned again for
    # the first offending index.
    try:
        return LabelMap(data)
    except DataError:
        bad = np.flatnonzero(data >= NUM_LABEL_CLASSES)
        raise ValueRangeError(
            f"{path}: class index {int(data.flat[bad[0]])} outside [0, {NUM_LABEL_CLASSES - 1}]",
            int(bad[0]),
        ) from None


def write_edge_map(path: str | Path, emap: EdgeMap) -> None:
    _write_chunks(path, [b"EMAP", _U32.pack(MAP_VERSION), _U32.pack(emap.height),
                         _U32.pack(emap.width), np.ascontiguousarray(emap.data, dtype="<f4")])


def read_edge_map(path: str | Path) -> EdgeMap:
    r = _Reader(Path(path).read_bytes(), str(path))
    r.expect_magic(b"EMAP")
    r.expect_version(MAP_VERSION)
    h = r.u32()
    w = r.u32()
    if min(h, w) < 1:
        raise DimensionError(f"{path}: edge map declares shape ({h}, {w})")
    data = np.frombuffer(r.take(4 * h * w), dtype="<f4").reshape(h, w)
    r.done()
    # EdgeMap checks finiteness and range; a rejected map is scanned again
    # for the first offending index.
    try:
        return EdgeMap(data)
    except DataError:
        bad = np.flatnonzero(~((data >= 0.0) & (data <= 1.0)))
        raise ValueRangeError(f"{path}: edge value outside [0, 1]", int(bad[0])) from None


# --- JSON-lines box files -------------------------------------------------
#
# One object per line: {"image_id": "...", "boxes": [...]}.  Ground-truth boxes
# carry occl/trunc/ignore; proposal boxes carry a score.


def write_ground_truth_jsonl(path: str | Path, by_image: dict[str, list[GroundTruthBox]]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for image_id, gts in by_image.items():
            row = {
                "image_id": image_id,
                "boxes": [
                    {
                        "x": g.box.x, "y": g.box.y, "w": g.box.w, "h": g.box.h,
                        "occl": g.occlusion, "trunc": g.truncation, "ignore": g.ignore,
                    }
                    for g in gts
                ],
            }
            f.write(json.dumps(row, sort_keys=True) + "\n")


def _jsonl_rows(path: str | Path):
    with open_text(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                raise FormatError(f"{path}:{lineno}: invalid JSON ({e})") from None
            if not (isinstance(row, dict) and isinstance(row.get("image_id"), str)
                    and isinstance(row.get("boxes"), list)
                    and all(isinstance(b, dict) for b in row["boxes"])):
                raise FormatError(
                    f"{path}:{lineno}: expected an object with image_id (a string) "
                    "and a list of box objects"
                )
            yield lineno, row


def read_ground_truth_jsonl(path: str | Path) -> dict[str, list[GroundTruthBox]]:
    out: dict[str, list[GroundTruthBox]] = {}
    for lineno, row in _jsonl_rows(path):
        boxes = []
        for b in row["boxes"]:
            try:
                boxes.append(
                    GroundTruthBox(
                        Box(float(b["x"]), float(b["y"]), float(b["w"]), float(b["h"])),
                        occlusion=float(b.get("occl", 0.0)),
                        truncation=float(b.get("trunc", 0.0)),
                        ignore=bool(b.get("ignore", False)),
                    )
                )
            except (KeyError, TypeError, ValueError, DataError) as e:
                raise FormatError(f"{path}:{lineno}: bad ground-truth box ({e})") from None
        out[row["image_id"]] = boxes
    return out


def write_proposals_jsonl(path: str | Path, by_image: dict[str, list[Candidate]]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for image_id, cands in by_image.items():
            row = {
                "image_id": image_id,
                "boxes": [
                    {"x": c.box.x, "y": c.box.y, "w": c.box.w, "h": c.box.h, "score": c.score}
                    for c in cands
                ],
            }
            f.write(json.dumps(row, sort_keys=True) + "\n")


def read_proposals_jsonl(path: str | Path) -> dict[str, list[Candidate]]:
    out: dict[str, list[Candidate]] = {}
    for lineno, row in _jsonl_rows(path):
        cands = []
        for b in row["boxes"]:
            try:
                cands.append(
                    Candidate(
                        Box(float(b["x"]), float(b["y"]), float(b["w"]), float(b["h"])),
                        score=float(b["score"]),
                    )
                )
            except (KeyError, TypeError, ValueError, DataError) as e:
                raise FormatError(f"{path}:{lineno}: bad proposal box ({e})") from None
        out[row["image_id"]] = cands
    return out


# --- detections CSV and metrics JSON --------------------------------------


def write_detections_csv(path: str | Path, by_image: dict[str, list[Detection]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["image_id", "x", "y", "w", "h", "score"])
        for image_id, dets in by_image.items():
            for d in dets:
                writer.writerow([image_id, repr(d.box.x), repr(d.box.y),
                                 repr(d.box.w), repr(d.box.h), repr(d.score)])


def read_detections_csv(path: str | Path) -> dict[str, list[Detection]]:
    out: dict[str, list[Detection]] = {}
    with open_text(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != ["image_id", "x", "y", "w", "h", "score"]:
            raise FormatError(f"{path}: unexpected header {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 6:
                raise FormatError(f"{path}:{lineno}: expected 6 fields, got {len(row)}")
            try:
                det = Detection(
                    Box(float(row[1]), float(row[2]), float(row[3]), float(row[4])),
                    score=float(row[5]),
                )
            except (ValueError, DataError) as e:
                raise FormatError(f"{path}:{lineno}: {e}") from None
            out.setdefault(row[0], []).append(det)
    return out


def write_metrics_json(path: str | Path, metrics: dict) -> None:
    Path(path).write_text(json.dumps(metrics, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def read_metrics_json(path: str | Path) -> dict:
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: invalid JSON ({e})") from None
