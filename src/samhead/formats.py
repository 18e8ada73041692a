"""On-disk formats: one reader and one writer per file shape.

A reader refuses a file that breaks its format, or is not UTF-8 text, with
a FormatError naming the file (CLI exit 3).  Binaries are little-endian.

FMAP (``write/read_feature_maps``): magic ``FMAP`` | version u32 (=2) |
layer_count u32 | per layer: name_len u32, name bytes (UTF-8), stride u32,
C u32, H u32, W u32, H*W*C float32 values, row-major over (H, W, C): each
pixel's C channels are contiguous, as ``FeatureMap.hwc`` holds them, so a
layer loads as a view of the file's bytes.  Refused: a wrong magic or
version, a short payload or trailing bytes, a layer name that is not UTF-8
or is repeated, a zero dimension, an unsupported stride, a non-finite value.

Single-plane maps (``_write/_read_plane``): magic | version u32 (=1) | H u32
| W u32 | H*W values, refused as FMAP's are.  LMAP (``write/read_label_map``)
holds uint8 classes and refuses one past 20; EMAP (``write/read_edge_map``)
holds float32 and refuses one outside [0, 1], naming its flat index.

Box rows (``_write/_read_box_rows``): JSON lines of ``{"image_id": "...",
"boxes": [...]}``.  A ground-truth box (``write/read_ground_truth_jsonl``)
holds x, y, w, h, occl, trunc and ignore; a proposal
(``write/read_proposals_jsonl``) x, y, w, h and score.  Refused, naming the
line: invalid JSON, a row of another shape, a second row for an image id, a
missing coordinate or score, a value that is not a JSON number (a bool is
not), an ignore that is not true or false, a box its type rejects.

Detections CSV (``write/read_detections_csv``): header
``image_id,x,y,w,h,score``; a wrong header, row width or value is refused.

JSON documents (``write/read_json``): sorted keys, indent 2, final newline;
invalid JSON is refused.  ``pipeline.save_model`` writes model files compact.
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
        try:
            name = bytes(r.take(name_len)).decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{path}: a layer name is not UTF-8: {e}") from None
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


def _write_plane(path: str | Path, magic: bytes, dtype: str, data: np.ndarray) -> None:
    h, w = data.shape
    _write_chunks(path, [magic, _U32.pack(MAP_VERSION), _U32.pack(h), _U32.pack(w),
                         np.ascontiguousarray(data, dtype=dtype)])


def _read_plane(path: str | Path, magic: bytes, dtype: str, what: str) -> np.ndarray:
    """The (H, W) payload of a single-plane map file, as a view of its bytes."""
    r = _Reader(Path(path).read_bytes(), str(path))
    r.expect_magic(magic)
    r.expect_version(MAP_VERSION)
    h = r.u32()
    w = r.u32()
    if min(h, w) < 1:
        raise DimensionError(f"{path}: {what} map declares shape ({h}, {w})")
    data = np.frombuffer(r.take(np.dtype(dtype).itemsize * h * w), dtype=dtype).reshape(h, w)
    r.done()
    return data


def write_label_map(path: str | Path, lmap: LabelMap) -> None:
    _write_plane(path, b"LMAP", "u1", lmap.data)


def read_label_map(path: str | Path) -> LabelMap:
    data = _read_plane(path, b"LMAP", "u1", "label")
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
    _write_plane(path, b"EMAP", "<f4", emap.data)


def read_edge_map(path: str | Path) -> EdgeMap:
    data = _read_plane(path, b"EMAP", "<f4", "edge")
    # EdgeMap checks finiteness and range; a rejected map is scanned again
    # for the first offending index.
    try:
        return EdgeMap(data)
    except DataError:
        bad = np.flatnonzero(~((data >= 0.0) & (data <= 1.0)))
        raise ValueRangeError(f"{path}: edge value outside [0, 1]", int(bad[0])) from None


# --- JSON-lines box files -------------------------------------------------


def _write_box_rows(path: str | Path, by_image: dict[str, list], fields) -> None:
    """One ``{"image_id", "boxes"}`` line per image; ``fields`` maps an item to a box object."""
    with open(path, "w", encoding="utf-8") as f:
        for image_id, items in by_image.items():
            row = {"image_id": image_id, "boxes": [fields(item) for item in items]}
            f.write(json.dumps(row, sort_keys=True) + "\n")


def _read_box_rows(path: str | Path, kind: str, make) -> dict[str, list]:
    """The rows ``_write_box_rows`` wrote; ``make`` builds an item from a box object."""
    out: dict[str, list] = {}
    with open_text(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except (ValueError, RecursionError) as e:  # as in read_json
                raise FormatError(f"{path}:{lineno}: invalid JSON ({e})") from None
            if not (isinstance(row, dict) and isinstance(row.get("image_id"), str)
                    and isinstance(row.get("boxes"), list)
                    and all(isinstance(b, dict) for b in row["boxes"])):
                raise FormatError(
                    f"{path}:{lineno}: expected an object with image_id (a string) "
                    "and a list of box objects"
                )
            image_id = row["image_id"]
            if image_id in out:
                raise FormatError(f"{path}:{lineno}: image id {image_id!r} has a second row")
            # OverflowError: float() of a JSON integer past float range.
            try:
                out[image_id] = [make(b) for b in row["boxes"]]
            except (KeyError, ValueError, OverflowError) as e:
                raise FormatError(f"{path}:{lineno}: bad {kind} box ({e})") from None
    return out


def _number(box: dict, key: str, default: float | None = None) -> float:
    """``box[key]``, or ``default`` if given and the key is absent; a bool is not a number."""
    value = box[key] if default is None else box.get(key, default)
    if type(value) not in (int, float):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _box(b: dict) -> Box:
    return Box(_number(b, "x"), _number(b, "y"), _number(b, "w"), _number(b, "h"))


def _ground_truth(b: dict) -> GroundTruthBox:
    ignore = b.get("ignore", False)
    if type(ignore) is not bool:
        raise ValueError(f"ignore must be true or false, got {ignore!r}")
    return GroundTruthBox(_box(b), occlusion=_number(b, "occl", 0.0),
                          truncation=_number(b, "trunc", 0.0), ignore=ignore)


def write_ground_truth_jsonl(path: str | Path, by_image: dict[str, list[GroundTruthBox]]) -> None:
    _write_box_rows(path, by_image, lambda g: {
        "x": g.box.x, "y": g.box.y, "w": g.box.w, "h": g.box.h,
        "occl": g.occlusion, "trunc": g.truncation, "ignore": g.ignore,
    })


def read_ground_truth_jsonl(path: str | Path) -> dict[str, list[GroundTruthBox]]:
    return _read_box_rows(path, "ground-truth", _ground_truth)


def write_proposals_jsonl(path: str | Path, by_image: dict[str, list[Candidate]]) -> None:
    _write_box_rows(path, by_image, lambda c: {
        "x": c.box.x, "y": c.box.y, "w": c.box.w, "h": c.box.h, "score": c.score,
    })


def read_proposals_jsonl(path: str | Path) -> dict[str, list[Candidate]]:
    return _read_box_rows(path, "proposal", lambda b: Candidate(_box(b), _number(b, "score")))


# --- detections CSV and JSON documents ------------------------------------


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


def write_json(path: str | Path, doc) -> None:
    """``doc`` as JSON with sorted keys, indented by 2, and a final newline."""
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def read_json(path: str | Path):
    """The JSON document in ``path``; text that is not JSON is a FormatError naming it."""
    try:
        with open_text(path) as f:
            return json.load(f)
    # ValueError: a JSONDecodeError, or an integer too long to convert;
    # RecursionError: arrays or objects nested too deep to parse.
    except (ValueError, RecursionError) as e:
        raise FormatError(f"{path} is not valid JSON: {e}") from None
