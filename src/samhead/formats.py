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

Box files hold an image's boxes as one ``GroundTruth`` or ``ScoredBoxes``
(see ``geometry``).  A reader checks one column at a time, once for the
whole file (``_BoxFile``), naming the line of its first offending box.

Box rows (``_write/_read_box_rows``): JSON lines of ``{"image_id": "...",
"boxes": [...]}``.  A ground-truth box (``write/read_ground_truth_jsonl``)
holds x, y, w, h, occl, trunc and ignore (occl and trunc default to 0,
ignore to false); a proposal (``write/read_proposals_jsonl``) x, y, w, h and
score.  Refused, naming the line: invalid JSON, a row of another shape, a
second row for an image id; then, column by column, a coordinate that is
missing or not a JSON number (a bool is not) in float range, a box not
finite or not of positive extent, a score, occl or trunc outside [0, 1], an
ignore that is not true or false.

Detections CSV (``write/read_detections_csv``): header
``image_id,x,y,w,h,score``, values by ``repr``.  Refused: a wrong header;
naming the line, a row width or number, a box as above, a score not finite.
An image's rows need not be adjacent; ids keep the order of their first row.

JSON documents (``write/read_json``): sorted keys, indent 2, final newline;
invalid JSON is refused.  ``pipeline.save_model`` writes model files compact.
"""

from __future__ import annotations

import csv
import itertools
import json
import operator
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DataError
from .geometry import GroundTruth, ScoredBoxes
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


# --- box files: JSON lines and the detections CSV --------------------------

_COORDS = ("x", "y", "w", "h")


class _BoxFile:
    """A box file's boxes in file order (for JSON lines, their ``objects``) and their lines."""

    def __init__(self, path, kind: str, lines, objects=()):
        self.path, self.kind, self.objects = path, kind, objects
        self.lines = np.asarray(lines, dtype=np.int64)

    def refuse(self, bad: np.ndarray, message) -> None:
        """Refuse the file at the line of the first box ``bad`` flags; ``message(i)`` says why."""
        if bad.any():
            i = int(np.argmax(bad))
            raise FormatError(f"{self.path}:{self.lines[i]}: bad {self.kind} box ({message(i)})")

    def boxes(self, columns) -> np.ndarray:
        """The x, y, w, h ``columns`` as rows, each finite with a positive extent."""
        boxes = np.column_stack(columns).reshape(-1, 4)
        self.refuse(~np.isfinite(boxes).all(axis=1),
                    lambda i: f"box coordinates must be finite, got {tuple(boxes[i].tolist())}")
        self.refuse((boxes[:, 2:] <= 0).any(axis=1),
                    lambda i: f"box extent must be positive, got w={boxes[i, 2]} h={boxes[i, 3]}")
        return boxes

    def fraction(self, values: np.ndarray, name: str) -> np.ndarray:
        self.refuse(~((values >= 0.0) & (values <= 1.0)),
                    lambda i: f"{name} must be in [0, 1], got {values[i]}")
        return values

    def column(self, key: str, default=None, types=frozenset((int, float))) -> np.ndarray:
        """``key`` of every box object, float64 (bool for ``types`` {bool}); ``default``
        fills an absent key."""
        get = (operator.itemgetter(key) if default is None
               else operator.methodcaller("get", key, default))
        dtype, what = (bool, "true or false") if types == {bool} else (np.float64, "a number")
        try:
            values = list(map(get, self.objects))
            if set(map(type, values)) <= types:
                return np.array(values, dtype=dtype)
        except (KeyError, OverflowError):  # OverflowError: a JSON integer past float range
            pass

        def check(box):
            if type(value := get(box)) not in types:
                raise ValueError(f"{key} must be {what}, got {value!r}")
            np.array(value, dtype=dtype)

        self.scan(self.objects, check)

    def scan(self, items, check):
        """Refuse the file at the first box ``check`` raises on: a failed column's rescan."""
        for item, line in zip(items, self.lines):
            try:
                check(item)
            except (KeyError, ValueError, OverflowError) as e:
                raise FormatError(f"{self.path}:{line}: bad {self.kind} box ({e})") from None
        raise FormatError(f"{self.path}: bad {self.kind} box")


def _split(counts: dict[str, int], make) -> dict:
    """``make(rows)`` for each image id's slice of the file-order columns."""
    ends = itertools.accumulate(counts.values())
    return {image_id: make(slice(end - n, end)) for (image_id, n), end in zip(counts.items(), ends)}


def _write_box_rows(path: str | Path, by_image: dict, columns) -> None:
    """One ``{"image_id", "boxes"}`` line per image; ``columns(record)`` maps keys to values."""
    with open(path, "w", encoding="utf-8") as f:
        for image_id, record in by_image.items():
            cols = columns(record)
            boxes = [dict(zip(cols, values)) for values in zip(*cols.values())]
            f.write(json.dumps({"image_id": image_id, "boxes": boxes}, sort_keys=True) + "\n")


def _read_box_rows(path: str | Path, kind: str) -> tuple[_BoxFile, dict[str, int]]:
    """The rows ``_write_box_rows`` wrote: every box object, and each image's box count."""
    counts: dict[str, int] = {}
    lines, objects = [], []
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
                    and set(map(type, row["boxes"])) <= {dict}):
                raise FormatError(
                    f"{path}:{lineno}: expected an object with image_id (a string) "
                    "and a list of box objects"
                )
            image_id = row["image_id"]
            if image_id in counts:
                raise FormatError(f"{path}:{lineno}: image id {image_id!r} has a second row")
            counts[image_id] = len(row["boxes"])
            lines += [lineno] * len(row["boxes"])
            objects += row["boxes"]
    return _BoxFile(path, kind, lines, objects), counts


def write_ground_truth_jsonl(path: str | Path, by_image: dict[str, GroundTruth]) -> None:
    _write_box_rows(path, by_image, lambda g: {
        **dict(zip(_COORDS, g.boxes.T.tolist())), "occl": g.occl.tolist(),
        "trunc": g.trunc.tolist(), "ignore": g.ignore.tolist(),
    })


def read_ground_truth_jsonl(path: str | Path) -> dict[str, GroundTruth]:
    f, counts = _read_box_rows(path, "ground-truth")
    boxes = f.boxes([f.column(k) for k in _COORDS])
    occl, trunc = (f.fraction(f.column(k, 0.0), k) for k in ("occl", "trunc"))
    ignore = f.column("ignore", False, {bool})
    return _split(counts, lambda r: GroundTruth(boxes[r], occl[r], trunc[r], ignore[r]))


def write_proposals_jsonl(path: str | Path, by_image: dict[str, ScoredBoxes]) -> None:
    _write_box_rows(path, by_image, lambda c: {
        **dict(zip(_COORDS, c.boxes.T.tolist())), "score": c.scores.tolist(),
    })


def read_proposals_jsonl(path: str | Path) -> dict[str, ScoredBoxes]:
    f, counts = _read_box_rows(path, "proposal")
    boxes = f.boxes([f.column(k) for k in _COORDS])
    scores = f.fraction(f.column("score"), "score")
    return _split(counts, lambda r: ScoredBoxes(boxes[r], scores[r]))


_CSV_HEADER = ["image_id", "x", "y", "w", "h", "score"]


def write_detections_csv(path: str | Path, by_image: dict[str, ScoredBoxes]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(_CSV_HEADER)
        for image_id, dets in by_image.items():
            columns = (*dets.boxes.T.tolist(), dets.scores.tolist())
            writer.writerows(zip(itertools.repeat(image_id), *(map(repr, c) for c in columns)))


def read_detections_csv(path: str | Path) -> dict[str, ScoredBoxes]:
    """Detections per image id, ids in the order of their first row; rows keep file order."""
    with open_text(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != _CSV_HEADER:
            raise FormatError(f"{path}: unexpected header {header}")
        rows = list(reader)
    widths = np.array(list(map(len, rows)), dtype=np.int64)
    rows = list(itertools.compress(rows, widths))  # a blank line is no row
    f = _BoxFile(path, "detection", np.flatnonzero(widths) + 2)
    widths = widths[widths > 0]
    f.refuse(widths != 6, lambda i: f"expected 6 fields, got {widths[i]}")
    ids, *columns = zip(*rows) if rows else ((),) * 6
    try:
        values = [np.array(list(map(float, c)), dtype=np.float64) for c in columns]
    except ValueError:
        f.scan(rows, lambda row: list(map(float, row[1:])))
    boxes, scores = f.boxes(values[:4]), values[4]
    f.refuse(~np.isfinite(scores), lambda i: f"score must be finite, got {scores[i]}")
    # Rows grouped by image id: a stable sort on the rank of each id's first row.
    rank = dict(zip(dict.fromkeys(ids), itertools.count()))
    image = np.array(list(map(rank.__getitem__, ids)), dtype=np.int64)
    order = np.argsort(image, kind="stable")
    counts = dict(zip(rank, np.bincount(image, minlength=len(rank)).tolist()))
    return _split(counts, lambda r: ScoredBoxes(boxes[order[r]], scores[order[r]]))


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
