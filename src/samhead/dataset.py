"""Dataset container: per-image records plus ground truth and proposals, with disk IO.

An ``ImageSample`` holds its annotations as one ``GroundTruth`` and its
proposals as one ``ScoredBoxes`` (see ``geometry``), whose columns the
box-file readers in ``formats`` check.

Directory layout::

    <root>/meta.json            image ids (JSON strings, each listed once),
                                per-image [w, h] sizes (``image_sizes``), layer
                                geometry, generator echo
    <root>/annotations.jsonl    exactly one row per id (possibly an empty box
                                list); a row for an id not in meta.json, a
                                second row or a missing one is an error
    <root>/proposals.jsonl      exactly one row per id, under the same rule
    <root>/maps/<id>.fmap       CNN feature maps, channel-last (see formats)
    <root>/maps/<id>.lmap       label map (optional)
    <root>/maps/<id>.emap       edge map (optional)

An image id names its map files, so it must be a plain file name: not empty,
``.`` or ``..``, and without ``/``, ``\\`` or NUL.  ``load`` and ``save``
refuse any other id before they touch a map file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import DataError
from .formats import (
    read_edge_map,
    read_feature_maps,
    read_ground_truth_jsonl,
    read_label_map,
    read_json,
    read_proposals_jsonl,
    write_edge_map,
    write_feature_maps,
    write_ground_truth_jsonl,
    write_json,
    write_label_map,
    write_proposals_jsonl,
)
from .geometry import GroundTruth, ScoredBoxes
from .maps import ImageRecord


def _check_image_id(image_id: str, where) -> None:
    if image_id in ("", ".", "..") or any(c in image_id for c in "/\\\0"):
        raise DataError(f"{where}: image id {image_id!r} is not a plain file name")


@dataclass
class ImageSample:
    """One image's record, annotations, and proposals."""

    record: ImageRecord
    ground_truth: GroundTruth = field(default_factory=GroundTruth)
    proposals: ScoredBoxes = field(default_factory=ScoredBoxes)

    @property
    def image_id(self) -> str:
        return self.record.image_id


@dataclass
class Dataset:
    samples: list[ImageSample]
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    @property
    def image_ids(self) -> list[str]:
        return [s.image_id for s in self.samples]

    def ground_truth_by_image(self) -> dict[str, GroundTruth]:
        return {s.image_id: s.ground_truth for s in self.samples}

    def proposals_by_image(self) -> dict[str, ScoredBoxes]:
        return {s.image_id: s.proposals for s in self.samples}

    def layer_channels(self) -> dict[str, int]:
        """Channel count per layer name, validated to be uniform across images."""
        out: dict[str, int] = {}
        for s in self.samples:
            for name, fm in s.record.feature_maps.items():
                if out.setdefault(name, fm.channels) != fm.channels:
                    raise DataError(f"layer {name!r} has inconsistent channel counts")
        return out

    def subset_by_height(self, min_height: float, max_height: float | None) -> "Dataset":
        """A view for scale-restricted training: out-of-range ground truth
        becomes ignore (it seeds no positives and shields overlapping boxes
        from the negative pool)."""
        samples = []
        for s in self.samples:
            g = s.ground_truth
            h = g.boxes[:, 3]
            inside = (h >= min_height) & (max_height is None or h < max_height)
            gts = GroundTruth(g.boxes, g.occl, g.trunc, g.ignore | ~inside)
            samples.append(ImageSample(record=s.record, ground_truth=gts, proposals=s.proposals))
        return Dataset(samples=samples, meta=dict(self.meta))

    def save(self, root: str | Path) -> None:
        root = Path(root)
        for s in self.samples:
            _check_image_id(s.image_id, root)
        (root / "maps").mkdir(parents=True, exist_ok=True)
        for s in self.samples:
            rec = s.record
            write_feature_maps(root / "maps" / f"{s.image_id}.fmap",
                               list(rec.feature_maps.values()))
            if rec.label_map is not None:
                write_label_map(root / "maps" / f"{s.image_id}.lmap", rec.label_map)
            if rec.edge_map is not None:
                write_edge_map(root / "maps" / f"{s.image_id}.emap", rec.edge_map)
        write_ground_truth_jsonl(root / "annotations.jsonl", self.ground_truth_by_image())
        write_proposals_jsonl(root / "proposals.jsonl", self.proposals_by_image())
        write_json(root / "meta.json", {
            **self.meta,
            "image_ids": self.image_ids,
            "image_sizes": [[s.record.image_w, s.record.image_h] for s in self.samples],
        })

    @classmethod
    def load(cls, root: str | Path) -> "Dataset":
        root = Path(root)
        meta_path = root / "meta.json"
        if not meta_path.exists():
            raise DataError(f"{root} is not a dataset directory (missing meta.json)")
        meta = read_json(meta_path)
        if not (isinstance(meta, dict) and isinstance(meta.get("image_ids"), list)):
            raise DataError(f"{meta_path} must hold a JSON object with an image_ids list")
        ids = meta["image_ids"]
        sizes = meta.get("image_sizes")
        # int() would truncate 64.9 and accept "64" and true.
        if not isinstance(sizes, list) or not all(
            isinstance(s, list) and len(s) == 2 and set(map(type, s)) <= {int} for s in sizes
        ):
            raise DataError(f"{meta_path}: bad image sizes; image_sizes must list "
                            "[width, height] JSON integer pairs")
        if len(sizes) != len(ids):
            raise DataError(f"{meta_path}: {len(sizes)} image sizes for {len(ids)} images")
        seen = set()
        for image_id in ids:
            if not isinstance(image_id, str):
                raise DataError(f"{meta_path}: image id {image_id!r} is not a JSON string")
            _check_image_id(image_id, meta_path)
            if image_id in seen:
                raise DataError(f"{meta_path}: image id {image_id!r} is listed more than once")
            seen.add(image_id)
        gts = read_ground_truth_jsonl(root / "annotations.jsonl")
        props = read_proposals_jsonl(root / "proposals.jsonl")
        for name, rows in (("annotations.jsonl", gts), ("proposals.jsonl", props)):
            unknown = sorted(set(rows) - seen)
            if unknown:
                raise DataError(f"{root / name}: image id {unknown[0]!r} is not in meta.json")
            missing = [image_id for image_id in ids if image_id not in rows]
            if missing:
                raise DataError(f"{root / name}: no row for image id {missing[0]!r}")
        samples = []
        for image_id, (image_w, image_h) in zip(ids, sizes):
            layers = read_feature_maps(root / "maps" / f"{image_id}.fmap")
            lmap_path = root / "maps" / f"{image_id}.lmap"
            emap_path = root / "maps" / f"{image_id}.emap"
            record = ImageRecord(
                image_id=image_id,
                image_w=image_w,
                image_h=image_h,
                feature_maps={fm.layer_name: fm for fm in layers},
                label_map=read_label_map(lmap_path) if lmap_path.exists() else None,
                edge_map=read_edge_map(emap_path) if emap_path.exists() else None,
            )
            samples.append(ImageSample(record=record, ground_truth=gts[image_id],
                                       proposals=props[image_id]))
        return cls(samples=samples, meta=meta)
