"""Minimal COCO-style annotation and detection file ingest.

Annotation files carry three arrays: ``images`` (id, width, height),
``annotations`` (image_id, bbox as [x, y, width, height], category_id) and
``categories`` (id, name). bbox converts to (x, y, x+w, y+h) at this boundary.
Detection files are a flat array of {image_id, category_id, bbox, score}.
"""

from __future__ import annotations

import json
from pathlib import Path
import numpy as np

from .evaluation import Detections, _image_index
from .geometry import Box, _argument, _bounded, _number
from .simulator import Scene


class AnnotationError(Exception):
    """Raised when an annotation or detection file fails to parse."""


def _require(record, key: str, where: str, kind):
    """``record[key]`` checked as ``_argument`` checks a field of ``kind``; AnnotationError
    naming the record ``where`` when it is not a JSON object, lacks the key, or the value
    is refused."""
    if not isinstance(record, dict):
        raise AnnotationError(f"{where}: expected an object, got {record!r}")
    if key not in record:
        raise AnnotationError(f"{where}: missing required field {key!r} in {record!r}")
    try:
        return _argument(key, kind, record[key], "field")
    except ValueError as exc:
        raise AnnotationError(f"{where}: {exc}") from exc


def _image_id(value):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"image id must be an integer or a string, got {value!r}")
    return value


def _corners(bbox) -> tuple[float, float, float, float]:
    """(x, y, x + width, y + height) of a bbox [x, y, width, height]."""
    if not isinstance(bbox, (list, tuple)) or len(bbox) != 4:
        raise ValueError(f"must be [x, y, width, height], got {bbox!r}")
    x, y, w, h = (float(_number(v)) for v in bbox)
    if not (x + w > x and y + h > y):
        raise ValueError(f"width and height must be positive, got {bbox!r}")
    return x, y, x + w, y + h


def _read_json(path, kind: type, expected: str):
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise AnnotationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, kind):
        raise AnnotationError(f"{path}: expected {expected}")
    return data


def _section(data: dict, key: str, path) -> list:
    """The array ``data[key]``, empty when the key is absent."""
    records = data.get(key, [])
    if not isinstance(records, list):
        raise AnnotationError(f'{path}: "{key}" must be an array')
    return records


def load_annotations(path) -> tuple[list[tuple[object, Scene]], dict[int, str]]:
    """Parse an annotation file into per-image ground truth.

    Returns (image id, scene) pairs in file order (including images without
    annotations) and the category id -> name mapping.
    """
    data = _read_json(path, dict, "a JSON object at the top level")
    images: dict[object, tuple[int, int, list[Box], list[int]]] = {}
    for k, record in enumerate(_section(data, "images", path)):
        where = f"{path}: images[{k}]"
        image_id = _require(record, "id", where, _image_id)
        width = _require(record, "width", where, _bounded(int, 1))
        height = _require(record, "height", where, _bounded(int, 1))
        if image_id in images:
            raise AnnotationError(f"{where}: duplicate image id {image_id!r}")
        images[image_id] = (width, height, [], [])
    if not images:
        raise AnnotationError(f"{path}: no images")

    for k, record in enumerate(_section(data, "annotations", path)):
        where = f"{path}: annotations[{k}]"
        image_id = _require(record, "image_id", where, _image_id)
        if image_id not in images:
            raise AnnotationError(f"{where}: unknown image id {image_id!r}")
        _, _, boxes, class_ids = images[image_id]
        boxes.append(Box(*_require(record, "bbox", where, _corners)))
        class_ids.append(_require(record, "category_id", where, int))

    categories = {}
    for k, record in enumerate(_section(data, "categories", path)):
        where = f"{path}: categories[{k}]"
        categories[_require(record, "id", where, int)] = str(record.get("name", ""))
    scenes = [(i, Scene(w, h, tuple(b), tuple(c))) for i, (w, h, b, c) in images.items()]
    return scenes, categories


def load_detections(path, known_image_ids) -> Detections:
    """Parse a detection results file; every image id must be known."""
    image_ids, boxes, scores, classes = [], [], [], []
    for k, record in enumerate(_read_json(path, list, "a JSON array of detections")):
        where = f"{path}: detections[{k}]"
        image_ids.append(_require(record, "image_id", where, _image_id))
        boxes.append(_require(record, "bbox", where, _corners))
        scores.append(float(_require(record, "score", where, _bounded(float, 0, 1))))
        classes.append(_require(record, "category_id", where, int))

    unknown = sorted(set(image_ids) - set(known_image_ids), key=repr)
    if unknown:
        raise AnnotationError(f"{path}: detections reference unknown image ids: {unknown}")
    images, index = _image_index(image_ids)
    return Detections(np.reshape(boxes, (-1, 4)), scores, classes, images, index)
