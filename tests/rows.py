"""Turn the rows that tests draw into the arrays and column batches the package takes."""

from dataclasses import fields

import numpy as np

from cascadev.geometry import Boxes
from cascadev.overlap import Detections


def xyz(points) -> np.ndarray:
    """Point3 rows as an (N, 3) float array, (0, 3) for no rows."""
    return np.array([(p.x, p.y, p.z) for p in points], dtype=np.float64).reshape(-1, 3)


def detections(rows) -> Detections:
    """The Detections batch holding a Detection list's rows, in order."""
    boxes = Boxes.of([d.box for d in rows])
    return Detections(boxes.centers, boxes.sizes, boxes.yaws,
                      np.array([d.class_id for d in rows], dtype=np.int64),
                      np.array([d.score for d in rows], dtype=np.float64),
                      np.array([d.stage for d in rows], dtype=np.int64))


def same_bits(a, b) -> bool:
    """Whether two column batches are of one type and hold the same columns bit for bit."""
    return type(a) is type(b) and all(
        getattr(a, f.name).shape == getattr(b, f.name).shape
        and getattr(a, f.name).dtype == getattr(b, f.name).dtype
        and getattr(a, f.name).tobytes() == getattr(b, f.name).tobytes()
        for f in fields(a))
