"""Edit the array columns of artifact documents the way a hand-edited file would.

A column object is {"base64", "dtype", "shape"}: the array's little-endian
bytes in C order. These helpers decode and encode it from that definition
alone, without the package's reader and its checks.
"""

import base64

import numpy as np


def decode(col: dict) -> np.ndarray:
    raw = base64.b64decode(col["base64"])
    return np.frombuffer(raw, dtype=col["dtype"]).reshape(col["shape"]).copy()


def encode(a, dtype: str) -> dict:
    a = np.asarray(a, dtype=dtype)
    return {"base64": base64.b64encode(a.tobytes()).decode("ascii"), "dtype": dtype,
            "shape": list(a.shape)}


def edit_column(doc: dict, key: str, edit) -> None:
    """Replace column doc[key] by its array after edit, in the column's dtype: edit
    changes the array in place and returns None, or returns the new array."""
    a = decode(doc[key])
    out = edit(a)
    doc[key] = encode(a if out is None else out, doc[key]["dtype"])


def as_lists(doc):
    """doc with every column object replaced by nested JSON lists (the 2.x layout)."""
    if isinstance(doc, dict):
        if doc.keys() == {"base64", "dtype", "shape"}:
            return decode(doc).tolist()
        return {k: as_lists(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [as_lists(v) for v in doc]
    return doc
