"""Turn the Point3 rows that tests draw into the arrays the package's kernels take."""

import numpy as np


def xyz(points) -> np.ndarray:
    """Point3 rows as an (N, 3) float array, (0, 3) for no rows."""
    return np.array([(p.x, p.y, p.z) for p in points], dtype=np.float64).reshape(-1, 3)
