"""The CSV writer's byte contract as a test oracle: per-cell conversion, then ``csv.writer``."""

import csv

import numpy as np


def reference_write_table(path, columns):
    """Per-cell conversion by dtype, then ``csv.writer``: the writer's byte contract."""
    cells = []
    for values in columns.values():
        values = np.asarray(values)
        if values.dtype.kind == "f":
            cells.append([repr(v) for v in values.tolist()])
        elif values.dtype.kind in "biu":
            cells.append([str(int(v)) for v in values.tolist()])
        else:
            cells.append(values.tolist())
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(zip(*cells, strict=True))
