"""Plain-text output: legacy VTK snapshots and diagnostics CSV."""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .mesh import Mesh

def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_vtk(path, mesh: Mesh, density, velocity):
    """Write a legacy-ASCII VTK unstructured grid with per-cell data.

    `density` is one value per element, `velocity` one 3-vector per element
    (the elementwise average of the velocity field).
    """
    lines = [
        "# vtk DataFile Version 3.0",
        "nsfemdg snapshot",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.n_verts} double",
    ]
    for p in mesh.vertices:
        lines.append(f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}")
    ne = mesh.n_elems
    lines.append(f"CELLS {ne} {5 * ne}")
    for t in mesh.tets:
        lines.append(f"4 {t[0]} {t[1]} {t[2]} {t[3]}")
    lines.append(f"CELL_TYPES {ne}")
    lines.extend(["10"] * ne)

    lines += [f"CELL_DATA {ne}", "SCALARS density double 1", "LOOKUP_TABLE default"]
    lines.extend(_fmt(x) for x in density)
    lines.append("VECTORS velocity double")
    lines.extend(f"{_fmt(u[0])} {_fmt(u[1])} {_fmt(u[2])}" for u in velocity)

    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_csv(path, rows: list[dict]):
    """Write per-step diagnostics rows, which share their keys; the first
    row's key order is the column order."""
    write_table(path, tuple(rows[0]), (row.values() for row in rows))


def write_table(path, header: tuple[str, ...], rows):
    """Write a table as CSV, creating its directory first.  Formatting is
    locale-independent and deterministic, so identical runs produce
    byte-identical files."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(x) for x in row) + "\n")
