"""Plain-text output: legacy VTK snapshots and diagnostics CSV."""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .mesh import Mesh, cached


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _lines(template: str, values) -> str:
    """`template` filled with each row of `values` in turn; "%.17g" writes a
    float as `_fmt` does."""
    values = np.asarray(values)
    return (template * len(values)) % tuple(values.ravel().tolist())


@cached
def _vtk_geometry(mesh: Mesh) -> str:
    """The header, points, cells and cell types of `mesh`'s VTK snapshots."""
    ne = mesh.n_elems
    return ("# vtk DataFile Version 3.0\nnsfemdg snapshot\nASCII\nDATASET UNSTRUCTURED_GRID\n"
            f"POINTS {mesh.n_verts} double\n" + _lines("%.17g %.17g %.17g\n", mesh.vertices)
            + f"CELLS {ne} {5 * ne}\n" + _lines("4 %d %d %d %d\n", mesh.tets)
            + f"CELL_TYPES {ne}\n" + "10\n" * ne)


def write_vtk(path, mesh: Mesh, density, velocity):
    """Write a legacy-ASCII VTK unstructured grid with per-cell data.

    `density` is one value per element, `velocity` one 3-vector per element
    (the elementwise average of the velocity field).
    """
    with open(path, "w") as f:
        f.write(_vtk_geometry(mesh))
        f.write(f"CELL_DATA {mesh.n_elems}\nSCALARS density double 1\nLOOKUP_TABLE default\n"
                + _lines("%.17g\n", density)
                + "VECTORS velocity double\n" + _lines("%.17g %.17g %.17g\n", velocity))


def write_csv(path, rows: list[dict]):
    """Write rows that share their keys, such as a study's table; the first
    row's key order is the column order."""
    write_table(path, tuple(rows[0]), (row.values() for row in rows))


def write_table(path, header: tuple[str, ...], rows):
    """Write a table as CSV."""
    Path(path).write_text(",".join(header) + "\n")
    append_rows(path, rows)


def append_rows(path, rows):
    """Append rows to a CSV file.  Formatting is locale-independent and
    deterministic, so identical runs produce byte-identical files."""
    with open(path, "a") as f:
        f.writelines(",".join(_fmt(x) for x in row) + "\n" for row in rows)
