"""Tests for VTK/CSV writers: structure, round-trips, determinism."""

import numpy as np
import pytest

from nsfemdg import io
from nsfemdg.mesh import build_box_mesh

DIAGNOSTICS_HEADER = ("step,t,mass,kinetic,internal,grad_diss,D2,D5,min_rho,energy_margin,"
                      "positivity_slack,newton_iters,alpha_nodes_used")


def test_fmt_integers_stay_integers():
    assert io._fmt(3) == "3"
    assert io._fmt(np.int64(-7)) == "-7"


@pytest.mark.parametrize("x", [0.1, -1.0 / 3.0, 1e-300, 2.2250738585072014e-308,
                               123456789.123456789, np.float64(np.pi)])
def test_fmt_floats_round_trip_exactly(x):
    assert float(io._fmt(x)) == float(x)


def test_write_csv_round_trip_and_determinism(tmp_path):
    rows = [
        {c: (i if c in ("step", "newton_iters", "alpha_nodes_used") else 0.1 * i + 1 / 3)
         for c in DIAGNOSTICS_HEADER.split(",")}
        for i in range(3)
    ]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    io.write_csv(p1, rows)
    io.write_csv(p2, rows)
    assert p1.read_bytes() == p2.read_bytes()

    lines = p1.read_text().strip().splitlines()
    assert lines[0] == DIAGNOSTICS_HEADER
    assert len(lines) == 4
    parsed = [float(tok) for tok in lines[2].split(",")]
    assert parsed[0] == 1
    assert parsed[2] == 0.1 + 1 / 3  # exact binary round-trip via repr-quality format


def test_write_table(tmp_path):
    path = tmp_path / "made" / "t.csv"   # the directory is made with the table
    io.write_table(path, ("n", "value"), [(2, np.float64(1.5)), (np.int32(4), 0.25)])
    assert path.read_text() == "n,value\n2,1.5\n4,0.25\n"


def test_write_vtk_structure_and_data(tmp_path):
    mesh = build_box_mesh(1)
    density = np.linspace(0.5, 1.5, mesh.n_elems)
    velocity = np.arange(3 * mesh.n_elems, dtype=float).reshape(-1, 3) / 10.0
    path = tmp_path / "snap.vtk"
    io.write_vtk(path, mesh, density=density, velocity=velocity)

    lines = path.read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"

    i = lines.index(f"POINTS {mesh.n_verts} double")
    pts = np.array([[float(t) for t in lines[i + 1 + k].split()]
                    for k in range(mesh.n_verts)])
    np.testing.assert_array_equal(pts, mesh.vertices)

    j = lines.index(f"CELLS {mesh.n_elems} {5 * mesh.n_elems}")
    for k in range(mesh.n_elems):
        toks = [int(t) for t in lines[j + 1 + k].split()]
        assert toks[0] == 4
        np.testing.assert_array_equal(toks[1:], mesh.tets[k])

    ct = lines.index(f"CELL_TYPES {mesh.n_elems}")
    assert all(lines[ct + 1 + k] == "10" for k in range(mesh.n_elems))

    assert f"CELL_DATA {mesh.n_elems}" in lines
    s = lines.index("SCALARS density double 1")
    assert lines[s + 1] == "LOOKUP_TABLE default"
    got = np.array([float(lines[s + 2 + k]) for k in range(mesh.n_elems)])
    np.testing.assert_array_equal(got, density)

    vi = lines.index("VECTORS velocity double")
    got_v = np.array([[float(t) for t in lines[vi + 1 + k].split()]
                      for k in range(mesh.n_elems)])
    np.testing.assert_array_equal(got_v, velocity)

