"""Fixtures shared by the test modules.  Each is module-scoped, so that every
module builds its own meshes and fills its own mesh caches."""
import numpy as np
import pytest

from nsfemdg import scheme
from nsfemdg.mesh import _mesh_from_tets, build_box_mesh


@pytest.fixture(scope="module")
def mesh1():
    return build_box_mesh(1)


@pytest.fixture(scope="module")
def mesh2():
    return build_box_mesh(2)


@pytest.fixture(scope="module", params=[0, 1])
def shuffled3(request):
    """The n = 3 mesh rebuilt from its tets in a random element order, about
    half of them with their vertices rotated by an even permutation, which
    keeps each tet's orientation but changes its face keys and which vertex
    lies opposite each local face.  The parameter seeds the shuffle."""
    rng = np.random.default_rng(request.param)
    mesh = build_box_mesh(3)
    tets = mesh.tets[rng.permutation(mesh.n_elems)]
    rotate = rng.random(len(tets)) < 0.5
    tets[rotate] = tets[rotate][:, [0, 2, 3, 1]]
    return _mesh_from_tets(mesh.vertices, tets, mesh.box_lo, mesh.box_hi, 3)


@pytest.fixture(scope="module")
def params():
    return scheme.SchemeParams()
