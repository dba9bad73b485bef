"""Fixtures shared by the test modules.  Each is module-scoped, so that every
module builds its own meshes and fills its own mesh caches."""
import pytest

from nsfemdg import scheme
from nsfemdg.mesh import build_box_mesh


@pytest.fixture(scope="module")
def mesh1():
    return build_box_mesh(1)


@pytest.fixture(scope="module")
def mesh2():
    return build_box_mesh(2)


@pytest.fixture(scope="module")
def params():
    return scheme.SchemeParams()
