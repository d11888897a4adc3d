import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

import oracles  # noqa: E402
from polystokes import geometry as geo  # noqa: E402


@pytest.fixture(scope="session", params=geo.MESH_FAMILIES)
def element_sets(request):
    """(family, every L1-2 element set of it keyed (level, k, basis kind)).

    The per-cell oracle tests of vemspace and stokes_local share these sets,
    so each is built once.  A session-scoped parameter makes pytest run those
    tests family by family, so one family's sets are held at a time.
    """
    sets = {}
    for level in (1, 2):
        mesh = geo.generate_mesh(request.param, level)
        for k in (1, 2, 3, 4):
            for kind in ("scaled_monomial", "l2_orthonormal"):
                sets[level, k, kind] = oracles.element_set(mesh, k, kind)
    return request.param, sets
