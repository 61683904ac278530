import numpy as np
import pytest

from mstratio.lattice import Basis, Metric, Topology, generate_rhombus, hexagonal_basis
from mstratio.render import SCALE, _edge_segment
from mstratio.spanning import mst


@pytest.mark.parametrize(
    "basis, n",
    [(Basis((1.0, 0.0), (3.3, 0.2)), 5), (Basis((1.0, 0.0), (5.0, 1.0)), 6), (hexagonal_basis(), 6)],
)
def test_torus_segments_have_their_edge_lengths(basis, n):
    # a non-reduced basis: the nearest image is not among the 9 raw translates
    cloud = generate_rhombus(basis, n, Topology.torus(n))
    tree = mst(cloud, Metric.EUCLIDEAN_TORUS)
    for e in tree.edges:
        x1, y1, x2, y2 = _edge_segment(cloud, e.a, e.b)
        drawn = ((x2 - x1) ** 2 + (y2 - y1) ** 2) / SCALE**2
        assert drawn == pytest.approx(e.sq_len, rel=1e-9)
        assert np.allclose((x1, -y1), cloud.cartesian[e.a] * SCALE)
