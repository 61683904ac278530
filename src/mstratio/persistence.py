"""0-dimensional persistence diagrams of colored clouds and their 1-norms.

Every spanning-tree edge of a class kills one connected component at half its
length, and one essential class per diagram survives to the cutoff.  The image
diagram is synthesized directly from the tree of the whole cloud (its deaths
are in bijection with that tree's edges), which is exact in dimension zero and
avoids any matrix reduction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spanning
from .constructions import Coloring
from .errors import EmptySet, ZeroDenominator
from .lattice import Metric, PointCloud

INF = math.inf


@dataclass(frozen=True)
class PersistenceDiagram:
    """Multiset of (birth, death) points; essential classes carry death = inf."""

    points: tuple[tuple[float, float], ...]
    cutoff: float

    def __post_init__(self):
        for birth, death in self.points:
            if death < birth:
                raise ValueError("death before birth")

    @property
    def finite_points(self) -> tuple[tuple[float, float], ...]:
        return tuple(p for p in self.points if math.isfinite(p[1]))

    @property
    def essential_count(self) -> int:
        return sum(1 for p in self.points if math.isinf(p[1]))

    def to_csv(self) -> str:
        lines = ["birth,death"]
        for b, d in self.points:
            lines.append(f"{b:.12g},{'inf' if math.isinf(d) else format(d, '.12g')}")
        return "\n".join(lines) + "\n"


def zero_dim_diagram(
    cloud: PointCloud, subset, metric: Metric, cutoff: float | None = None
) -> PersistenceDiagram:
    """Diagram of one class: a point (0, len/2) per tree edge plus (0, inf)."""
    idx = np.asarray(list(subset), dtype=np.int64)
    if len(idx) == 0:
        raise EmptySet("diagram of an empty subset")
    deaths = (np.sqrt(spanning.mst(cloud.subset(idx), metric).sq) / 2.0).tolist()
    max_death = max(deaths, default=0.0)
    if cutoff is None:
        cutoff = max_death
    if cutoff < max_death - 1e-12:
        raise ValueError("cutoff below the largest finite death")
    points = tuple((0.0, d) for d in sorted(deaths)) + ((0.0, INF),)
    return PersistenceDiagram(points, float(cutoff))


def one_norm(diagram: PersistenceDiagram, include_essential: bool = True) -> float:
    """Sum of death - birth; essential points contribute the cutoff when included."""
    total = math.fsum(d - b for b, d in diagram.finite_points)
    if include_essential:
        total += diagram.cutoff * diagram.essential_count
    return total


@dataclass(frozen=True)
class ChromaticNorms:
    domain_norm: float
    image_norm: float
    kernel_norm: float
    image_share: float
    kernel_share: float
    cutoff: float

    def to_json(self) -> dict:
        return {
            "domain_norm": self.domain_norm,
            "image_norm": self.image_norm,
            "kernel_norm": self.kernel_norm,
            "image_share": self.image_share,
            "kernel_share": self.kernel_share,
            "cutoff": self.cutoff,
        }


def _resolve_cutoff(policy, lengths_halved: list[float]) -> float:
    if policy == "exclude":
        return 0.0
    if policy == "max-death":
        return max(lengths_halved, default=0.0)
    q = float(policy)
    if q < max(lengths_halved, default=0.0) - 1e-12:
        raise ValueError("cutoff below the largest finite death")
    return q


def chromatic_norms(
    cloud: PointCloud, coloring: Coloring, cutoff_policy="max-death"
) -> ChromaticNorms:
    """Domain/image/kernel 1-norms of a bi-colored cloud.

    domain = L(MST(B))/2 + L(MST(C))/2 + 2q and image = L(MST(A))/2 + q; the
    kernel is their difference.  ``cutoff_policy`` is "max-death" (default,
    the largest finite death over the three diagrams), "exclude" (drop the
    essential points, i.e. q = 0), or an explicit number.
    """
    if coloring.arity != 2:
        raise ValueError("chromatic norms expect a 2-class coloring")
    idx_b = coloring.class_indices(0)
    idx_c = coloring.class_indices(1)
    if len(idx_b) == 0 or len(idx_c) == 0:
        raise EmptySet("both classes must be non-empty")
    metric = Metric.euclidean(cloud.topology)
    tree_b, tree_c = (spanning.mst(cloud.subset(idx), metric) for idx in (idx_b, idx_c))
    tree_a = spanning.mst(cloud, metric)
    len_a, len_b, len_c = (t.total_length for t in (tree_a, tree_b, tree_c))
    sq = np.concatenate([t.sq for t in (tree_a, tree_b, tree_c)])
    q = _resolve_cutoff(cutoff_policy, (np.sqrt(sq) / 2.0).tolist())
    domain = len_b / 2.0 + len_c / 2.0 + 2.0 * q
    image = len_a / 2.0 + q
    kernel = domain - image
    return ChromaticNorms(domain, image, kernel, image / domain, kernel / domain, q)


def ratio_from_norms(norms: ChromaticNorms) -> float:
    """Recover the MST-ratio: (domain - 2q) / (image - q)."""
    den = norms.image_norm - norms.cutoff
    if den <= 0:
        raise ZeroDenominator("image norm carries no tree length")
    return (norms.domain_norm - 2.0 * norms.cutoff) / den
