"""Flip distance between triangulations of a planar point set.

The library computes and decides flip distance: a parameterized exact search
(`solver`), a brute-force BFS oracle (`oracle`), flip sequence dependency
analysis (`flipdag`), and instance generation plus a text format
(`instances`).  The `flipdist` console script fronts all of it.
"""

from .errors import (
    BadIndex,
    EdgeAbsent,
    ExhaustedRetries,
    FlipDistError,
    InstanceSyntaxError,
    InvalidAt,
    NoFlippableEdge,
    NotFlippable,
    NotMaximal,
    NotPlanar,
    PointSetMismatch,
    TooLarge,
    ValidationError,
)
from .flipdag import (
    FlipDag,
    FlipSequence,
    build_dag,
    check_reordering,
    replay,
    to_dot,
    topological_sorts_sample,
)
from .geometry import COORD_BOUND, Point, PointSet, convex_hull_edges, orient
from .instances import (
    Instance,
    gen_convex,
    gen_random_points,
    initial_triangulation,
    parse,
    random_walk_triangulation,
    serialize,
)
from .oracle import FlipGraphStats, bfs_distance, enumerate_all, graph_stats
from .solver import (
    FLIP_BACK,
    Action,
    Composition,
    FlipBack,
    IterationShape,
    Move,
    SolveResult,
    compositions,
    flip_distance_upto,
    iteration_shapes,
    search_exact,
    search_upto,
    transform,
)
from .triangulation import (
    Edge,
    FlipRecord,
    Triangle,
    Triangulation,
    build,
    canonical_key,
    edge_neighbors,
    flip,
    is_flippable,
    make_edge,
    make_triangle,
    necessary_edges,
    quad_around,
)

__version__ = "0.1.0"
