"""The torus grid kernels: ``torus_grid``, ``torus_assign`` and the tori
``space_trials`` builds.

The grid promises the server cKDTree's periodic query finds: the same
squared distance (wrap ``q - p`` by ±1 beyond ±0.5, then
``r = dx*dx; r += dy*dy``), rounded the same way, with the lowest index
on an exact tie.  Its construction pass rejects exactly the points
cKDTree's ``k=2`` distinctness check rejects.  Trials on prebuilt
gridded tori run on :func:`repro.core.multitrial.run_fused`'s trial
pool, and trials on fresh random 2-D tori
(:func:`repro.core.multitrial.run_random_spaces`) draw and grid their
tori inside the ``space_trials`` kernel; both must end with the loads,
heights and generator state of :func:`repro.core.engine.run_sequential`
on ``TorusSpace.random``.  These tests check all of that, that other
generators, shared generators, other dimensions and the area-based
strategies still match the reference without a call into the kernel's
C, and that the numpy reference builds no grid.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from helpers import (
    assert_refused,
    check_random_spaces,
    kernel_calls,
    numpy_reference,
    padded_histograms,
    repeating_generator,
)
from scipy.spatial import cKDTree

from repro.baselines.uniform import UniformSpace
from repro.core.engine import DEFAULT_RNG_BLOCK, run_sequential
from repro.core.multitrial import run_fused, run_random_spaces
from repro.core.strategies import TieBreak
from repro.core.torus import TorusSpace
from repro.kernels import available_backends, get_backend

pytestmark = pytest.mark.skipif(
    not available_backends()["cext"] or get_backend("cext").torus_grid is None,
    reason="no compiled torus kernels on this machine",
)

STRATEGIES = list(TieBreak)
THREADS = (1, 2, 7)
#: grid sides 1, 2, 8, 32 and 64
SIZES = (1, 2, 17, 1023, 3000)
#: trials per fused call: more than one, fewer than the largest thread count
TRIALS = 3
#: the largest double below 1
TOP = 1.0 - 2.0**-53


@pytest.fixture(autouse=True)
def _cext(monkeypatch):
    """Every test here builds its spaces under the compiled backend."""
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "cext")


def _cext_backend():
    return get_backend("cext")


def _wrap(delta: np.ndarray) -> np.ndarray:
    return np.where(delta < -0.5, 1.0 + delta, np.where(delta > 0.5, delta - 1.0, delta))


def _brute_force(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """argmin of cKDTree's periodic squared distance, the lowest index on ties."""
    dx = _wrap(queries[:, None, 0] - points[None, :, 0])
    dy = _wrap(queries[:, None, 1] - points[None, :, 1])
    r = dx * dx
    r += dy * dy
    return r.argmin(axis=1)


def _grid(points: np.ndarray):
    grid = _cext_backend().torus_grid(points, TorusSpace(points)._grid_side())
    assert grid is not None
    return grid


def _lookup(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    return _cext_backend().torus_assign(queries, _grid(points))


# ---------------------------------------------------------------------------
# the grid lookup against a brute-force argmin and against cKDTree
# ---------------------------------------------------------------------------


def _lattice(seed: int) -> np.ndarray:
    """A shuffled 12 × 12 lattice of spacing 1/16: dyadic, so distances
    are exact; it leaves a 1/4-wide band before the seam empty."""
    axis = np.arange(12) / 16
    pts = np.array([(x, y) for x in axis for y in axis])
    return pts[np.random.default_rng(seed).permutation(len(pts))]


@pytest.mark.parametrize("seed", range(4))
def test_lattice_ties_go_to_the_lowest_index(seed):
    """Queries on a 1/32 lattice sit on cell edges and halfway between
    servers — within the lattice and across the seam — so most of them
    are exact 2- or 4-way ties."""
    points = _lattice(seed)
    axis = np.arange(32) / 32
    queries = np.array([(x, y) for x in axis for y in axis])
    expected = _brute_force(points, queries)
    dx = _wrap(queries[:, None, 0] - points[None, :, 0])
    dy = _wrap(queries[:, None, 1] - points[None, :, 1])
    r = dx * dx + dy * dy
    assert np.sum((r == r.min(axis=1, keepdims=True)).sum(axis=1) > 1) > 500
    np.testing.assert_array_equal(_lookup(points, queries), expected)
    np.testing.assert_array_equal(TorusSpace(points).assign(queries), expected)


def test_points_on_cell_edges_and_next_to_one():
    """Servers and queries at multiples of 1/side, at 0 and at 1 − 2⁻⁵³."""
    rng = np.random.default_rng(3)
    side = 32
    special = np.array([0.0, TOP, 0.5, 1 / side, 31 / side, 0.5 - 2.0**-54,
                        0.25])
    points = np.concatenate([
        rng.random((900, 2)),
        np.array([(x, y) for x in special for y in special]),
    ])
    points = points[rng.permutation(len(points))]
    assert TorusSpace(points)._grid_side() == side
    probes = np.append(special, [2.0**-1074, 1e-300, 0.5 + 2.0**-53])
    queries = np.concatenate([
        np.array([(x, y) for x in probes for y in probes]),
        np.array([(x, y) for x in np.arange(side) / side
                  for y in (0.0, TOP, 0.5)]),
        rng.random((2000, 2)),
    ])
    np.testing.assert_array_equal(
        _lookup(points, queries), _brute_force(points, queries)
    )


@pytest.mark.parametrize("seed", range(3))
def test_nearest_server_across_the_seam(seed):
    """Servers hug one edge, queries the opposite one: every answer
    wraps around."""
    rng = np.random.default_rng(seed)
    points = rng.random((400, 2))
    points[:40, 0] = rng.random(40) * 1e-3
    points[40:80, 1] = TOP - rng.random(40) * 1e-3
    queries = np.concatenate([
        np.column_stack([TOP - rng.random(500) * 1e-2, rng.random(500)]),
        np.column_stack([rng.random(500), rng.random(500) * 1e-2]),
        np.column_stack([TOP - rng.random(100) * 1e-2, rng.random(100) * 1e-2]),
    ])
    np.testing.assert_array_equal(
        _lookup(points, queries), _brute_force(points, queries)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 15, 16, 17, 1023, 1024, 3000])
def test_grid_matches_ckdtree_on_random_points(n):
    rng = np.random.default_rng(n)
    points = rng.random((n, 2))
    queries = rng.random((20_000, 2))
    _, expected = cKDTree(points, boxsize=1.0).query(queries)
    np.testing.assert_array_equal(_lookup(points, queries), expected)
    space = TorusSpace(points)
    np.testing.assert_array_equal(space.assign(queries), expected)
    assert space._tree is None  # the grid answered every query


@pytest.mark.parametrize("side", [1, 2, 4, 8, 16, 32])
def test_any_grid_side_finds_the_nearest(side):
    """Coarse grids scan many points per cell, fine ones grow many rings."""
    rng = np.random.default_rng(side)
    points = rng.random((60, 2))
    queries = rng.random((3000, 2))
    grid = _cext_backend().torus_grid(points, side)
    assert grid is not None
    np.testing.assert_array_equal(
        _cext_backend().torus_assign(queries, grid),
        _brute_force(points, queries),
    )


# ---------------------------------------------------------------------------
# where a lookup stops: after the 3 × 3 block once the best is nearer than
# the query's own distance to the block's edge, (1 + edge) / side, where
# edge = min(fx, 1 − fx, fy, 1 − fy) are the query's offsets in its cell
# ---------------------------------------------------------------------------

#: the grid side TorusSpace picks for the stop layouts' 210 servers
STOP_SIDE = 16
#: query cells clear of the seam, and on it along x, y and both
STOP_CELLS = ((7, 9), (0, 5), (15, 3), (4, 0), (6, 15), (0, 0), (15, 15))
#: query offsets (fx, fy) in its cell: each edge nearest from two
#: quadrants, then 0 and just below 1 on either axis (TOP: the largest
#: coordinate below the cell's far edge, fx = 1 − 2⁻⁵³ in cell 0)
STOP_OFFSETS = (
    (3 / 16, 5 / 16), (13 / 16, 5 / 16), (3 / 16, 11 / 16), (13 / 16, 11 / 16),
    (5 / 16, 3 / 16), (11 / 16, 13 / 16), (5 / 16, 13 / 16), (11 / 16, 3 / 16),
    (0.0, 5 / 16), (TOP, 5 / 16), (5 / 16, 0.0), (5 / 16, TOP),
)
#: kind: (how far server 1, inside the block, lies past the bound and
#: server 0 past the block's edge, in cells; the server that wins)
STOP_KINDS = {
    "nearest just outside the block": (2.0**-8, 2.0**-10, 0),
    "best just inside the bound": (-(2.0**-10), 2.0**-10, 1),
    "best just outside the bound": (2.0**-10, 2.0**-9, 1),
    "tie on the bound": (0.0, 0.0, 0),
}


def _cell_coordinate(c: int, f: float) -> float:
    if f == TOP:
        return np.nextafter((c + 1) / STOP_SIDE, 0.0)
    return (c + f) / STOP_SIDE


def _stop_layout(cell, offsets, inner, outer):
    """One query q at ``offsets`` in ``cell`` and dyadic servers around it
    on a grid of side 16, distances in cells.  Server 0 lies ``outer``
    past the block edge nearest to q, on q's axis line, so at
    ``1 + edge + outer``, in the ring after the block (inside the block
    when ``outer`` is 0 and that edge is a low one).  Server 1 lies
    ``1 + edge + inner`` from q inside the block, along the one of the
    two other axis directions where the block reaches further (at least
    1.5).  Server 2, the decoy, is the centre of the ring cell
    diagonally after q's, over 2.1 away.  The rest are the centres of
    every cell at least 4 cells from q's, at least 3.5 away.
    """
    cx, cy = cell
    q = np.array([_cell_coordinate(cx, offsets[0]),
                  _cell_coordinate(cy, offsets[1])])
    fx, fy = q * STOP_SIDE - (cx, cy)
    # the block's reach from q towards -x, +x, -y and +y
    reach = np.array([1 + fx, 2 - fx, 1 + fy, 2 - fy])
    near = int(reach.argmin())
    across = 2 - 2 * (near // 2)  # the first direction of the other axis
    far = across + int(reach[across + 1] > reach[across])
    edge = reach[near] - 1
    axes = np.array([[-1, 0], [1, 0], [0, -1], [0, 1]])
    # the outer server from the block's edge, so that it is exact
    outer_pt = q * STOP_SIDE
    c = (cx, cy)[near // 2]
    outer_pt[near // 2] = c - 1 - outer if near % 2 == 0 else c + 2 + outer
    inner_pt = q * STOP_SIDE + axes[far] * (1 + edge + inner)
    decoy = np.array([cx + 2.5, cy + 2.5])

    def gap(k):
        return np.minimum(k % STOP_SIDE, -k % STOP_SIDE)

    far_cells = [(x + 0.5, y + 0.5)
                 for x in range(STOP_SIDE) for y in range(STOP_SIDE)
                 if max(gap(x - cx), gap(y - cy)) >= 4]
    points = np.vstack([outer_pt, inner_pt, decoy, far_cells]) / STOP_SIDE
    return np.mod(points, 1.0), q[None, :]


def _stop_layouts(kind):
    """Every cell and offset of one kind; a tie is exact, so its winner
    known, only at dyadic offsets."""
    inner, outer, winner = STOP_KINDS[kind]
    for cell in STOP_CELLS:
        for offsets in STOP_OFFSETS:
            points, q = _stop_layout(cell, offsets, inner, outer)
            exact = kind != "tie on the bound" or TOP not in offsets
            yield (f"{kind} cell={cell} offsets={offsets}", points, q,
                   winner if exact else None)


@pytest.mark.parametrize("kind", list(STOP_KINDS))
def test_stop_bound_layouts_find_the_nearest(kind):
    """Queries in every quadrant of their cell, on cell edges and next to
    the far one, clear of the seam and on it: the grid finds the server
    brute force finds, directly and through TorusSpace, and so does
    cKDTree, except on exact ties, which it need not give the lowest
    index."""
    for where, points, q, winner in _stop_layouts(kind):
        space = TorusSpace(points)
        assert space._grid_side() == STOP_SIDE, where
        expected = _brute_force(points, q)
        assert winner is None or expected[0] == winner, where
        if kind != "tie on the bound":
            _, tree = cKDTree(points, boxsize=1.0).query(q)
            np.testing.assert_array_equal(tree, expected, err_msg=where)
        np.testing.assert_array_equal(_lookup(points, q), expected, err_msg=where)
        np.testing.assert_array_equal(space.assign(q), expected, err_msg=where)


@pytest.mark.parametrize("kind", ["best just inside the bound",
                                  "best just outside the bound"])
def test_search_goes_past_the_block_only_when_the_bound_says(kind):
    """The decoy's stored coordinates are moved onto the query, so only a
    search that visits the ring after the block returns it: one whose
    best in the block is not below (1 + edge) / side."""
    backend = _cext_backend()
    for where, points, q, winner in _stop_layouts(kind):
        grid = _grid(points)
        side, _, xy, ids = grid
        assert side == STOP_SIDE
        xy[np.flatnonzero(ids == 2)[0]] = q[0]
        expected = [winner] if kind == "best just inside the bound" else [2]
        np.testing.assert_array_equal(backend.torus_assign(q, grid), expected,
                                      err_msg=where)


def test_coordinate_one_wraps_to_zero_like_ckdtree():
    """A partitioned draw ``(u + c) / d`` can round up to exactly 1;
    cKDTree wraps such a query to 0 before measuring, and so does the
    grid (from 1, the seam difference ``1 - p`` would round)."""
    rng = np.random.default_rng(4)
    # from 1 both points of a pair sit at distance 0 (1 - 1e-20 rounds
    # to 1), from 0 only the second: the wrap decides the owner
    points = np.concatenate([
        [[1e-20, 0.5], [0.0, 0.5], [0.25, 1e-20], [0.25, 0.0]],
        rng.random((300, 2)),
    ])
    ys = np.concatenate([[0.0, 0.25, 0.5, TOP, 1.0], rng.random(200)])
    queries = np.concatenate([
        np.column_stack([np.ones_like(ys), ys]),
        np.column_stack([ys, np.ones_like(ys)]),
    ])
    _, expected = cKDTree(points, boxsize=1.0).query(queries)
    assert expected[2] == 1 and expected[len(ys) + 1] == 3
    np.testing.assert_array_equal(_lookup(points, queries), expected)
    space = TorusSpace(points)
    np.testing.assert_array_equal(space._assign_trusted(queries), expected)
    with pytest.raises(ValueError):
        space.assign(queries)


def test_kernels_reject_points_outside_the_square():
    points = np.random.default_rng(6).random((100, 2))
    grid = _grid(points)
    backend = _cext_backend()
    for bad in ([1.0, 0.5], [-0.1, 0.5], [np.nan, 0.5]):
        with pytest.raises(ValueError):
            backend.torus_grid(np.vstack([points, bad]), 16)
    with pytest.raises(ValueError, match="rows"):
        backend.torus_grid(np.full((4, 3), 0.5), 16)
    for bad in ([[1.5, 0.5]], [[0.5, -1e-300]], [[np.inf, 0.5]]):
        with pytest.raises(ValueError):
            backend.torus_assign(np.array(bad), grid)
    with pytest.raises(ValueError, match="power of two"):
        backend.torus_grid(points, 12)


def test_unevenly_spread_points_keep_the_kdtree():
    """Servers packed into one corner would make the grid search long:
    no grid is built, and the KD-tree answers."""
    rng = np.random.default_rng(8)
    points = rng.random((2000, 2)) * 0.05
    assert _cext_backend().torus_grid(points, 64) is None
    space = TorusSpace(points)
    assert space._grid is None
    queries = rng.random((1000, 2))
    _, expected = cKDTree(points, boxsize=1.0).query(queries)
    np.testing.assert_array_equal(space.assign(queries), expected)


def test_assign_rejects_points_outside_the_torus():
    space = TorusSpace.random(50, seed=1)
    for bad in ([[1.0, 0.5]], [[-0.1, 0.5]], [[np.nan, 0.5]]):
        with pytest.raises(ValueError):
            space.assign(np.array(bad))


def test_assign_keeps_query_shapes():
    space = TorusSpace.random(50, seed=2)
    q = np.random.default_rng(3).random((4, 5, 2))
    owners = space.assign(q)
    assert owners.shape == (4, 5) and owners.dtype == np.int64
    np.testing.assert_array_equal(owners.ravel(), space.assign(q.reshape(-1, 2)))
    assert space.assign(np.array([0.5, 0.5])).shape == (1,)
    assert space.assign(np.empty((0, 2))).shape == (0,)


# ---------------------------------------------------------------------------
# distinctness: exactly cKDTree's k=2 check
# ---------------------------------------------------------------------------


def _kdtree_rejects(points: np.ndarray) -> bool:
    dist, _ = cKDTree(points, boxsize=1.0).query(points, k=2)
    return bool(np.any(dist[:, 1] == 0.0))


def _with_pair(a, b, seed=0):
    rng = np.random.default_rng(seed)
    points = rng.random((500, 2))
    points[17], points[300] = a, b
    return points


PAIRS = {
    "equal": ((0.3, 0.7), (0.3, 0.7), True),
    "underflowing": ((1e-170, 0.4), (0.0, 0.4), True),
    "underflowing in both axes": ((1e-170, 2e-170), (0.0, 0.0), True),
    "subnormal": ((1e-160, 0.4), (0.0, 0.4), False),
    "one ulp": ((0.5, 0.25), (0.5 + 2.0**-53, 0.25), False),
    "across the seam": ((0.0, 0.6), (TOP, 0.6), False),
    "mirror corners": ((0.0, 0.0), (TOP, TOP), False),
}


@pytest.mark.parametrize("name", list(PAIRS))
def test_distinctness_matches_the_kdtree_check(name):
    a, b, rejected = PAIRS[name]
    points = _with_pair(a, b)
    assert _kdtree_rejects(points) is rejected
    grid = _cext_backend().torus_grid(points, TorusSpace.random(500)._grid_side())
    assert (grid is None) is rejected
    if rejected:
        with pytest.raises(ValueError, match="distinct"):
            TorusSpace(points)
    else:
        assert TorusSpace(points)._grid is not None


@pytest.mark.parametrize("backend", ["cext", "numpy"])
def test_duplicates_raise_on_every_backend(monkeypatch, backend):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend)
    with pytest.raises(ValueError, match="distinct"):
        TorusSpace([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError, match="distinct"):
        TorusSpace(_with_pair((1e-170, 0.4), (0.0, 0.4), seed=5))


# ---------------------------------------------------------------------------
# trials on the grid against run_sequential
# ---------------------------------------------------------------------------


def _sequential(spaces, m, d, strategy, seeds, partitioned, rng_block):
    out = []
    for space, seed in zip(spaces, seeds):
        rng = np.random.default_rng(seed)
        loads, heights = run_sequential(
            space, m, d, strategy, rng, partitioned=partitioned,
            rng_block=rng_block, record_heights=True,
        )
        out.append((loads, heights, rng.bit_generator.state))
    return out


def _check_trials(spaces, m, d, strategy, seeds, partitioned, rng_block,
                  expected):
    for threads in THREADS:
        rngs = [np.random.default_rng(s) for s in seeds]
        loads, heights = run_fused(
            spaces, m, d, strategy, rngs, partitioned=partitioned,
            rng_block=rng_block, record_heights=True, backend="cext",
            threads=threads,
        )
        where = (f"n={spaces[0].n} m={m} d={d} {strategy.value} "
                 f"partitioned={partitioned} rng_block={rng_block} "
                 f"threads={threads}")
        for k, (ref_loads, ref_heights, ref_state) in enumerate(expected):
            np.testing.assert_array_equal(loads[k], ref_loads, err_msg=where)
            np.testing.assert_array_equal(heights[k], ref_heights, err_msg=where)
            assert rngs[k].bit_generator.state == ref_state, where


def _block_sizes_for(rng_block):
    """m in {0, 1, rng_block - 1, rng_block, rng_block + 1}, deduplicated."""
    return sorted({0, 1, max(rng_block - 1, 0), rng_block, rng_block + 1})


@functools.cache
def _trial_spaces(n: int) -> tuple[TorusSpace, ...]:
    """Shared across tests, so each space computes its Voronoi areas once."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_KERNEL_BACKEND", "cext")
        spaces = tuple(
            TorusSpace.random(n, seed=100 * n + k) for k in range(TRIALS)
        )
    assert all(s._grid is not None for s in spaces)
    return spaces


@pytest.mark.parametrize("partitioned", [False, True])
@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_grid_trials_match_run_sequential(d, strategy, partitioned):
    """rng_block ∈ {1, 7, 128} with m around a block boundary, and the
    default 2¹⁶ block with m ∈ {0, 1}."""
    cases = [(rb, m) for rb in (1, 7, 128) for m in _block_sizes_for(rb)]
    cases += [(DEFAULT_RNG_BLOCK, 0), (DEFAULT_RNG_BLOCK, 1)]
    for n in SIZES:
        spaces = list(_trial_spaces(n))
        seeds = [7 * n + d + k for k in range(TRIALS)]
        for rng_block, m in cases:
            expected = _sequential(spaces, m, d, strategy, seeds, partitioned,
                                   rng_block)
            _check_trials(spaces, m, d, strategy, seeds, partitioned,
                          rng_block, expected)


@pytest.mark.parametrize("partitioned", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_grid_trials_match_kdtree_trials_at_the_default_block(
    monkeypatch, d, partitioned
):
    """m = 2¹⁶ + 1 at the default block: the same servers with and
    without a grid (the numpy reference's KD-tree) place every ball
    alike."""
    m = DEFAULT_RNG_BLOCK + 1
    points = [np.random.default_rng(60 + k).random((3000, 2)) for k in range(2)]
    gridded = [TorusSpace(p) for p in points]
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
    trees = [TorusSpace(p) for p in points]
    assert all(s._grid is not None for s in gridded)
    assert all(s._grid is None for s in trees)
    ref_rngs = [np.random.default_rng(70 + k) for k in range(2)]
    ref_loads, ref_heights = run_fused(
        trees, m, d, TieBreak.RANDOM, ref_rngs, partitioned=partitioned,
        record_heights=True,
    )
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "cext")
    rngs = [np.random.default_rng(70 + k) for k in range(2)]
    loads, heights = run_fused(
        gridded, m, d, TieBreak.RANDOM, rngs, partitioned=partitioned,
        record_heights=True, threads=2,
    )
    np.testing.assert_array_equal(loads, ref_loads)
    np.testing.assert_array_equal(heights, ref_heights)
    for rng, ref in zip(rngs, ref_rngs):
        assert rng.bit_generator.state == ref.bit_generator.state


# ---------------------------------------------------------------------------
# other generators and dimensions
# ---------------------------------------------------------------------------


def _assert_matches_sequential(spaces, rngs, fresh_rng, m=400, d=2):
    loads, heights = run_fused(spaces, m, d, TieBreak.RANDOM, rngs,
                               rng_block=64, record_heights=True,
                               backend="cext", threads=2)
    for k, space in enumerate(spaces):
        ref_rng = fresh_rng(k)
        ref_loads, ref_heights = run_sequential(
            space, m, d, TieBreak.RANDOM, ref_rng, rng_block=64,
            record_heights=True,
        )
        np.testing.assert_array_equal(loads[k], ref_loads)
        np.testing.assert_array_equal(heights[k], ref_heights)
        np.testing.assert_equal(rngs[k].bit_generator.state,
                                ref_rng.bit_generator.state)


def test_mt19937_generators_match_run_sequential():
    spaces = [TorusSpace.random(300, seed=k) for k in range(2)]
    rngs = [np.random.Generator(np.random.MT19937(40 + k)) for k in range(2)]
    _assert_matches_sequential(
        spaces, rngs, lambda k: np.random.Generator(np.random.MT19937(40 + k))
    )


def test_shared_generator_matches_run_sequential():
    spaces = [TorusSpace.random(200, seed=k) for k in range(3)]
    shared = np.random.default_rng(12)
    loads, _ = run_fused(spaces, 300, 2, TieBreak.RANDOM, [shared] * 3,
                         rng_block=64, backend="cext", threads=2)
    ref = np.random.default_rng(12)
    for k, space in enumerate(spaces):
        ref_loads, _ = run_sequential(space, 300, 2, TieBreak.RANDOM, ref,
                                      rng_block=64)
        np.testing.assert_array_equal(loads[k], ref_loads)
    assert shared.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("dim", [1, 3])
def test_other_dimensions_keep_the_kdtree(dim):
    spaces = [TorusSpace.random(300, dim=dim, seed=k) for k in range(2)]
    assert all(s._grid is None for s in spaces)
    rngs = [np.random.default_rng(50 + k) for k in range(2)]
    _assert_matches_sequential(spaces, rngs, lambda k: np.random.default_rng(50 + k))


def test_numpy_backend_builds_no_grid(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
    space = TorusSpace.random(500, seed=4)
    assert space._grid is None
    queries = np.random.default_rng(5).random((100, 2))
    _, expected = cKDTree(space.points, boxsize=1.0).query(queries)
    np.testing.assert_array_equal(space.assign(queries), expected)


# ---------------------------------------------------------------------------
# tori built inside the space_trials kernel against TorusSpace.random +
# run_sequential
# ---------------------------------------------------------------------------

#: grid sides 1, 2, 2, 8, 8, 16 and 32
BUILD_SIZES = (1, 2, 3, 63, 64, 65, 1000)
#: the strategies the kernel runs on tori (the others need Voronoi areas)
KERNEL_STRATEGIES = (TieBreak.RANDOM, TieBreak.FIRST)


def _reference_tori(n, m, d, strategy, seeds, partitioned, rng_block):
    """Each trial on TorusSpace.random, then run_sequential, one generator."""
    out = []
    with numpy_reference():
        for seed in seeds:
            rng = np.random.default_rng(seed)
            space = TorusSpace.random(n, seed=rng)
            loads, heights = run_sequential(
                space, m, d, strategy, rng, partitioned=partitioned,
                rng_block=rng_block, record_heights=True,
            )
            out.append((loads, heights, rng.bit_generator.state))
    return out


@pytest.mark.parametrize("partitioned", [False, True])
@pytest.mark.parametrize("strategy", KERNEL_STRATEGIES, ids=lambda s: s.value)
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_random_tori_match_run_sequential(d, strategy, partitioned):
    """m = 0 (the state after the points alone), and m = n over RNG
    blocks of 7 balls and of 300 (a full 256-ball stage and a short
    one).  Table 2 takes d = 1–4; a ball with d >= 3 and the random
    tie-break skips lookups only when u < 1/d."""
    for n in BUILD_SIZES:
        seeds = [11 * n + d + k for k in range(TRIALS)]
        for m, rng_block in ((0, DEFAULT_RNG_BLOCK), (n, 7), (n, 300)):
            expected = _reference_tori(n, m, d, strategy, seeds, partitioned,
                                       rng_block)
            check_random_spaces("torus", n, m, d, strategy, seeds,
                                partitioned, rng_block, expected, THREADS)


@pytest.mark.parametrize("partitioned", [False, True])
@pytest.mark.parametrize("strategy", KERNEL_STRATEGIES, ids=lambda s: s.value)
@pytest.mark.parametrize("d", [3, 4, 5])
def test_random_tori_with_empty_bins_match_run_sequential(d, strategy,
                                                          partitioned):
    """m ≪ n, so most bins are still empty and most balls stop early:
    first, and random at (int64_t)(u * d) == 0, at the first empty bin
    from the front, random at d − 1 at the first from the back."""
    n = 4096
    for m in (n // 16, n // 2):
        seeds = [13 * n + m + d + k for k in range(TRIALS)]
        expected = _reference_tori(n, m, d, strategy, seeds, partitioned, 300)
        check_random_spaces("torus", n, m, d, strategy, seeds, partitioned,
                            300, expected, THREADS)


def test_random_tori_paper_size_matches_run_sequential():
    """n = m = 2¹⁴ (the benchmark's torus cell) at the default block."""
    n = 1 << 14
    seeds = [5, 6]
    expected = _reference_tori(n, n, 2, TieBreak.RANDOM, seeds, False,
                               DEFAULT_RNG_BLOCK)
    check_random_spaces("torus", n, n, 2, TieBreak.RANDOM, seeds, False,
                        DEFAULT_RNG_BLOCK, expected, THREADS)


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("n", [2, 50, 100])
def test_repeated_points_raise_like_torus_space(n, threads):
    """The last trial's stream repeats, so all its points coincide: n = 2
    and 50 repeat inside one grid cell, n = 100 crowds it past its limit.
    Either way the kernel writes no state back, and the reference path
    raises TorusSpace's own error after drawing the other trials'
    points."""
    def generators():
        return [np.random.default_rng(30 + k) for k in range(TRIALS - 1)] + [
            repeating_generator(9)
        ]

    rngs = generators()
    before = [r.bit_generator.state for r in rngs]
    loads = np.zeros((TRIALS, n), dtype=np.int64)
    assert not _cext_backend().space_trials(
        [r.bit_generator for r in rngs], None, None, loads, None, n, 2, 0,
        False, DEFAULT_RNG_BLOCK, threads, space="torus",
    )
    assert not _cext_backend().space_trials(
        [r.bit_generator for r in rngs], None, None, None, None, n, 2, 0,
        False, DEFAULT_RNG_BLOCK, threads, space="torus", n=n, hist=True,
    )
    assert [r.bit_generator.state for r in rngs] == before

    ref = generators()
    with pytest.raises(ValueError, match="distinct") as expected:
        [TorusSpace.random(n, seed=r) for r in ref]
    with pytest.raises(ValueError) as got:
        run_random_spaces("torus", n, n, 2, TieBreak.RANDOM, rngs,
                          backend="cext", threads=threads)
    assert str(got.value) == str(expected.value)
    assert [r.bit_generator.state for r in rngs] == [
        r.bit_generator.state for r in ref
    ]


def _assert_reference_path(rngs, fresh_rng, strategy=TieBreak.RANDOM, *,
                           dim=2, n=300, m=400, backend="cext"):
    """run_random_spaces on a torus equals TorusSpace.random +
    run_sequential trial by trial, generator states included."""
    hist, heights = run_random_spaces(
        "torus", n, m, 2, strategy, rngs, dim=dim, rng_block=64,
        record_heights=True, backend=backend, threads=2,
    )
    ref_loads = []
    for k in range(len(rngs)):
        ref_rng = fresh_rng(k)
        with numpy_reference():
            space = TorusSpace.random(n, dim=dim, seed=ref_rng)
            loads, ref_heights = run_sequential(
                space, m, 2, strategy, ref_rng, rng_block=64,
                record_heights=True,
            )
        ref_loads.append(loads)
        np.testing.assert_array_equal(heights[k], ref_heights)
        np.testing.assert_equal(rngs[k].bit_generator.state,
                                ref_rng.bit_generator.state)
    np.testing.assert_array_equal(hist, padded_histograms(ref_loads))


@pytest.mark.parametrize("strategy", [TieBreak.SMALLER, TieBreak.LARGER],
                         ids=lambda s: s.value)
def test_random_tori_area_strategies_take_the_reference_path(monkeypatch,
                                                             strategy):
    """The kernel has no Voronoi areas: it turns these trials away, with
    or without loads, and no C call is made."""
    rngs = [np.random.default_rng(80 + k) for k in range(2)]
    calls = kernel_calls(monkeypatch)
    code = 2 if strategy is TieBreak.SMALLER else 3
    assert_refused(calls, [r.bit_generator for r in rngs], None, None,
                   np.zeros((2, 300), dtype=np.int64), None, 400, 2, code,
                   False, 64, 2, space="torus")
    assert_refused(calls, [r.bit_generator for r in rngs], None, None, None,
                   None, 400, 2, code, False, 64, 2, space="torus", n=300,
                   hist=True)
    _assert_reference_path(rngs, lambda k: np.random.default_rng(80 + k),
                           strategy)
    assert calls == []


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.PCG64DXSM])
def test_random_tori_other_bit_generators_take_the_reference_path(
        monkeypatch, bit_generator):
    rngs = [np.random.Generator(bit_generator(50 + k)) for k in range(2)]
    calls = kernel_calls(monkeypatch)
    assert_refused(calls, [r.bit_generator for r in rngs], None, None, None,
                   None, 400, 2, 0, False, 64, 2, space="torus", n=300,
                   hist=True)
    _assert_reference_path(
        rngs, lambda k: np.random.Generator(bit_generator(50 + k))
    )
    assert calls == []


def test_random_tori_shared_generator_takes_the_reference_path(monkeypatch):
    """Trials sharing one generator: every torus first, then the trials
    one after another, exactly as run_fused on TorusSpace.random spaces.
    The kernel turns them away, and no C call is made."""
    shared = np.random.default_rng(13)
    calls = kernel_calls(monkeypatch)
    assert_refused(calls, [shared.bit_generator] * 3, None, None, None, None,
                   300, 2, 0, False, 64, 2, space="torus", n=200, hist=True)
    hist, _ = run_random_spaces("torus", 200, 300, 2, TieBreak.RANDOM,
                                [shared] * 3, rng_block=64, backend="cext",
                                threads=2)
    assert calls == []
    ref = np.random.default_rng(13)
    with numpy_reference():
        spaces = [TorusSpace.random(200, seed=ref) for _ in range(3)]
        ref_loads = [
            run_sequential(space, 300, 2, TieBreak.RANDOM, ref,
                           rng_block=64)[0]
            for space in spaces
        ]
    np.testing.assert_array_equal(hist, padded_histograms(ref_loads))
    assert shared.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("dim", [1, 3])
def test_random_tori_other_dimensions_take_the_reference_path(monkeypatch,
                                                              dim):
    """The kernel builds 2-D tori only, so these are never offered to it."""
    rngs = [np.random.default_rng(60 + k) for k in range(2)]
    calls = kernel_calls(monkeypatch)
    _assert_reference_path(rngs, lambda k: np.random.default_rng(60 + k),
                           dim=dim)
    assert calls == []


def test_random_tori_numpy_backend_takes_the_reference_path(monkeypatch):
    """The numpy backend has no kernel, so no C call is made."""
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
    rngs = [np.random.default_rng(90 + k) for k in range(2)]
    calls = kernel_calls(monkeypatch)
    assert get_backend("numpy").space_trials is None
    _assert_reference_path(rngs, lambda k: np.random.default_rng(90 + k),
                           backend="numpy")
    assert calls == []


def test_random_spaces_reject_other_spaces(monkeypatch):
    """run_random_spaces takes uniform bins (on run_fused, with no C call
    into the kernel, which has no lookup for them) but no other space;
    the kernel takes rings and tori only."""
    rngs = [np.random.default_rng(0)]
    calls = kernel_calls(monkeypatch)
    hist, _ = run_random_spaces("uniform", 10, 10, 2, TieBreak.RANDOM, rngs,
                                backend="cext")
    assert calls == []
    ref_loads, _ = run_sequential(UniformSpace(10), 10, 2, TieBreak.RANDOM,
                                  np.random.default_rng(0))
    np.testing.assert_array_equal(hist, padded_histograms([ref_loads]))
    with pytest.raises(ValueError, match="space"):
        run_random_spaces("cube", 10, 10, 2, TieBreak.RANDOM,
                          [np.random.default_rng(0)], backend="cext")
    with pytest.raises(ValueError, match="rings or tori"):
        _cext_backend().space_trials(
            [np.random.PCG64(0)], None, None, np.zeros((1, 4), dtype=np.int64),
            None, 4, 2, 0, False, 64, 1, space="cube",
        )
