"""The 1-D ring: random arcs as bins (paper, Section 2).

``n`` server points are placed on a circle of circumference 1.  Bin
``j`` is the arc *owned* by server ``j``.  Following the consistent-
hashing convention the paper's DHT application uses (keys go to the
nearest server in the clockwise direction), server ``j`` owns the arc
extending **counterclockwise** from its own position to the predecessor
position — equivalently, a uniform point ``x`` belongs to the first
server at or after ``x`` in clockwise order.  The induced arc lengths
are the spacings of ``n`` uniform order statistics, the object of
Lemmas 3–6.

Implementation notes
--------------------
Server positions are kept **sorted** so ownership queries are a single
``np.searchsorted`` (binary search, O(log n) per query, fully
vectorized).  The sort is done once at construction; arc lengths are the
adjacent differences with wraparound.

For the bulk queries the placement engines issue (an RNG block is up to
2¹⁶ balls × d choices), binary search is the hot path: ~log₂ n
dependent cache misses per query.  Large query batches therefore go
through a **bucket lookup table**: the circle is cut into a power-of-two
number of equal buckets and ``table[b]`` caches
``searchsorted(pos, b / B)``.  A query then costs one table gather plus
on average under one linear-probe step (bucket occupancy ≤ 1).  Because
``B`` is a power of two, ``x·B`` and ``b/B`` are exact in float64, so
the fast path returns *exactly* the index binary search would — the
engines' bit-identity doctrine extends to the geometry substrate (and
the test suite checks the two paths against each other).  With a
compiled kernel backend the table is built at construction by one
``ring_table`` pass over the sorted positions, which also checks that
they are distinct; the numpy reference builds it lazily.
"""

from __future__ import annotations

import numpy as np

from repro.core.spaces import GeometricSpace
from repro.kernels import default_backend
from repro.utils.rng import resolve_rng
from repro.utils.validation import as_float_array, check_positive_int

__all__ = ["RingSpace"]


class RingSpace(GeometricSpace):
    """Circle of circumference 1 with clockwise-successor ownership.

    Parameters
    ----------
    positions:
        Server positions in ``[0, 1)``.  Need not be sorted; duplicates
        are rejected (two servers at one point would create an empty,
        ambiguous bin — the paper's continuous model has none almost
        surely).

    Examples
    --------
    >>> ring = RingSpace([0.5, 0.1, 0.9])   # sorted to [0.1, 0.5, 0.9]
    >>> ring.assign(np.array([0.05, 0.45, 0.95]))  # 0.95 wraps to 0.1
    array([0, 1, 0])
    >>> float(ring.region_measures().sum())
    1.0
    """

    def __init__(self, positions) -> None:
        pos = as_float_array(positions, "positions", ndim=1)
        if pos.size < 1:
            raise ValueError("RingSpace needs at least one server position")
        n = int(pos.size)
        # the sorted positions followed by a +inf sentinel, which stops
        # the bucket probe loop at idx == n without per-query bounds
        pos_ext = np.empty(n + 1)
        pos_ext[:n] = pos
        pos_ext[:n].sort()
        pos_ext[n] = np.inf
        # finite and sorted: the extremes bound every position
        if pos_ext[0] < 0.0 or pos_ext[n - 1] >= 1.0:
            raise ValueError("positions must lie in [0, 1)")
        self._pos = pos_ext[:n]
        self._pos_ext = pos_ext
        self.n = n
        # (nbuckets, table, pos_ext): built here by a compiled table
        # pass, else lazily by numpy on the first bulk query
        self._lut: tuple[int, np.ndarray, np.ndarray] | None = None
        try:
            table_pass = default_backend().ring_table
        except (ValueError, RuntimeError):
            # a bad REPRO_KERNEL_BACKEND is reported by the engines, as
            # before; the space itself stays on the numpy reference
            table_pass = None
        if table_pass is not None:
            nbuckets = self._nbuckets()
            table = table_pass(pos_ext, nbuckets)
            if table is None:
                raise ValueError("positions must be distinct")
            self._lut = (nbuckets, table, pos_ext)
        elif n > 1 and np.any(np.diff(self._pos) == 0.0):
            raise ValueError("positions must be distinct")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def random(cls, n: int, seed=None) -> "RingSpace":
        """Place ``n`` servers independently and uniformly on the circle."""
        n = check_positive_int(n, "n")
        rng = resolve_rng(seed)
        return cls(rng.random(n))

    # ------------------------------------------------------------------
    # GeometricSpace interface
    # ------------------------------------------------------------------
    @property
    def positions(self) -> np.ndarray:
        """Sorted server positions (read-only view)."""
        v = self._pos.view()
        v.flags.writeable = False
        return v

    #: Below these sizes the bucket table isn't worth building/using.
    _LUT_MIN_BINS = 1024
    _LUT_MIN_QUERIES = 1024

    def _nbuckets(self) -> int:
        """``B``: the power of two ≥ n."""
        return 1 << max(0, int(self.n - 1).bit_length())

    def _bucket_table(self) -> tuple[int, np.ndarray, np.ndarray]:
        """``(B, table, pos_ext)`` with ``table[b] = searchsorted(pos, b/B)``
        and ``pos_ext`` the positions padded with a ``+inf`` probe
        sentinel.

        ``B`` is the power of two ≥ n, so bucket occupancy averages ≤ 1
        and every ``x·B`` / ``b/B`` is exact in float64.  Built in O(n)
        from the sorted positions (bincount + cumsum here, the backend's
        ``ring_table`` pass at construction), not by binary search.
        """
        if self._lut is None:
            nbuckets = self._nbuckets()
            occupancy = np.bincount(
                (self._pos * nbuckets).astype(np.int64), minlength=nbuckets
            )
            table = np.empty(nbuckets + 1, dtype=np.int32)
            table[0] = 0
            np.cumsum(occupancy, out=table[1:])
            self._lut = (nbuckets, table, self._pos_ext)
        return self._lut

    def _assign_bucketed(self, pts: np.ndarray) -> np.ndarray:
        """Bucket-table twin of ``searchsorted(pos, pts, side='left')``.

        Start at the cached lower bound of the query's bucket and
        linearly advance past positions < query; exactness of the
        power-of-two bucket arithmetic guarantees the start is never
        past the true answer, and the sentinel/occupancy bound the walk.
        """
        nbuckets, table, pos_ext = self._bucket_table()
        idx = table[(pts * nbuckets).astype(np.int32)]
        # first probe on the full array (cheap, contiguous); survivors
        # — queries whose bucket holds several servers — are rare and
        # handled on a compressed index set
        adv = pos_ext[idx] < pts
        np.add(idx, adv, out=idx, casting="unsafe")
        active = np.flatnonzero(adv)
        active = active[pos_ext[idx[active]] < pts[active]]
        while active.size:
            idx[active] += 1
            active = active[pos_ext[idx[active]] < pts[active]]
        return idx

    def _assign_trusted(self, pts: np.ndarray) -> np.ndarray:
        """``assign`` without domain validation, for engine-generated
        points that are uniform draws in [0, 1) by construction."""
        if pts.size >= self._LUT_MIN_QUERIES and self.n >= self._LUT_MIN_BINS:
            backend = default_backend()
            if backend.ring_assign is not None:
                # compiled twin of the bucketed walk below (parity suite
                # checks bit-identity); already reduced mod n
                nbuckets, table, pos_ext = self._bucket_table()
                return backend.ring_assign(
                    np.ascontiguousarray(pts.ravel()), table, pos_ext,
                    nbuckets, self.n,
                ).reshape(pts.shape)
            idx = self._assign_bucketed(pts.ravel()).reshape(pts.shape)
        else:
            # 'left': first index with pos >= x, the clockwise successor.
            idx = np.searchsorted(self._pos, pts, side="left")
        return np.asarray(idx % self.n, dtype=np.int64)

    def assign(self, points: np.ndarray) -> np.ndarray:
        """Owning bin of each point: clockwise successor server.

        A point exactly at a server position is owned by that server.
        Points past the last server wrap to server 0.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.size and (np.any(pts < 0.0) or np.any(pts >= 1.0)):
            raise ValueError("points must lie in [0, 1)")
        return self._assign_trusted(pts)

    def sample_choice_bins(
        self,
        rng: np.random.Generator,
        m: int,
        d: int,
        *,
        partitioned: bool = False,
    ) -> np.ndarray:
        """Draw ``(m, d)`` candidate bins from uniform ring positions.

        With ``partitioned=True``, choice ``j`` is uniform on
        ``[j/d, (j+1)/d)`` — Vöcking's interval scheme from the paper's
        Section 2 remark.
        """
        u = rng.random((m, d))
        if partitioned:
            u = (u + np.arange(d)) / d
        return self._assign_trusted(u.ravel()).reshape(m, d)

    def region_measures(self) -> np.ndarray:
        """Arc lengths: bin ``j`` owns ``(pos[j-1], pos[j]]`` (wrapping).

        These are exactly the uniform spacings studied by Lemmas 3–6;
        they are non-negative and sum to 1.
        """
        if self.n == 1:
            return np.ones(1)
        lengths = np.empty(self.n)
        lengths[1:] = np.diff(self._pos)
        lengths[0] = 1.0 - self._pos[-1] + self._pos[0]
        return lengths

    # ------------------------------------------------------------------
    # ring-specific queries used by theory validation
    # ------------------------------------------------------------------
    def arcs_at_least(self, c: float) -> int:
        """``N_c``: number of arcs with length at least ``c / n``.

        Matches the quantity bounded by Lemmas 4 and 5.
        """
        if c < 0:
            raise ValueError(f"c must be non-negative, got {c}")
        return int(np.count_nonzero(self.region_measures() >= c / self.n))

    def longest_arcs_total(self, a: int) -> float:
        """Total length of the ``a`` longest arcs (Lemma 6's quantity)."""
        a = check_positive_int(a, "a")
        if a > self.n:
            raise ValueError(f"a={a} exceeds the number of arcs n={self.n}")
        lengths = self.region_measures()
        if a == self.n:
            return float(lengths.sum())
        # partial selection: O(n) instead of a full sort
        top = np.partition(lengths, self.n - a)[self.n - a :]
        return float(top.sum())
