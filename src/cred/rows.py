"""Stability rows of the dispatch, and the exact search for the net gain they admit.

Attack gains are fixed to their robust values; the droop K enters the
stability rows through the net gain k = robust_gain - K.  Segment m of a
critical (eigenvalue, area) pair holds k in [phi_m, hi_m], where
hi_m = phi_{m+1} - strict_margin, or the robust gain on the last segment,
and adds slope_m k + offset_m to its eigenvalue's row, which is bounded by
-(strict + settle) - Re(base).  StabilityConstraintSet states these rows
once: it checks its tables and derives each live pair's segments and each
row's bound when it is built.

One exact search finds the largest total net gain the rows admit, for one
attacked area or several (StabilityConstraintSet.net_gain_max): the
anchors of an area's tables cut its net gain into cells, inside each of
which every pair holds one segment and every row is linear, and the
search visits one cell per area, best bound first.  The dispatch
(cred.dispatch._droop_floor) bounds each area's net gain by its period's
wind band, runs the search once per distinct set of bounds, and pins the
droop to robust_gain - k.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import BuildError, CoverageError, NumericalError
from .milp import LinearProgram, solve_lp

__all__ = ["StabilityConstraintSet"]

#: cell LPs one droop search may solve before it gives up (NumericalError)
_CELL_LP_CAP = 200_000


@dataclass(frozen=True, eq=False)
class StabilityConstraintSet:
    """Piecewise tables plus robust gains that parameterize the stability rows.

    strict_margin closes each segment's half-open interval [phi_m, phi_{m+1})
    at phi_{m+1} - strict_margin and keeps the eigenvalue estimate strictly
    left of the stability boundary; settle_margin additionally shifts that
    boundary left of the imaginary axis.

    The rows are stated here once.  Construction checks the tables: one
    per (eigenvalue, area) pair (BuildError otherwise), each for an area
    that indexes robust_gains (BuildError), with its first anchor at
    abscissa 0 (BuildError) and covering [0, robust gain] of its area
    (CoverageError).  It derives what the dispatch reads: by_pair, the
    tables keyed and sorted by pair; segments, the (phi_m, hi_m, slope_m,
    offset_m) of each segment of each live pair, a pair whose area has a
    positive robust gain (only these get stability rows); and bounds, the
    right-hand side -(strict + settle) - Re(base) of each live
    eigenvalue's row.
    """

    tables: tuple
    robust_gains: np.ndarray
    strict_margin: float = 1e-6
    settle_margin: float = 0.0
    by_pair: dict = field(init=False, repr=False)
    segments: dict = field(init=False, repr=False)
    bounds: dict = field(init=False, repr=False)

    def __post_init__(self):
        gains = np.asarray(self.robust_gains, dtype=float)
        if not (np.isfinite(gains).all() and np.isfinite(self.strict_margin)
                and np.isfinite(self.settle_margin)):
            raise BuildError("robust gains and margins must be finite")
        if (gains < 0).any():
            raise BuildError("robust gains must be >= 0")
        if self.strict_margin <= 0 or self.settle_margin < 0:
            raise BuildError("need strict_margin > 0 and settle_margin >= 0")
        gains.setflags(write=False)
        tables, by_pair = tuple(self.tables), {}
        for tab in tables:
            i, a = pair = (tab.eigen_index, tab.area)
            if pair in by_pair:
                raise BuildError(f"duplicate segment table for pair {pair}")
            if not 0 <= a < len(gains):
                raise BuildError(f"table for pair ({i},{a}) names no area of the "
                                 f"{len(gains)} robust gains")
            if not tab.points or tab.points[0].abscissa != 0.0:
                raise BuildError(f"table for pair ({i},{a}) has no first anchor at abscissa 0")
            if gains[a] > tab.range_end + 1e-12:
                raise CoverageError(f"table for pair ({i},{a}) covers [0, {tab.range_end:g}] "
                                    f"but robust gain is {gains[a]:g}")
            by_pair[pair] = tab
        by_pair = dict(sorted(by_pair.items()))
        segments, bounds, edge = {}, {}, -(self.strict_margin + self.settle_margin)
        for (i, a), tab in by_pair.items():
            if gains[a] <= 0.0:
                continue
            pts = tab.points
            tops = [p.abscissa - self.strict_margin for p in pts[1:]] + [float(gains[a])]
            segments[(i, a)] = [
                (p.abscissa, hi, p.slope.real,
                 (p.eigenvalue - tab.base_eigenvalue).real - p.slope.real * p.abscissa)
                for p, hi in zip(pts, tops)]
            bounds.setdefault(i, edge - tab.base_eigenvalue.real)
        set_ = object.__setattr__
        set_(self, "robust_gains", gains)
        set_(self, "tables", tables)
        set_(self, "by_pair", by_pair)
        set_(self, "segments", segments)
        set_(self, "bounds", bounds)

    def net_gain_max(self, lower=None):
        """Largest total net gain of the attacked areas that meets every stability row.

        The net gain k_a of each area with live tables lies in
        [lower[a], robust gain], lower of shape (N,) and 0 by default.  The
        anchors of all the area's pairs cut that range into cells: the cell
        of anchor p is [max(p, lower[a]), the least top hi_m of the
        segments the area's pairs hold at p].  Inside a cell every pair
        holds one segment, so every eigenvalue's row is linear in the net
        gains.  A cell is empty when two anchors lie within strict_margin,
        or outside [lower[a], gain].  Each cell's top is then clipped by
        every row with the other areas adding the least shift any of their
        cells can (_tighten), which keeps every feasible point.  The search
        visits one cell per area in descending order of the sum of their
        tops, which bounds the total net gain inside them, and stops once
        that bound is no better than the best total found, so the result is
        exact.  With one area a cell's best point is its clipped top, in
        plain floats; with several it is an LP in one variable per area
        (solve_lp), whose optimum lies within the cell's bounds exactly.

        Returns (knet, held, lps, steps): knet maps each live area to its
        net gain, held each live pair to the segment holding it, and lps
        and steps count the cell LPs solved and their simplex steps.
        Returns None when no net gains meet every row.  Raises
        NumericalError when a cell LP hits its iteration limit or the
        search needs more than _CELL_LP_CAP of them.
        """
        segs, bounds = self.segments, self.bounds
        areas = sorted({a for _, a in segs})
        if not areas:
            return {}, {}, 0, 0
        lower = np.zeros(len(self.robust_gains)) if lower is None else lower
        cells = _tighten(areas, [self._cells(a, float(lower[a])) for a in areas], segs, bounds)
        if not all(cells):
            return None
        best, best_total, lps, steps = None, -np.inf, 0, 0
        start = (0,) * len(areas)
        heap, seen = [(-sum(c[0][0] for c in cells), start)], {start}
        while heap:
            neg_bound, idx = heapq.heappop(heap)
            if -neg_bound <= best_total:
                break
            combo = [c[j] for c, j in zip(cells, idx)]
            held = {pair: m for _, _, cell_held in combo for pair, m in cell_held.items()}
            if len(areas) == 1:
                knet = {areas[0]: combo[0][0]}  # its clipped top meets every row
            elif lps == _CELL_LP_CAP:
                raise NumericalError(f"droop search needs more than {_CELL_LP_CAP} cell LPs")
            else:
                knet, cell_steps = _cell_lp(areas, combo, held, segs, bounds)
                lps, steps = lps + 1, steps + cell_steps
            if knet is not None and sum(knet.values()) > best_total:
                best, best_total = (knet, held), sum(knet.values())
            for a_id in range(len(areas)):
                nxt = idx[:a_id] + (idx[a_id] + 1,) + idx[a_id + 1:]
                if nxt[a_id] < len(cells[a_id]) and nxt not in seen:
                    seen.add(nxt)
                    heapq.heappush(heap, (-sum(c[j][0] for c, j in zip(cells, nxt)), nxt))
        return None if best is None else (*best, lps, steps)

    def _cells(self, area: int, lower: float) -> list:
        """(top, lo, {pair: segment}) of each non-empty cell of one area, by anchor."""
        gain = float(self.robust_gains[area])
        own = {pair: pair_segs for pair, pair_segs in self.segments.items() if pair[1] == area}
        anchors = {pair: [seg[0] for seg in pair_segs] for pair, pair_segs in own.items()}
        cells = []
        for p in sorted({phi for pair_anchors in anchors.values() for phi in pair_anchors}):
            # every table's first anchor is 0, so each pair holds a segment at p >= 0
            held = {pair: bisect_right(pair_anchors, p) - 1
                    for pair, pair_anchors in anchors.items()}
            top = min([gain] + [own[pair][m][1] for pair, m in held.items()])
            lo = max(p, lower)
            if lo <= top:
                cells.append((top, lo, held))
        return cells


def _tighten(areas: list, cells: list, segs: dict, bounds: dict) -> list:
    """Each area's cells with their tops clipped by every row, highest top first.

    The other areas add to row i at least the least shift any of their
    cells can; a cell whose clip is empty holds no feasible point and is
    dropped.
    """
    least = {}  # (i, a) -> least shift of area a on row i over its cells
    for a, a_cells in zip(areas, cells if len(areas) > 1 else ()):
        for top, lo, held in a_cells:
            for (i, _), m in held.items():
                _, _, slope, offset = segs[(i, a)][m]
                shift = min(slope * lo, slope * top) + offset
                least[(i, a)] = min(least.get((i, a), np.inf), shift)
    out = []
    for a, a_cells in zip(areas, cells):
        room = dict(bounds)
        for (i, other), shift in least.items():
            if other != a:
                room[i] -= shift
        clipped = [(_clip(lo, top, held, segs, room), lo, held) for top, lo, held in a_cells]
        out.append(sorted([c for c in clipped if c[0] is not None], key=lambda c: -c[0]))
    return out


def _clip(lo: float, up: float, held: dict, segs: dict, bounds: dict):
    """Largest k in [lo, up] meeting each held segment's row slope k + offset <= bound, or None."""
    for (i, a), m in held.items():
        _, _, slope, offset = segs[(i, a)][m]
        cap = bounds[i] - offset
        if slope > 0.0:
            up = min(up, cap / slope)
        elif slope < 0.0:
            lo = max(lo, cap / slope)
        elif cap < 0.0:
            return None
    return up if lo <= up else None


def _cell_lp(areas: list, combo: list, held: dict, segs: dict, bounds: dict) -> tuple:
    """({area: k} or None, simplex steps): maximize sum k over one cell per area and every row."""
    rows = {i: r for r, i in enumerate(sorted({i for i, _ in held}))}
    cols = {a: j for j, a in enumerate(areas)}
    lhs = np.zeros((len(rows), len(areas)))
    rhs = np.array([bounds[i] for i in rows])
    for (i, a), m in held.items():
        _, _, slope, offset = segs[(i, a)][m]
        lhs[rows[i], cols[a]] += slope
        rhs[rows[i]] -= offset
    lp = LinearProgram(-np.ones(len(areas)), lhs, ("<=",) * len(rows), rhs,
                       [(lo, top) for top, lo, _ in combo])
    res = solve_lp(lp)
    if res.status == "iteration_limit":
        raise NumericalError("a droop-search cell LP hit its iteration limit")
    return (dict(zip(areas, res.values.tolist())) if res.optimal else None), res.iterations
