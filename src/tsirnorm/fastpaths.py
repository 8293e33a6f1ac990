"""Specialised exact evaluation paths.

Two families of shortcuts:

* run-compressed closed forms for the sup norm, the l1 norm, and the first
  iterate on block-constant vectors (supports may span millions of indices;
  work is polynomial in the number of runs);
* one integer table tower, ``top_points``, for every level from 2 on, the
  limit and both rules on explicit point supports, each stage charged to the
  work budget before it runs, at the size of its full recurrence (an upper
  bound on the steps its kernel makes).  Values are numerators over one
  common denominator in the narrowest width a bound on them certifies:
  int32, int64, or Python ints in an object array, widened as the climb
  doubles them.  The tower starts from the level-1 table, built in bulk:
  every window sum from one broadcast difference of prefix sums, and a
  per-element top-cap update only on the rows whose cap is shorter than
  their window, and there only up to the column past which no later point
  can enter the top (``_level1_table``).  Each rung runs one
  max-plus partition kernel, ``_family_dp``, per right end; the requested
  level runs it once.  A row whose cap spans its whole window has one cover,
  each point its own group: the kernel takes it from a suffix sum of the
  table's diagonal, checked for sentinels, and runs its steps only up to the
  largest cap of the other rows.  It runs them in groups: each group copies
  every block of table rows (about 64 full rows' worth of entries, so
  narrower blocks have more rows) once into a contiguous buffer, from the
  last block to the first, and runs each step of the group on it as one
  numpy add and one row-wise max, all on one thread.  The groups share one
  cover buffer: each block copies its rows of the group's first covers from
  the previous group's last step before it overwrites them.  The kernel
  checks every cover it makes, so no sentinel can meet another sentinel.

Both Schreier maximisers are exact: the objective is piecewise linear in
their scan parameter, and every breakpoint lands in the enumerated
candidate set.  The two use different parametrisations so they can serve
as independent cross-checks of each other.
"""

from __future__ import annotations

import itertools
import sys
from bisect import bisect_left
from fractions import Fraction
from math import isqrt, lcm

import numpy as np

from .rules import AdmissibilityRule
from .session import BudgetExceededError, EvalSession

__all__ = [
    "schreier_max_runs",
    "schreier_max_runs_alt",
    "level1_runs",
    "level2_top_points",
    "level3_top_points",
    "top_points",
    "check_table",
    "TABLE_BYTES_LIMIT",
]

# A table of the tower may take at most this many bytes: 2600 points at
# int64, the largest level-2 table that point counts admitted.
TABLE_BYTES_LIMIT = 2600 * 2600 * 8

# A row block of _family_dp holds about _DP_BLOCK_ROWS * n table entries (as
# many full rows), and a step group has _DP_GROUP_STEPS steps.  Timed on the
# three kernel calls of the (2,2) witness (int32 tables of 1459, 1459 and
# 1468 points, largest unforced cap 53 in each; the same tables cast
# to int64), one 2-vCPU host, medians of nine alternating rounds:
#   rows' worth per block (32 steps)   32      64      128
#   int32                              0.092   0.082   0.092 s
#   int64                              0.140   0.149   0.206 s
#   steps per group (64 rows' worth)   16      32      64
#   int32                              0.084   0.082   0.074 s
#   int64                              0.155   0.149   0.144 s
# The step counts lie inside one another's ranges (0.07-0.09 s in int32,
# 0.14-0.19 s in int64).
_DP_BLOCK_ROWS = 64
_DP_GROUP_STEPS = 32


def _sentinel(values: np.ndarray) -> int:
    """Below every real table value; a sentinel plus a real value stays so.

    A fixed width takes half its minimum (see ``_width``); Python ints take
    one below -16 times the sum of the real, never negative, entries.
    """
    if values.dtype == object:
        return -1 - 16 * int(np.maximum(values, 0).sum())
    return int(np.iinfo(values.dtype).min // 2)


# ---------------------------------------------------------------------------
# Schreier maximisation over runs
# ---------------------------------------------------------------------------

def _caps_at(runs, n: int) -> list[int]:
    """Remaining width of each run once indices below n are cut away."""
    return [max(0, e - max(s, n) + 1) for s, e, _ in runs]


def _greedy_value(runs, order, n: int) -> Fraction | None:
    """Sum of the n largest coefficients among indices >= n, if n fit."""
    caps = _caps_at(runs, n)
    if sum(caps) < n:
        return None
    budget = n
    total = Fraction(0)
    for j in order:
        take = min(caps[j], budget)
        if take:
            total += runs[j][2] * take
            budget -= take
            if budget == 0:
                break
    return total


def schreier_max_runs(runs) -> Fraction:
    """Best Schreier-admissible sum: max over sets P with |P| <= min P.

    Scan parameter: the cardinality n.  For fixed n the optimum takes the n
    largest coefficients among indices >= n; between candidate n values that
    greedy composition varies linearly.
    """
    if not runs:
        return Fraction(0)
    m = len(runs)
    maxpos = runs[-1][1]
    order = sorted(range(m), key=lambda j: (-runs[j][2], runs[j][0]))

    candidates: set[int] = {1, maxpos}
    for s, e, _ in runs:
        candidates.update((s - 1, s, s + 1, e - 1, e, e + 1))

    # Regions of n on which every cap is linear: the gap below the first run,
    # inside run q, or in the gap after run q.  For each region and each
    # prefix of the value order, solve the budget equation n = sum of caps.
    regions = []
    if runs[0][0] > 1:
        regions.append(("gap", -1, 1, runs[0][0] - 1))
    for q in range(m):
        regions.append(("run", q, runs[q][0], runs[q][1]))
        gap_lo = runs[q][1] + 1
        gap_hi = runs[q + 1][0] - 1 if q + 1 < m else maxpos
        if gap_lo <= gap_hi:
            regions.append(("gap", q, gap_lo, gap_hi))
    for kind, q, lo, hi in regions:
        const_sum = 0
        uses_clipped = False
        for j in order:
            s_j, e_j, _ = runs[j]
            if kind == "run" and j == q:
                uses_clipped = True
            elif j > q:
                const_sum += e_j - s_j + 1
            # runs before the region contribute no capacity
            if uses_clipped:
                # n = const_sum + (e_q - n + 1)  =>  2n = const_sum + e_q + 1
                num = const_sum + runs[q][1] + 1
                for cand in (num // 2, num // 2 + 1):
                    if lo <= cand <= hi:
                        candidates.add(cand)
            else:
                for cand in (const_sum - 1, const_sum, const_sum + 1):
                    if lo <= cand <= hi:
                        candidates.add(cand)

    best = Fraction(0)
    for n in candidates:
        if 1 <= n <= maxpos:
            value = _greedy_value(runs, order, n)
            if value is not None and value > best:
                best = value
    return best


def schreier_max_runs_alt(runs) -> Fraction:
    """Independent Schreier maximiser, scanned by (first run, units taken).

    For first run j0 taking c units (pushed to the run's right end), the
    count budget for later runs is e_j0 + 1 - 2c; later runs fill greedily
    by coefficient.  The objective is concave piecewise linear in c.
    """
    if not runs:
        return Fraction(0)
    m = len(runs)
    best = Fraction(0)
    for j0 in range(m):
        s0, e0, w0 = runs[j0]
        tail = sorted(range(j0 + 1, m), key=lambda j: (-runs[j][2], runs[j][0]))
        # Concave fill curve for the tail: breakpoints at cumulative widths.
        cum_width = list(itertools.accumulate(
            (runs[j][1] - runs[j][0] + 1 for j in tail), initial=0))

        def tail_fill(budget: int) -> Fraction:
            if budget <= 0:
                return Fraction(0)
            total = Fraction(0)
            remaining = budget
            for idx, j in enumerate(tail):
                width = cum_width[idx + 1] - cum_width[idx]
                take = min(width, remaining)
                total += runs[j][2] * take
                remaining -= take
                if remaining == 0:
                    break
            return total

        len0 = e0 - s0 + 1
        cs: set[int] = {1, len0}
        for width in cum_width:  # from 0: the first run alone
            # budget e0 + 1 - 2c = width  =>  c = (e0 + 1 - width) / 2
            num = e0 + 1 - width
            for cand in (num // 2, num // 2 + 1):
                if 1 <= cand <= len0:
                    cs.add(cand)
        for c in cs:
            if c > e0 + 1 - c:  # even the first-run picks no longer fit
                continue
            budget = e0 + 1 - 2 * c
            value = w0 * c + tail_fill(budget)
            if value > best:
                best = value
    return best


def level1_runs(runs) -> Fraction:
    """First iterate of a run vector: sup against half the Schreier optimum."""
    if not runs:
        return Fraction(0)
    sup = max(w for _, _, w in runs)
    return max(sup, schreier_max_runs(runs) / 2)


# ---------------------------------------------------------------------------
# Integer-encoded point tables
# ---------------------------------------------------------------------------

def check_table(s: int, entry: int) -> None:
    """Refuse as ``size-limit`` a table of s points at ``entry`` bytes an
    entry that passes TABLE_BYTES_LIMIT."""
    if s * s * entry > TABLE_BYTES_LIMIT:
        raise BudgetExceededError(f"a table of {s} points at {entry} bytes an entry passes "
                                  f"the {TABLE_BYTES_LIMIT}-byte limit", reason="size-limit")


def _width(s: int, total: int, level: int) -> tuple[np.dtype, int]:
    """Width of a level-``level`` table of s points whose numerators sum to
    ``total``, and the budget units one of its transitions weighs.

    The one place that picks the number width.  A level-j value is at most
    2**j times the numerators' sum (a norm never exceeds the l1 norm), so the
    table takes the narrowest width that holds 2**max(level, 4) times it:
    int32 below 2**30 (half the dtype's minimum is the sentinel, so a
    sentinel plus a real value stays representable), int64 below 2**62,
    else Python ints, whose transitions weigh 8 + bits/128 units, the fixed
    widths' 1 (``_family_dp``: 130-280 ns per transition on 64-1024-bit ints,
    3-17 ns at int32/int64; 96-400 points, one 2-vCPU host).  A table past
    TABLE_BYTES_LIMIT is refused as ``size-limit``.
    """
    bound = total << max(level, 4)
    dtype = np.dtype(np.int32 if bound < 1 << 30 else np.int64 if bound < 1 << 62 else object)
    wide = dtype == object
    check_table(s, dtype.itemsize + wide * sys.getsizeof(bound))
    return dtype, 8 + bound.bit_length() // 128 if wide else 1


def _encode(weights) -> tuple[np.ndarray, int]:
    """Numerators over the common denominator Q, in the width certified to level 4."""
    q = lcm(*(w.denominator for w in weights))
    wq = [w.numerator * (q // w.denominator) for w in weights]
    return np.array(wq, dtype=_width(len(wq), sum(wq), 4)[0]), q


def _dp_costs(caps: list[int]) -> list[int]:
    """Size of the recurrence of ``_family_dp(table, n, caps)`` for n = 1, 2,
    ..., len(caps): the work charged for each call.

    This bounds the transitions the kernel makes from above: it counts the
    steps up to the largest cap, forced rows included, while the kernel sums
    the forced rows' diagonals and stops at the largest unforced cap.
    Step r on n points makes (n-r+1)(n-r+2)/2 transitions, for r from 2 to
    the largest cap min(caps[t], n-t): tet(n-1) - tet(n-rmax) in all, with
    tet(m) = m(m+1)(m+2)/6.  One more point raises rmax by at most one, and
    by one exactly when a point t <= n - rmax has a cap above rmax.
    """
    prefmax = list(itertools.accumulate(caps, max))
    costs, rmax = [], 0
    for n in range(1, len(caps) + 1):
        rmax += prefmax[n - 1 - rmax] > rmax
        m = n - max(rmax, 1)
        costs.append(((n - 1) * n * (n + 1) - m * (m + 1) * (m + 2)) // 6)
    return costs


def _level1_table(pos, wq_arr, s) -> np.ndarray:
    """L1[u, c]: first-iterate value of points u..c, numerator over 2Q.

    L1[u, c] = max over t in u..c of max(2 w[t], G[t, c]): either the sup
    part at one point or a Schreier family whose first point is t, with
    G[t, c] the sum of the min(pos[t], c-t+1) largest weights among points
    t..c.  Built in one s x s array in the weights' dtype:

    * every window sum at once, one broadcast difference of prefix sums: G
      itself on the first pos[t] columns of row t, and on the whole row when
      pos[t] spans its window;
    * a clipped row t, with cap m = pos[t] below its window, keeps the top-m
      multiset as the window grows, by classes of equal weights with ptr the
      class of its smallest member.  Nothing changes from its stop column on,
      the first column from which no later point's class exceeds the initial
      ptr (a bisection of the negated suffix maximum of the classes), so the
      loop runs only up to it and the rest of the row takes its last sum;
    * the sup parts in one ``np.maximum`` with 2 w[t], then, from the bottom
      row up, the sentinel below the diagonal and the running maximum over t.
    """
    prefix = np.zeros(s + 1, dtype=wq_arr.dtype)
    np.cumsum(wq_arr, out=prefix[1:])
    l1 = prefix[1:] - prefix[:s, None]
    values = sorted(set(wq_arr.tolist()))
    class_of = {v: i for i, v in enumerate(values)}
    classes = [class_of[v] for v in wq_arr.tolist()]
    neg_suffix_max = (-np.maximum.accumulate(classes[::-1])[::-1]).tolist()
    for t in range(s):
        fill = t + pos[t]
        if fill >= s:
            continue
        window = classes[t:fill]
        ptr = min(window)
        stop = max(fill, bisect_left(neg_suffix_max, -ptr))
        counts = np.bincount(window, minlength=len(values)).tolist()
        gsum = int(l1[t, fill - 1])
        row = []
        for ci in classes[fill:stop]:
            if ci > ptr:
                gsum += values[ci] - values[ptr]
                counts[ci] += 1
                counts[ptr] -= 1
                while counts[ptr] == 0:
                    ptr += 1
            row.append(gsum)
        l1[t, fill:stop] = row
        l1[t, stop:] = gsum
    np.maximum(l1, 2 * wq_arr[:, None], out=l1)
    sentinel = _sentinel(wq_arr)
    for u in range(s - 1, 0, -1):
        l1[u, :u] = sentinel
        row = l1[u - 1, u:]
        np.maximum(row, l1[u, u:], out=row)
    return l1


def _row_blocks(top: int, n: int) -> list[tuple[int, int]]:
    """Row blocks [u0, u1) of a step group whose first step has the rows below
    top - 1, from the last to the first.

    A block holds at most ``_DP_BLOCK_ROWS * n`` table entries, its rows
    times its width top - 1 - u0, so it gains rows as the width shrinks.
    """
    blocks, u1 = [], top - 1
    while u1 > 0:
        done = top - 1 - u1  # the width the rows past the block take
        u0 = max(0, u1 - (isqrt(done * done + 4 * _DP_BLOCK_ROWS * n) - done) // 2)
        blocks.append((u0, u1))
        u1 = u0
    return blocks


def _dp_group(table, caps, rmax, covers, fam, sentinel, buffer, g) -> None:
    """Step group g of ``_family_dp``: steps r0 = 2 + g * _DP_GROUP_STEPS on.

    The group writes ``covers`` and copies its step-0 covers, block by
    block, from their last row, where group g - 1 left its last step (group
    0 from the table's last column).  ``buffer`` is the blocks' scratch
    space.
    """
    n = len(caps)
    r0 = 2 + g * _DP_GROUP_STEPS
    steps = min(_DP_GROUP_STEPS, rmax + 1 - r0)
    top = n - r0 + 2  # step r0-1+i has its rows below top-i
    prev = covers[-1] if g else table[:n, n - 1]
    pad = (-1 - table[:top - 1, top - steps:top - 1].max(initial=0) if table.dtype == object
           else sentinel)
    rows, sums = buffer
    hi = top  # the block's rows of the cover buffer, the top row in the first
    for u0, u1 in _row_blocks(top, n):
        covers[0, u0:hi] = prev[u0:hi]
        covers[1:steps + 1, u0:hi] = pad
        hi = u0
        width = top - 1 - u0
        block = rows[:(u1 - u0) * width].reshape(u1 - u0, width)
        total = sums[:(u1 - u0) * width].reshape(u1 - u0, width)
        np.copyto(block, table[u0:u1, u0:top - 1])
        for i in range(1, min(steps, width) + 1):
            m = min(u1, top - i) - u0
            np.add(block[:m], covers[i - 1, u0 + 1:top], out=total[:m])
            cover = covers[i, u0:u0 + m]
            np.maximum.reduce(total[:m], axis=1, out=cover)
            if np.minimum.reduce(cover) < 0:
                raise RuntimeError(f"sentinel in the {r0 - 1 + i}-group covers "
                                   "of the partition DP")
    done = ((caps >= r0) & (caps < r0 + steps)).nonzero()[0]
    fam[done] = covers[caps[done] - (r0 - 1), done]


def _family_dp(table: np.ndarray, n: int, caps) -> np.ndarray:
    """Family numerators for all starts, families covering points t..n-1.

    ``table[u, c]`` is the group value of points u..c (sentinel below the
    diagonal) and ``caps[t]``, an int64 value, the most groups a family
    starting at point t may have.  Returns fam[t] = best cover of points
    t..n-1 by min(caps[t], n-t) groups, in the table's denominator and
    dtype, or the sentinel where fewer than two groups are admissible.  Step r adds one
    leading group to the (r-1)-group covers: cover_r[u] = max over c in
    u..n-r of table[u, c] + cover_{r-1}[c+1], for every row u <= n-r.
    ``_dp_costs`` gives the size of that recurrence in closed form, an upper
    bound on the transitions made.

    Forced rows: a row t < n-1 with min(caps[t], n-t) == n-t has one cover
    only, every point its own group, so its (n-t)-group cover is the sum of
    the diagonal table[c, c] over c in t..n-1.  The forced rows take those
    values from one reversed cumulative sum of the diagonal, their caps drop
    to 0, and the steps run only up to the largest remaining cap: none when
    every row is forced.  Under either rule the forced rows are a suffix of
    the support, but they are marked row by row, so any caps are served.

    Order: the steps run in groups of ``_DP_GROUP_STEPS``, and each group
    walks its row blocks (``_row_blocks``, about ``_DP_BLOCK_ROWS * n``
    entries each) from the last to the first.  Step r on rows u0..u1-1
    reads step r-1's covers at rows above u0 only: the block's own rows,
    done one step earlier in this pass, and the rows past it, done by the
    blocks before.  So each block's table rows are copied once per group
    into one contiguous buffer, and every step of the group is one add of
    a cover row and one row-wise max on it.

    One buffer: every group writes its covers into one buffer of
    min(_DP_GROUP_STEPS, rmax - 1) + 1 rows, row i holding the
    (r0-1+i)-group covers of the group from step r0 on, so a full group
    leaves its last step in the last row.  Each block of group g first
    copies its own rows of the step-0 covers from that last row, and only
    then pads and steps over those rows; the rows below the block are not
    touched until their own block comes.  So group g reads every covers
    row of group g - 1 before overwriting it.

    Padding: past its step's last row a cover holds a value below minus
    every table value it can meet, so every step reads the block's full
    width.  At a fixed width that is the sentinel (see ``_width``); Python
    ints take one below minus the largest table value in the columns that
    meet it.  A sentinel below the diagonal then only meets a real cover,
    never negative, and a padded cover only a real value above it.

    Guard: the one-group covers are checked once, the diagonal from the
    first forced row on once, and every cover segment as it is made, so no
    read cover or summed diagonal entry is ever a sentinel and no sum
    leaves the width.
    """
    window = np.arange(n, 0, -1)
    caps = np.minimum(caps[:n], window)
    sentinel = _sentinel(table[:n, n - 1])
    fam = np.full(n, sentinel, dtype=table.dtype)
    rmax = int(caps.max(initial=0))
    if rmax < 2:
        return fam
    if table[1:n, n - 1].min() < 0:
        raise RuntimeError("sentinel in the 1-group covers of the partition DP")
    forced = caps == window
    forced[-1] = False  # the last point's one group is no family
    first = int(forced.argmax())
    if forced[first]:
        diagonal = table.diagonal()[first:n]
        if diagonal.min() < 0:
            raise RuntimeError("sentinel on the diagonal of the forced covers of the partition DP")
        forced = forced[first:]
        fam[first:][forced] = np.add.accumulate(diagonal[::-1], dtype=table.dtype)[::-1][forced]
        caps[first:][forced] = 0
        rmax = int(caps.max())
        if rmax < 2:
            return fam
    covers = np.empty((min(_DP_GROUP_STEPS, rmax - 1) + 1, n), dtype=table.dtype)
    buffer = np.empty(_DP_BLOCK_ROWS * n, table.dtype), np.empty(_DP_BLOCK_ROWS * n, table.dtype)
    for g in range((rmax + _DP_GROUP_STEPS - 2) // _DP_GROUP_STEPS):
        _dp_group(table, caps, rmax, covers, fam, sentinel, buffer, g)
    return fam


def top_points(pos: list[int], weights: list[Fraction], rule: AdmissibilityRule,
               k: int | None, session: EvalSession | None = None) -> list[Fraction]:
    """Exact values of levels 0, 1, ... up to k (None: the limit) of a point support.

    Rung j builds L_j[u, b] = max(2 L_{j-1}[u, b], 2**j w[t], fam_b[t] for t
    in u..b) over 2**j Q, fam_b covering the points t..b by at most pos[t]
    groups (literal rule: j-1 groups from index j-1 on).  Level k needs one
    DP, over the whole support.  A rung that only doubles its table ends the
    climb; under the literal rule only once every cap j-1 spans its point's
    whole window, from where the options can only shrink.  Rung s + 2 only
    doubles under either rule (``AdmissibilityRule``), so a climb past it
    raises ``RuntimeError``.  Each stage (the level-1 table, a rung, the top
    DP) is sized and charged before it runs; the level-1 table only with the
    stage at j = 2, which always follows it.
    """
    if k is not None and k < 2:
        raise ValueError("the table tower starts at level 2")
    s = len(pos)
    if s == 0:
        return [Fraction(0)]
    fj = rule is AdmissibilityRule.FIGIEL_JOHNSON
    session = session or EvalSession()
    wq_arr, q = _encode(weights)
    total = sum(wq_arr.tolist())
    for j in itertools.count(2) if k is None else range(2, k + 1):
        if j > s + 2:  # rung s + 2 only doubles: every level from s + 1 on is the same
            raise RuntimeError(f"the table tower passed level {s + 2} without a fixed point")
        # An index past s caps no family further; the kernel calls of a rung
        # share one int64 array of the caps.
        caps = [min(p, s) for p in pos] if fj else [j - 1 if p >= j - 1 else 0 for p in pos]
        costs = _dp_costs(caps)
        caps = np.array(caps, dtype=np.int64)
        dtype, weight = _width(s, total, j)
        units = costs[-1] if j == k else sum(costs)
        if j == 2:
            # Level 1.  With caps of 1 the G part is a window maximum, below
            # 2 w[t]: the literal rule's step 1 admits no family.
            session.charge(s * (s + 1) // 2, "tables_built", ahead=units * weight)
            table = _level1_table(pos if fj else [1] * s, wq_arr, s)
            tops = [Fraction(int(wq_arr.max()), q), Fraction(int(table[0, -1]), 2 * q)]
        session.charge(units, "dp_transitions", weight)
        sup = (1 << j) * wq_arr.astype(dtype, copy=False)
        # This rung reads only values that the old width certified, so its
        # sentinels below the diagonal still hold; the values it makes may not.
        table = table.astype(dtype, copy=False)
        if j == k:
            fam = _family_dp(table, s, caps)
            return tops + [Fraction(int(max(2 * table[0, -1], sup.max(), fam.max())), q << j)]
        below, table = table, np.full_like(table, _sentinel(table))
        for b in range(s):
            best = np.maximum(_family_dp(below, b + 1, caps), sup[:b + 1])
            best = np.maximum.accumulate(best[::-1])[::-1]
            table[:b + 1, b] = np.maximum(best, 2 * below[:b + 1, b])
        tops.append(Fraction(int(table[0, -1]), q << j))
        settled = fj or all(s - t <= j - 1 for t, p in enumerate(pos) if p >= j - 1)
        if settled and np.array_equal(np.triu(table), np.triu(2 * below)):
            return tops


def level2_top_points(pos: list[int], weights: list[Fraction],
                      session: EvalSession | None = None) -> Fraction:
    """Exact second iterate (Figiel-Johnson) of an explicit point support."""
    return top_points(pos, weights, AdmissibilityRule.FIGIEL_JOHNSON, 2, session)[-1]


def level3_top_points(pos: list[int], weights: list[Fraction],
                      session: EvalSession | None = None) -> Fraction:
    """Exact third iterate (Figiel-Johnson) of an explicit point support."""
    return top_points(pos, weights, AdmissibilityRule.FIGIEL_JOHNSON, 3, session)[-1]
