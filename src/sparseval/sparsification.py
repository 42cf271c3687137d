"""Per-class sparsification and oracle curves over confidence rankings.

For a class c, only points whose ground truth or prediction equals c can
change IoU_c; that set is the class-relevant subset. Points are removed in
order of increasing confidence, and after each removal step the remaining
IoU_c error (1 - IoU_c) is recorded. The oracle curve removes the incorrect
points first, which is the best possible order, so the area between the two
curves measures how close the confidence ranking comes to ground truth.

One engine, ``_class_curves``, computes every curve without sorting the
split: it selects each grid cut inside a value bucket (Floyd and Rivest,
CACM 1975), and the oracle is closed-form in the class's counts.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    ClassCatalog,
    ConfidenceVector,
    EvalConfig,
    LabelArray,
    SCAN_POINTS,
    as_integer,
    label_dtype,
)
from .errors import DimensionMismatch, EmptySubset, SubsetTooLarge
from .segmetrics import ConfusionMatrix, confusion

BRUTE_FORCE_MAX_POINTS = 20

# most kept points per chunk of the engine's passes; the members one round
# may gather even when that exceeds n / 8, since in a small split nearly
# every bucket holds a cut and splitting them all takes more memory than
# gathering them; children of a split window
CHUNK_POINTS = SCAN_POINTS >> 1
GATHER_POINTS = 1 << 17
_FANOUT = 16
_IDLE, _GATHER, _SPLIT, _TIE, _INNER = range(5)


@dataclass(frozen=True)
class FractionGrid:
    """Removal fractions j / grid_steps for j = 0 .. grid_steps - 1."""

    grid_steps: int

    def __post_init__(self):
        object.__setattr__(self, "grid_steps", as_integer("grid_steps", self.grid_steps, 1))

    @property
    def steps(self) -> np.ndarray:
        return np.arange(self.grid_steps, dtype=np.float64) / self.grid_steps

    def removal_counts(self, n: int) -> np.ndarray:
        # floor(j/G * n) computed in exact integer arithmetic
        return (np.arange(self.grid_steps, dtype=np.int64) * n) // self.grid_steps


@dataclass(frozen=True)
class CurvePair:
    """Sparsification and oracle errors of one class on a shared grid."""

    class_index: int
    grid: FractionGrid
    sparsification_error: np.ndarray
    oracle_error: np.ndarray
    relevant_count: int

    def __post_init__(self):
        spars = np.asarray(self.sparsification_error, dtype=np.float64)
        orac = np.asarray(self.oracle_error, dtype=np.float64)
        if spars.shape != (self.grid.grid_steps,) or orac.shape != spars.shape:
            raise ValueError("curve arrays must match the fraction grid")
        if not ((spars >= 0.0) & (spars <= 1.0) & (orac >= 0.0) & (orac <= 1.0)).all():
            raise ValueError("curve errors must lie in [0, 1]")
        if (orac > spars).any():
            raise ValueError("oracle error may never exceed the sparsification error")
        if (np.diff(orac) > 0).any():
            raise ValueError("oracle error must be non-increasing")
        object.__setattr__(self, "sparsification_error", spars)
        object.__setattr__(self, "oracle_error", orac)
        object.__setattr__(
            self, "relevant_count", as_integer("relevant_count", self.relevant_count, 1)
        )


def relevant_subset(
    pred: LabelArray, gt: LabelArray, catalog: ClassCatalog, class_index: int
) -> np.ndarray:
    """Indices whose ground truth or prediction equals the class, ignores excluded.

    The labels are checked as ``confusion`` checks them.
    """
    confusion(pred, gt, catalog)
    g = gt.values
    mask = (g != catalog.ignore_index) & ((g == class_index) | (pred.values == class_index))
    return np.flatnonzero(mask)


def _remaining_error(rem_tp: np.ndarray, rem_err: np.ndarray) -> np.ndarray:
    """IoU error err / (tp + err) of the points left at each grid step."""
    denom = rem_tp + rem_err
    errors = np.zeros(denom.size, dtype=np.float64)
    live = denom > 0
    # err/(tp+err) rather than 1 - tp/(tp+err): one rounding, and rounding is
    # monotone, so oracle dominance holds exactly in floating point
    errors[live] = rem_err[live] / denom[live]
    return errors


def _totals(matrix: ConfusionMatrix, classes: Sequence[int]) -> list[tuple[int, int]]:
    """(relevant points, true positives) of each of ``classes`` in the
    confusion ``matrix``; an index outside the catalog, negative ones
    included, has no points, since confusion admits no label outside it."""
    tps = np.diag(matrix.counts)
    relevant = matrix.counts.sum(axis=0) + matrix.counts.sum(axis=1) - tps
    return [(int(relevant[c]), int(tps[c])) if 0 <= c < matrix.k else (0, 0) for c in classes]


def _oracle_error(
    n_rel: int, n_tp: int, n: int, grid: FractionGrid, ranking_domain: str
) -> np.ndarray:
    """Error curve of a class with ``n_rel`` relevant points, ``n_tp`` of
    them true positives, when the best order removes the points of its
    ranking domain: its relevant points, or all ``n`` kept points."""
    domain = n_rel if ranking_domain == "subset" else n
    removed, n_err = grid.removal_counts(domain), n_rel - n_tp
    # errors go first, then points irrelevant to the class, then true positives
    return _remaining_error(
        n_tp - np.maximum(0, removed - (domain - n_tp)), n_err - np.minimum(removed, n_err)
    )


def _buckets(k: int, n: int) -> int:
    """Value buckets per class: the largest power of two up to 2^12 whose
    table of two counts per class and bucket, each of the smallest unsigned
    type that holds n, takes at most 1 B per point."""
    per_bucket = 2 * k * np.min_scalar_type(n).itemsize
    return 1 << min(12, max(0, (n // per_bucket).bit_length() - 1))


def _chunk(n: int) -> int:
    """Points per chunk of a pass: n / 16 rounded down to a power of two in
    2^10 .. ``CHUNK_POINTS``, so that a small split takes small chunks."""
    return min(CHUNK_POINTS, 1 << max(10, (n >> 4).bit_length() - 1))


def _bucket(sc: np.ndarray, buckets: int) -> np.ndarray:
    """min(floor(s * B), B - 1) of each score, a monotone bucket in [0, B);
    B is a power of two, so s * B is exact in float32 too."""
    b = np.multiply(sc, buckets, out=np.empty(sc.size, dtype=np.intp), casting="unsafe")
    return np.minimum(b, buckets - 1, out=b)


def _members(g, p, s, perm, buckets, k, root, subset, step):
    """Per ``step`` kept points in tie order (point order, or ``perm``'s):
    window (``root`` maps cells to them), value bits and payload codes of
    each member. A subset member is a point's entry for its class, and for
    its prediction if wrong, in cell class * B + bucket, coded 1 if a true
    positive; a global member is a point in cell bucket, coded 2 * class +
    (1 if right) and 2 * prediction (2 * k if right)."""
    for lo in range(0, s.size, step):
        at = slice(lo, lo + step) if perm is None else perm[lo : lo + step]
        gc, pc, sc = g[at], p[at], s[at]
        b, hit = _bucket(sc, buckets), gc == pc
        if subset:
            # a point's two entries side by side keep tie order; a true
            # positive's second entry repeats its first
            wg, wp = (root.take(np.multiply(c, buckets, dtype=np.intp) + b) for c in (gc, pc))
            pt = np.flatnonzero((wg >= 0) | (wp >= 0))
            hit = hit[pt]
            w = np.stack((wg[pt], np.where(hit, -1, wp[pt])), axis=1).ravel()
            e = np.flatnonzero(w >= 0)
            codes = [hit[e >> 1] & (e & 1 == 0)]
            pt = pt[e >> 1]
        else:
            w = root.take(b)
            e = pt = np.flatnonzero(w >= 0)
            gc, pc = (2 * c[pt].astype(np.intp) for c in (gc, pc))
            codes = [gc + hit[pt], np.where(hit[pt], 2 * k, pc)]
        # float64 value bits, of float32 scores too; -0.0 becomes 0.0
        yield w[e], np.add(sc[pt], 0.0, dtype=np.float64).view(np.int64), codes


def _child(v, low, extent):
    """The child of a window from ``low`` over ``extent`` that holds value
    bits v, monotone in v: children hold consecutive values."""
    return np.minimum(((v.view(np.float64) - low) / extent * _FANOUT).astype(np.intp), _FANOUT - 1)


def _contribute(tally, keys, at, ends, codes, width):
    """Count the members' ``codes`` for each cut of their window whose head
    passes their rank: ``keys`` are the cuts' sorted window * (n + 1) +
    head, ``at`` the members' window * (n + 1) + rank, ``ends`` one past
    their window's last cut; ``tally`` is summed along the cuts."""
    first = np.searchsorted(keys, at, side="right")
    for c in codes:
        np.add.at(tally, first * width + c, 1)
        np.subtract.at(tally, ends * width + c, 1)


def _count_gathered(packed, codes, wide, gather, keys, ends, tally, span, width):
    """Count the gathered members for their cuts: ``packed`` holds (rank in
    ``gather``) << wide | value offset in tie order, and is overwritten."""
    m = packed.size
    order = np.argsort(packed)
    packed.sort()
    starts = np.searchsorted(packed, np.arange(gather.size) << wide)
    tied = packed[1:] == packed[:-1]
    if tied.any():
        # equal keys are exact ties: back into gather order, which is tie
        # order, by a sort of unique group * m + order, in place (a stable
        # argsort of the keys takes about five times as long)
        packed[0] = 0
        np.cumsum(~tied, out=packed[1:])
        packed *= m
        packed += order
        packed.sort()
        np.remainder(packed, m, out=order)
    del tied
    step = _chunk(m)
    for lo in range(0, m, step):
        at = np.arange(lo, min(lo + step, m))
        which = np.searchsorted(starts, at, side="right") - 1
        w, mine = gather[which], order[lo : lo + step]
        at += w * span - starts[which]
        _contribute(tally, keys, at, ends[w], [c[mine] for c in codes], width)


def _resolve(g, p, s, perm, buckets, k, cells, sizes, head, acc, subset):
    """Add to ``acc[t]`` the payload counts of the first ``head[t]`` members,
    in ranking order, of cell ``cells[t]``, which holds ``sizes[t]``.

    A cut lies in a window of its cell's value bits, at first its bucket.
    Each round is one pass in tie order: the smallest windows, n / 8 members
    in all (or ``GATHER_POINTS``), are gathered and sorted; an exact tie is
    counted in tie order; any other window is split into ``_FANOUT``
    children of consecutive values, and each of its cuts moves on into the
    child that holds its head-th member.
    """
    n, width, span = s.size, acc.shape[1], s.size + 1
    budget = max(n >> 3, GATHER_POINTS)
    live = np.flatnonzero(head > 0)
    roots, one, win = np.unique(cells[live], return_index=True, return_inverse=True)
    j = roots % buckets
    edges = (np.arange(buckets + 1) / buckets).view(np.int64)
    lo, hi, size = edges[j], edges[j + 1] - (j < buckets - 1), sizes[live[one]]
    root = np.full((k if subset else 1) * buckets, -1, dtype=np.intp)
    root[roots] = np.arange(roots.size)
    # the first of a split window's children, which take consecutive ids
    first = np.full(roots.size, -1, dtype=np.intp)
    while live.size:
        # the windows that hold a cut, in id order; np.unique would import
        # numpy.ma to ask whether the ids are masked
        active = np.flatnonzero(np.bincount(win, minlength=lo.size))
        ranged = active[lo[active] < hi[active]]
        ranged = ranged[np.argsort(size[ranged], kind="stable")]
        wide = 63 - (ranged.size - 1).bit_length()
        fits = ((hi[ranged] - lo[ranged]) >> wide == 0) & (size[ranged] <= budget >> 3)
        fits &= np.cumsum(np.where(fits, size[ranged], 0)) <= budget
        gather, split = ranged[fits], np.sort(ranged[~fits])
        # what a member of each window does in this pass: windows split in
        # an earlier one send it on to a child
        role = np.where(first >= 0, _INNER, _IDLE).astype(np.int8)
        role[active], role[gather], role[split] = _TIE, _GATHER, _SPLIT
        done = role[win] != _SPLIT
        keys = win[done] * span + head[live[done]]
        by_key = np.argsort(keys)
        keys = keys[by_key]
        ends = np.searchsorted(keys, (np.arange(lo.size) + 1) * span)
        tally, passed = np.zeros((keys.size + 1) * width, np.int64), np.zeros(lo.size, np.int64)
        rank = np.zeros(lo.size, dtype=np.int64)
        rank[gather] = np.arange(gather.size)
        low, extent = lo.view(np.float64), hi.view(np.float64) - lo.view(np.float64)
        base = lo.size
        first[split] = base + _FANOUT * np.arange(split.size)
        payload = np.zeros(split.size * _FANOUT * width, np.int64)
        key_min, key_max = np.full(split.size * _FANOUT, 1 << 62), np.full(payload.size // width, -1)
        packed = np.empty(int(size[gather].sum()), dtype=np.int64)
        kept = [np.empty(packed.size, dtype=np.min_scalar_type(2 * k)) for _ in range(2 - subset)]
        filled, inner = 0, (role == _INNER).any()
        # chunks a quarter the size when most points are members, or when
        # a chunk's labels and scores are copies, gathered through perm
        step = max(_chunk(n) >> 2 * (perm is not None or size[active].sum() > n >> 2), 1 << 12)
        for at, bits, codes in _members(g, p, s, perm, buckets, k, root, subset, step):
            while inner:
                down = np.flatnonzero(role.take(at) == _INNER)
                if not down.size:
                    break
                w = at[down]
                at[down] = first[w] + _child(bits[down], low[w], extent[w])
            r = role.take(at)
            mine = np.flatnonzero(r == _SPLIT)
            w, v = at[mine], bits[mine]
            slot = first[w] - base + _child(v, low[w], extent[w])
            for c in codes:
                np.add.at(payload, slot * width + c[mine], 1)
            np.minimum.at(key_min, slot, v)
            np.maximum.at(key_max, slot, v)
            mine = np.flatnonzero(r == _TIE)
            if mine.size:
                # each tie's members in tie order, ranked after those passed
                mine = mine[np.argsort(at[mine], kind="stable")]
                w, i = at[mine], np.arange(mine.size)
                new = np.concatenate(([True], w[1:] != w[:-1]))
                ranks = passed[w] + i - np.maximum.accumulate(np.where(new, i, 0))
                np.add.at(passed, w, 1)
                _contribute(tally, keys, w * span + ranks, ends[w], [c[mine] for c in codes], width)
            mine = np.flatnonzero(r == _GATHER)
            end, w = filled + mine.size, at[mine]
            packed[filled:end] = (rank[w] << wide) | (bits[mine] - lo[w])
            for out, c in zip(kept, codes):
                out[filled:end] = c[mine]
            filled = end
            del at, bits, codes, r, mine, w, v, slot
        if packed.size:
            _count_gathered(packed, kept, wide, gather, keys, ends, tally, span, width)
        del packed, kept
        acc[live[done][by_key]] += np.cumsum(tally.reshape(-1, width), axis=0)[:-1]
        live, win = live[~done], win[~done]
        # every member adds one to its payload codes, a global member two
        payload = payload.reshape(split.size, _FANOUT, width)
        members = payload.sum(axis=2) // (2 - subset)
        seen = np.cumsum(members, axis=1) - members
        row = np.searchsorted(split, win)
        pick = (seen[row] < head[live, None]).sum(axis=1) - 1
        head[live] -= seen[row, pick]
        acc[live] += (np.cumsum(payload, axis=1) - payload)[row, pick]
        win = first[split[row]] + pick
        lo, hi = np.concatenate((lo, key_min)), np.concatenate((hi, key_max))
        size = np.concatenate((size, members.ravel()))
        first = np.concatenate((first, np.full(key_min.size, -1, dtype=np.intp)))
    return acc


def _removals(g, p, s, perm, k, grid, classes, totals, ranking_domain):
    """(removed relevant points, removed true positives) at each grid cut,
    per class (None: no relevant point), of kept labels ``g``, predictions
    ``p`` and scores ``s``; ``perm`` orders ties if given. One pass counts
    each class's relevant points and true positives per value bucket, which
    places each cut, after m of a class's relevant points (subset domain) or
    after r points (global domain), in a bucket; ``_resolve`` does the rest.
    """
    n, subset = s.size, ranking_domain == "subset"
    buckets, step = _buckets(k, n), _chunk(n)
    table = np.zeros((k, buckets, 2), dtype=np.min_scalar_type(n))
    for lo in range(0, n, step):
        gc, pc, b = g[lo : lo + step], p[lo : lo + step], _bucket(s[lo : lo + step], buckets)
        # bin 2 * (class * B + bucket) + 1 counts true positives, the bin
        # before it other relevant points, once the true positives that the
        # prediction's entry counts there too are taken off
        index = np.empty((2, b.size), dtype=np.intp)
        np.multiply(gc, 2 * buckets, out=index[0], dtype=np.intp)
        np.multiply(pc, 2 * buckets, out=index[1], dtype=np.intp)
        b <<= 1
        index += b
        index[0] += gc == pc
        counts = np.bincount(index.ravel(), minlength=table.size).reshape(table.shape)
        np.add(table, counts, out=table, casting="unsafe")
        del index, b, counts
    table[..., 0] -= table[..., 1]
    # per ranking unit, a class or all points: each cut's bucket, its head
    # in the bucket, the bucket's members, and the payload counts below it
    units = np.array([c for c, (n_rel, _) in zip(classes, totals) if n_rel] if subset else [0])
    held = table[units] if subset else table.transpose(1, 0, 2).reshape(1, buckets, 2 * k)
    del table
    np.cumsum(held, axis=1, out=held)
    seen = held.sum(axis=2, dtype=np.int64)
    if not subset:
        # a point is one true positive, or two other relevant entries
        seen -= held[..., ::2].sum(axis=2, dtype=np.int64) // 2
    seen = np.pad(seen, ((0, 0), (1, 0)))
    removed, u = grid.removal_counts(seen[:, -1:]), np.arange(units.size)[:, None]
    j = np.searchsorted((seen + u * (n + 1)).ravel(), removed + u * (n + 1), side="right")
    j -= u * (buckets + 1) + 1
    head, sizes = (removed - seen[u, j]).ravel(), (seen[u, j + 1] - seen[u, j]).ravel()
    acc = np.where(j[..., None] > 0, held[u, j - 1], 0).reshape(head.size, -1)
    cells = (units[:, None] * buckets + j).ravel()
    del held, seen
    acc = np.pad(acc.astype(np.int64), ((0, 0), (0, 1 - subset)))
    acc = _resolve(g, p, s, perm, buckets, k, cells, sizes, head, acc, subset)
    if subset:
        tps = iter(acc[:, 1].reshape(-1, grid.grid_steps))
        return [(grid.removal_counts(n_rel), next(tps)) if n_rel else None for n_rel, _ in totals]
    hits = acc[:, 1:-1:2]
    seen = acc[:, :-1:2] + hits
    return [(seen[:, c], hits[:, c]) if n_rel else None for c, (n_rel, _) in zip(classes, totals)]


def _class_curves(
    pred: LabelArray,
    gt: LabelArray,
    confs: dict[str, ConfidenceVector],
    catalog: ClassCatalog,
    grid: FractionGrid,
    classes: Sequence[int],
    config: EvalConfig,
    counts: ConfusionMatrix | None = None,
) -> list[dict[str, CurvePair] | None]:
    """{measure: CurvePair} per entry of ``classes``, None for a class with
    no relevant point: the single curve engine behind every public entry.

    The ranking policy is read from ``config`` (tie_break, rng_seed,
    ranking_domain), which checked it. Labels are checked and each class
    counted by ``confusion``, unless the caller hands in ``counts``, the
    confusion of these very labels, which it has checked. ``_removals``
    counts what each cut removes; those counts are integers, so the curves
    do not depend on how they were counted.
    """
    matrix = confusion(pred, gt, catalog) if counts is None else counts
    for conf in confs.values():
        if len(conf) != len(gt):
            raise DimensionMismatch(
                f"confidence covers {len(conf)} points but labels cover {len(gt)}"
            )
    n, k = matrix.total, catalog.k
    totals = _totals(matrix, classes)
    if not any(n_rel for n_rel, _ in totals):
        return [None] * len(totals)
    oracles = [
        None if n_rel == 0 else _oracle_error(n_rel, n_tp, n, grid, config.ranking_domain)
        for n_rel, n_tp in totals
    ]
    keep = None if n == len(gt) else gt.values != catalog.ignore_index
    # kept labels as a pooled column holds them, so that it is not copied
    g, p = (a.values.astype(label_dtype(k), copy=False) for a in (gt, pred))
    if keep is not None:
        g, p = g[keep], p[keep]
    perm = None
    if config.tie_break == "seeded_random":
        # one shuffle of the whole ranking domain, shared by every class and
        # measure; restricted to one class it is a uniform shuffle of that class
        perm = np.random.default_rng(config.rng_seed).permutation(n)
    out = [None if n_rel == 0 else {} for n_rel, _ in totals]
    for measure, conf in confs.items():
        scores = conf.scores if keep is None else conf.scores[keep]
        removals = _removals(g, p, scores, perm, k, grid, classes, totals, config.ranking_domain)
        del scores
        for c, pairs, orac, (n_rel, n_tp), cut in zip(classes, out, oracles, totals, removals):
            if cut is not None:
                removed, removed_tp = cut
                err = (n_rel - n_tp) - (removed - removed_tp)
                spars = _remaining_error(n_tp - removed_tp, err)
                pairs[measure] = CurvePair(c, grid, spars, orac, n_rel)
    return out


def sparsification_curve(*args, **kwargs) -> np.ndarray:
    """``curve_pair(...).sparsification_error`` for the same arguments."""
    return curve_pair(*args, **kwargs).sparsification_error


def oracle_curve(
    pred: LabelArray,
    gt: LabelArray,
    catalog: ClassCatalog,
    class_index: int,
    grid: FractionGrid,
    *,
    ranking_domain: str = "subset",
) -> np.ndarray:
    """Error curve under the best possible order: incorrect points first."""
    config = EvalConfig(ranking_domain=ranking_domain)
    matrix = confusion(pred, gt, catalog)
    (n_rel, n_tp), = _totals(matrix, (class_index,))
    if n_rel == 0:
        raise EmptySubset(f"class {class_index} has no ground-truth or predicted points")
    return _oracle_error(n_rel, n_tp, matrix.total, grid, config.ranking_domain)


def curve_pair(
    pred: LabelArray,
    gt: LabelArray,
    conf: ConfidenceVector,
    catalog: ClassCatalog,
    class_index: int,
    grid: FractionGrid,
    *,
    tie_break: str = "stable_index",
    seed: int = 0,
    ranking_domain: str = "subset",
) -> CurvePair:
    """Both curves of one class over a shared grid. The ranking removes the
    lowest confidence first, so no strictly increasing transform of the
    scores changes a curve; ties keep point-index order, or under
    "seeded_random" that of one permutation of all non-ignored points drawn
    from ``seed`` (masked to 64 bits, as ``EvalConfig.rng_seed`` is), the
    one ``class_curves_by_measure`` shares among every class."""
    config = EvalConfig(tie_break=tie_break, rng_seed=seed, ranking_domain=ranking_domain)
    confs = {conf.measure: conf}
    pairs, = _class_curves(pred, gt, confs, catalog, grid, (class_index,), config)
    if pairs is None:
        raise EmptySubset(f"class {class_index} has no ground-truth or predicted points")
    return pairs[conf.measure]


def ause(curves: CurvePair) -> float:
    """Mean gap between the sparsification and oracle curves; 0 is perfect."""
    return float(np.mean(curves.sparsification_error - curves.oracle_error))


def brute_force_ause(
    pred: LabelArray,
    gt: LabelArray,
    conf: ConfidenceVector,
    catalog: ClassCatalog,
    class_index: int,
) -> float:
    """Reference value from explicit single-point removals; test use only.

    Re-evaluates IoU_c from the raw labels after every removal instead of
    using cumulative counts, with one grid step per subset point. Kept
    deliberately naive and independent of the fast path.
    """
    g = [int(v) for v in gt.values]
    p = [int(v) for v in pred.values]
    s = [float(v) for v in conf.scores]
    if len(p) != len(g) or len(s) != len(g):
        raise DimensionMismatch("labels, predictions, and confidence must align")
    c = class_index
    subset = [
        i
        for i in range(len(g))
        if g[i] != catalog.ignore_index and (g[i] == c or p[i] == c)
    ]
    if not subset:
        raise EmptySubset(f"class {c} has no ground-truth or predicted points")
    if len(subset) > BRUTE_FORCE_MAX_POINTS:
        raise SubsetTooLarge(
            f"{len(subset)} relevant points exceed the brute-force cap of "
            f"{BRUTE_FORCE_MAX_POINTS}"
        )

    def iou_error(remaining: list[int]) -> float:
        tp = sum(1 for i in remaining if g[i] == c and p[i] == c)
        fp = sum(1 for i in remaining if p[i] == c and g[i] != c)
        fn = sum(1 for i in remaining if g[i] == c and p[i] != c)
        denom = tp + fp + fn
        return 0.0 if denom == 0 else 1.0 - tp / denom

    by_confidence = sorted(subset, key=lambda i: (s[i], i))
    by_oracle = sorted(subset, key=lambda i: (0 if g[i] != p[i] else 1, i))
    n = len(subset)
    spars = [iou_error(by_confidence[m:]) for m in range(n)]
    orac = [iou_error(by_oracle[m:]) for m in range(n)]
    return sum(a - b for a, b in zip(spars, orac)) / n


def class_curves_by_measure(
    pred: LabelArray,
    gt: LabelArray,
    confs: dict[str, ConfidenceVector],
    catalog: ClassCatalog,
    config: EvalConfig,
    *,
    _counts: ConfusionMatrix | None = None,
) -> list[dict[str, CurvePair] | None]:
    """CurvePairs for every catalog class under each supplied confidence.

    Each measure is ranked once for all classes, and the oracle curve, which
    does not depend on the measure, once per class. Classes with empty
    relevant subsets yield None. ``_counts`` is the confusion of these very
    labels, checked by the caller, as ``evaluate_split`` and
    ``per_class_ause`` hold it already.
    """
    grid = FractionGrid(config.grid_steps)
    return _class_curves(pred, gt, confs, catalog, grid, range(catalog.k), config, _counts)
