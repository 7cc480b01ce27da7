"""Property tests for the two O(n*m) labelling kernels: the broadcast IoU and
the per-object ranking behind every anchor and point strategy."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from boxmatch import assignment, fcos, geometry, simulator
from boxmatch.anchors import AnchorGridSpec, LevelSpec, generate_anchors, generate_points
from boxmatch.assignment import (
    NEGATIVE,
    amplified_iou,
    classify_to_localize,
    localize_to_classify,
    matrix_values,
    ranked_selection,
    static_assign,
)
from boxmatch.geometry import (
    Box,
    _row_best,
    boxes_to_array,
    broadcast_iou,
    iou,
    pairwise_iou,
)
from boxmatch.simulator import (
    Scene,
    SceneSpec,
    TrajectoryConfig,
    run_trajectory,
    synth_point_predictions,
    synth_predictions,
    synth_scene,
)
from oracles import brute_force_ranked_selection, brute_force_static_assign

# integer corners make touching, nested and identical boxes common
COORD = st.integers(0, 24) | st.floats(0, 24, allow_nan=False)
EXTENT = st.integers(1, 12) | st.floats(0.5, 12, allow_nan=False)


@st.composite
def boxes(draw, min_size=1, max_size=6):
    sides = draw(st.lists(st.tuples(COORD, COORD, EXTENT, EXTENT), min_size=min_size,
                          max_size=max_size))
    return [Box(x, y, x + w, y + h) for x, y, w, h in sides]


class TestBroadcastIoU:
    @given(boxes(), boxes())
    def test_pairwise_equals_scalar_iou_exactly(self, a, b):
        matrix = pairwise_iou(boxes_to_array(a), boxes_to_array(b))
        assert matrix.shape == (len(a), len(b))
        assert matrix.T.flags.c_contiguous
        for i, box_a in enumerate(a):
            for j, box_b in enumerate(b):
                assert matrix[i, j] == iou(box_a, box_b)

    @given(st.data())
    def test_rowwise_equals_scalar_iou_exactly(self, data):
        a = data.draw(boxes(max_size=8))
        b = data.draw(boxes(min_size=len(a), max_size=len(a)))
        rowwise = broadcast_iou(boxes_to_array(a), boxes_to_array(b))
        assert rowwise.tolist() == [iou(x, y) for x, y in zip(a, b)]

    def test_disjoint_boxes_whose_areas_underflow(self):
        """The one disjoint pair whose bits differ: both areas underflow to 0, so the union
        does, and 0 / 0 reads NaN, where the scalar ``iou`` returns 0.0 before dividing."""
        a, b = Box(0.0, 0.0, 1e-200, 1e-200), Box(2e-200, 0.0, 3e-200, 1e-200)
        assert iou(a, b) == 0.0
        with np.errstate(invalid="ignore"):
            assert np.isnan(broadcast_iou(boxes_to_array([a]), boxes_to_array([b]))).all()
            assert np.isnan(pairwise_iou([a], [b])).all()

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            ((0, 0, 2, 2), (5, 5, 7, 7), 0.0),  # disjoint
            ((0, 0, 2, 2), (2, 0, 4, 2), 0.0),  # touching along an edge
            ((0, 0, 2, 2), (2, 2, 4, 4), 0.0),  # touching at a corner
            ((0, 0, 4, 4), (1, 1, 3, 3), 0.25),  # nested
            ((1, 2, 3, 5), (1, 2, 3, 5), 1.0),  # identical
            ((0, 0, 2, 2), (1, 1, 3, 3), 1 / 7),  # two single boxes, each passed as (1, 4)
        ],
    )
    def test_hand_cases(self, a, b, expected):
        arr_a, arr_b = np.asarray([a], float), np.asarray([b], float)
        assert pairwise_iou(arr_a, arr_b)[0, 0] == expected == iou(Box(*a), Box(*b))
        assert broadcast_iou(arr_a, arr_b)[0] == expected


# few distinct values, many zeros: ties, all-zero columns and pools with
# fewer positive scores than the budget are common
SCORE = st.sampled_from([0.0, 0.0, 0.0, 0.25, 0.5, 0.5, 1.0]) | st.floats(0, 1)


@st.composite
def selection_cases(draw):
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    values = np.asarray(draw(st.lists(SCORE, min_size=n * m, max_size=n * m))).reshape(n, m)
    n_pos = draw(st.lists(st.integers(0, n + 2), min_size=m, max_size=m))
    n_ign = draw(st.lists(st.integers(0, n), min_size=m, max_size=m))
    flags = st.lists(st.booleans(), min_size=n * m, max_size=n * m)
    mask = draw(st.none() | flags.map(lambda f: np.asarray(f).reshape(n, m)))
    return values, n_pos, n_ign, mask


@st.composite
def ranking_cases(draw):
    """Scores of few distinct values, so tie runs are long, and a k from 1 to past their end."""
    scores = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0]), max_size=30))
    return scores, draw(st.integers(1, len(scores) + 2))


def table(mask):
    """The pool table of a dense (n, m) candidate mask, or None for every sample."""
    return None if mask is None else assignment._runs(np.asarray(mask))


def check_against_oracle(values, n_pos, n_ign, mask=None):
    result = ranked_selection(np.asarray(values, float), n_pos, n_ign, table(mask))
    mask_rows = None if mask is None else np.asarray(mask).tolist()
    labels, premerge = brute_force_ranked_selection(values, n_pos, n_ign, mask_rows)
    assert result.labels.tolist() == labels
    assert result.premerge_positive_counts == premerge
    return result


class TestRankedSelection:
    @given(selection_cases())
    def test_matches_brute_force_oracle(self, case):
        values, n_pos, n_ign, mask = case
        check_against_oracle(values.tolist(), n_pos, n_ign, mask)

    @given(selection_cases(), st.floats(1.0001, 10), st.data())
    def test_amplifying_the_runs_equals_ranking_the_amplified_matrix(self, case, sigma, data):
        values, n_pos, n_ign, mask = case
        scores = np.asarray(data.draw(st.lists(SCORE, min_size=values.size,
                                               max_size=values.size))).reshape(values.shape)
        runs = ranked_selection(values, n_pos, n_ign, table(mask), scores, sigma)
        dense = ranked_selection(amplified_iou(values, scores, sigma), n_pos, n_ign, table(mask))
        assert runs.labels.tolist() == dense.labels.tolist()
        assert runs.premerge_positive_counts == dense.premerge_positive_counts
        assert runs.warnings == dense.warnings

    def test_zeros_rank_last_in_index_order(self):
        values = [[0.0], [0.3], [0.0], [0.0], [0.3]]
        result = check_against_oracle(values, [4], [1])
        assert result.labels.tolist() == [0, 0, 0, -2, 0]

    def test_all_zero_column(self):
        result = check_against_oracle([[0.0, 0.9], [0.0, 0.1], [0.0, 0.0]], [2, 1], [0, 1])
        assert result.labels.tolist() == [1, 0, -1]

    def test_budget_beyond_pool_is_clamped(self):
        mask = np.asarray([[True], [False], [True]])
        result = check_against_oracle([[0.2], [0.9], [0.0]], [5], [0], mask)
        assert result.labels.tolist() == [0, -1, 0]
        assert result.premerge_positive_counts == [2]
        assert result.warnings

    def test_displaced_object_takes_its_best_free_anchor(self):
        # object 1 loses anchor 0 to object 0's higher score and is rescued
        # with its next-ranked anchor, which nobody claimed
        result = check_against_oracle([[0.9, 0.8], [0.0, 0.5], [0.1, 0.0]], [1, 1], [0, 0])
        assert result.labels.tolist() == [0, 1, -1]

    def test_displaced_object_takes_from_an_owner_with_two(self):
        # every anchor is object 0's; object 1 takes its best-ranked one
        result = check_against_oracle([[0.9, 0.4], [0.8, 0.2]], [2, 1], [0, 0])
        assert result.labels.tolist() == [1, 0]

    def test_two_displaced_objects_share_one_spare_positive(self):
        # object 0 owns both anchors; object 1 takes anchor 0, after which
        # object 0 keeps one positive, so object 2 may take neither
        result = check_against_oracle([[0.9, 0.5, 0.4], [0.8, 0.3, 0.2]], [2, 1, 1], [0, 0, 0])
        assert result.labels.tolist() == [1, 0]

    @pytest.mark.parametrize("m, n_pos, n_ign, name", [
        (1, [-1], [0], "n_pos"),
        (1, [1], [-2], "n_ignored"),
        (2, [1.5, 1], [0, 0], "n_pos"),
        (2, [True, False], [0, 0], "n_pos"),
        (2, ["1", 1], [0, 0], "n_pos"),
        (2, [1], [0, 0], "n_pos"),
        (2, [1, 1, 1], [0, 0], "n_pos"),
        (2, [1, 1], [[0, 0]], "n_ignored"),
    ])
    def test_bad_budgets_are_refused(self, m, n_pos, n_ign, name):
        with pytest.raises(ValueError, match=f"bad argument '{name}'"):
            ranked_selection(np.full((3, m), 0.5), n_pos, n_ign)

    # a tie run of 0.5 at ranks 3-5 (indices 1, 2, 5): k cuts before, inside, at and past it
    @given(ranking_cases())
    @example(([1.0, 0.5, 0.5, 1.0, 0.25, 0.5, 0.0], 2))
    @example(([1.0, 0.5, 0.5, 1.0, 0.25, 0.5, 0.0], 3))
    @example(([1.0, 0.5, 0.5, 1.0, 0.25, 0.5, 0.0], 4))
    @example(([1.0, 0.5, 0.5, 1.0, 0.25, 0.5, 0.0], 5))
    @example(([1.0, 0.5, 0.5, 1.0, 0.25, 0.5, 0.0], 6))
    def test_ranking_is_the_sort_by_score_then_index(self, case):
        """``_ranking``'s exact top-k equals a full sort, descending, ties to the lower index."""
        scores, k = case
        samples = np.arange(len(scores)) * 3 + 1  # in index order, as every run is
        top, top_scores = assignment._ranking(samples, np.asarray(scores), k, None)
        expected = sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:k]
        assert top.tolist() == samples[expected].tolist()
        assert top_scores.tolist() == [scores[i] for i in expected]

    def test_budgets_may_be_arrays_of_any_integer_dtype(self):
        values = [[0.9, 0.4], [0.8, 0.2]]
        budgets = np.asarray([2, 1], dtype=np.uint8), np.zeros(2, dtype=np.int32)
        assert ranked_selection(np.asarray(values), *budgets).labels.tolist() == [1, 0]

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=40), st.floats(0, 1),
           st.floats(1.0001, 10))
    @example([0.0, 0.5, 1.0], 1.0, 2.0)
    def test_amplify_equals_the_full_power(self, overlaps, score, sigma):
        values = np.asarray(overlaps)
        scores = np.full_like(values, score)
        full = np.power(values, (sigma - scores) / sigma)
        assert amplified_iou(values, scores, sigma).tobytes() == full.tobytes()


def block_rows(m):
    """The rows of an IoU block at ``m`` objects: at most 4096, and at most 2**16 entries."""
    return min(4096, 2**16 // max(m, 1))


# n on each side of the first and the second block edge: m = 16 is the most objects
# that keep 4096-row blocks without culling, m = 17 the fewest that cull
EDGES = [(n, m) for m in (1, 16, 17, 50) for n in
         (block_rows(m) - 1, block_rows(m), block_rows(m) + 1, 2 * block_rows(m) + 1)]


def random_boxes(rng, count):
    """``count`` boxes of 1-80 px in a 300 px square: overlaps are common."""
    corner = rng.uniform(0, 300, (count, 2))
    return np.hstack([corner, corner + rng.uniform(1, 80, (count, 2))])


def band(rng, count, top, left=0.0):
    """``count`` boxes of 1-20 px, top to bottom as a grid's rows are, whose tops lie in
    [top, top + 80) and whose left sides lie in [left, left + 300)."""
    corner = np.column_stack([rng.uniform(left, left + 300, count),
                              np.sort(rng.uniform(top, top + 80, count))])
    return np.hstack([corner, corner + rng.uniform(1, 20, (count, 2))])


def by_top(boxes):
    """``boxes`` top to bottom, as a grid's rows are: over 16 objects, the blocks then cull."""
    return boxes[np.argsort(boxes[:, 1], kind="stable")]


@pytest.fixture
def block_objects(monkeypatch):
    """The object count of each ``broadcast_iou`` call the blocked kernels make."""
    counts = []

    def spy(b, a, out=None):
        counts.append(len(b))
        return broadcast_iou(b, a, out=out)

    monkeypatch.setattr(geometry, "broadcast_iou", spy)
    return counts


def matches_one_broadcast(a, b):
    """The blocked matrix, and each row's best object and overlap in it, as ``synth_predictions``
    reads them, give the bits of one ``broadcast_iou`` of `a` against `b`."""
    matrix, blocked = broadcast_iou(a[:, None], b), pairwise_iou(a, b)
    best, best_iou = _row_best(blocked)
    return (blocked.tobytes() == matrix.tobytes()
            and best.tolist() == np.argmax(matrix, axis=1).tolist()
            and best_iou.tobytes() == matrix.max(axis=1).tobytes())


class TestBlockedIoU:
    """``pairwise_iou`` runs blocks of min(4096, 2**16 // m) rows, and over 16 objects a block
    skips the objects above or below all its rows: neither the block edges nor the skipped
    objects may show in any value, nor in each row's best object and overlap."""

    @pytest.mark.parametrize("order", ["shuffled", "by-top"])
    @pytest.mark.parametrize("n, m", [(0, 0), (1, 0), (0, 50), (1, 1), *EDGES])
    def test_pairwise_equals_one_broadcast(self, n, m, order):
        rng = np.random.default_rng([n, m])
        a, b = random_boxes(rng, n), random_boxes(rng, m)
        a = by_top(a) if order == "by-top" else a
        matrix = pairwise_iou(a, b)
        assert matrix.shape == (n, m) and matrix.T.flags.c_contiguous
        assert matrix.tobytes() == broadcast_iou(a[:, None], b).tobytes()
        # a coordinate-major `a`, as generate_anchors builds it, gives the same bytes
        coordinate_major = np.ascontiguousarray(a.T).T
        assert coordinate_major.T.flags.c_contiguous
        assert pairwise_iou(coordinate_major, b).tobytes() == matrix.tobytes()

    # one object runs no step of the running max; two tie on every row; 16 objects keep
    # whole blocks and 17 or more cull; the 20-object cases keep their plain ids
    @pytest.mark.parametrize("n, m", [
        pytest.param(n, m, id=str(n) if m == 20 else f"{n}-objects{m}")
        for m in (20, 1, 2, 16, 17, 50)
        for n in (2, block_rows(m) - 1, block_rows(m) + 1, 2 * block_rows(m) + 1)
    ])
    def test_best_overlap_equals_argmax_and_max(self, n, m):
        rng = np.random.default_rng(n if m == 20 else [n, m])
        a, b = by_top(random_boxes(rng, n)), random_boxes(rng, m)
        low, twin = {1: (0, 0), 2: (0, 1)}.get(m, (3, 10))
        b[twin] = b[low]  # the twin ties object low on every row: the lower index wins
        a[0] = (1000, -1000, 1001, -999)  # above every object: an all-zero row
        a[-1] = b[low]
        best, best_iou = _row_best(pairwise_iou(a, b))
        matrix = broadcast_iou(a[:, None], b)
        assert best.tolist() == np.argmax(matrix, axis=1).tolist()
        assert best_iou.tobytes() == matrix.max(axis=1).tobytes()
        assert (best[0], best_iou[0]) == (0, 0.0)
        assert (best[-1], best_iou[-1]) == (low, 1.0)
        assert not np.any(best == twin) or twin == low

    @given(boxes(), boxes())
    def test_best_overlap_on_the_lattice(self, a, b):
        matrix = pairwise_iou(boxes_to_array(a), boxes_to_array(b))
        best, best_iou = _row_best(matrix)
        assert best.tolist() == np.argmax(matrix, axis=1).tolist()
        assert best_iou.tolist() == matrix.max(axis=1).tolist()

    @given(boxes(max_size=12), boxes(min_size=17, max_size=24))
    def test_culled_blocks_on_the_lattice(self, a, b):
        # touching and nested spans are common: the cull must skip only strict misses
        assert matches_one_broadcast(boxes_to_array(a), boxes_to_array(b))

    def test_a_block_no_object_meets(self, block_objects):
        rng = np.random.default_rng(1)
        rows = block_rows(17)
        a, b = np.vstack([band(rng, rows, 0), band(rng, rows, 1000)]), band(rng, 17, 0)
        assert matches_one_broadcast(a, b)
        pairwise_iou(a, b)
        assert block_objects[-2:] == [17, 0]
        best, best_iou = _row_best(pairwise_iou(a, b))
        assert best[rows:].tolist() == [0] * rows and best_iou[rows:].tolist() == [0.0] * rows

    def test_object_0_skipped_where_the_met_objects_read_0(self, block_objects):
        """A block skips object 0, and some of its rows meet none of its objects: those
        rows keep object 0 at 0.0, as ``_row_best`` does."""
        rng = np.random.default_rng(2)
        rows = block_rows(17)
        lower = np.vstack([band(rng, rows - 5, 1000), band(rng, 5, 1000, left=5000)])
        a = np.vstack([band(rng, rows, 0), lower])
        b = np.vstack([band(rng, 1, 0), band(rng, 16, 1000)])
        assert matches_one_broadcast(a, b)
        pairwise_iou(a, b)
        assert block_objects[-1] == 16  # the lower block skips object 0
        best, best_iou = _row_best(pairwise_iou(a, b))
        assert best[-5:].tolist() == [0] * 5 and best_iou[-5:].tolist() == [0.0] * 5
        assert best[rows:].max() >= 1  # other rows: the first maximum among the met objects

    def test_an_object_that_meets_only_a_middle_block(self, block_objects):
        rng = np.random.default_rng(3)
        rows = block_rows(17)
        a = np.vstack([band(rng, rows, top) for top in (0, 1000, 2000)])
        b = np.vstack([band(rng, 8, 0), band(rng, 1, 1000), band(rng, 8, 2000)])
        assert matches_one_broadcast(a, b)
        pairwise_iou(a, b)
        assert block_objects[-3:] == [8, 1, 8]
        column = pairwise_iou(a, b)[:, 8]
        assert column[rows:2 * rows].max() > 0.0
        assert not column[:rows].any() and not column[2 * rows:].any()

    @pytest.mark.parametrize("n, m", [(0, 0), (0, 50), (3, 0)])
    def test_empty_inputs(self, n, m):
        rng = np.random.default_rng([n, m])
        a, b = random_boxes(rng, n), random_boxes(rng, m)
        assert pairwise_iou(a, b).shape == (n, m)
        best, best_iou = _row_best(pairwise_iou(a, b))
        # no object: each row's zero-column answer, as _row_best gives it
        assert best.tolist() == [0] * n and best_iou.tolist() == [-np.inf] * n

    @pytest.mark.parametrize("m, inside", [(16, 4096), (17, 1024)])
    def test_the_callers_ufunc_buffer_is_restored(self, monkeypatch, m, inside):
        """Over 16 objects the blocks run under a 1024-element buffer, and the caller's
        buffer, here not numpy's default, is back once the call returns."""
        rng = np.random.default_rng(m)
        a, b = by_top(random_boxes(rng, 2 * 4096 + 1)), random_boxes(rng, m)
        seen = []

        def spy(b, a, out=None):
            seen.append(np.getbufsize())
            return broadcast_iou(b, a, out=out)

        monkeypatch.setattr(geometry, "broadcast_iou", spy)
        caller = np.setbufsize(4096)
        try:
            _row_best(pairwise_iou(a, b))
            assert np.getbufsize() == 4096
        finally:
            np.setbufsize(caller)
        assert set(seen) == {inside}

    @pytest.mark.parametrize("kernel", [
        pytest.param(pairwise_iou, id="pairwise_iou"),
        pytest.param(lambda a, b: _row_best(pairwise_iou(a, b)), id="row_best"),
    ])
    def test_the_ufunc_buffer_is_restored_when_a_block_raises(self, monkeypatch, kernel):
        rng = np.random.default_rng(4)
        a, b = by_top(random_boxes(rng, 3 * block_rows(50))), random_boxes(rng, 50)
        calls = []

        def fail_second(b, a, out=None):
            calls.append(np.getbufsize())
            if len(calls) == 2:
                raise MemoryError("second block")
            return broadcast_iou(b, a, out=out)

        monkeypatch.setattr(geometry, "broadcast_iou", fail_second)
        before = np.getbufsize()
        with pytest.raises(MemoryError, match="second block"):
            kernel(a, b)
        assert calls == [1024, 1024] and np.getbufsize() == before


# each anchor overlaps one object at most, and each object has an anchor at
# or above t_pos: the static positives are exactly each column's top n_pos
@st.composite
def cold_start_overlaps(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(m, 20))
    owners = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    levels = st.sampled_from([0.0, 0.1, 0.3, 0.4, 0.45, 0.5, 0.55, 0.7, 1.0])
    values = np.zeros((n, m))
    values[np.arange(n), owners] = draw(st.lists(levels, min_size=n, max_size=n))
    values[np.arange(m)] = 0.0
    values[np.arange(m), np.arange(m)] = draw(
        st.lists(st.sampled_from([0.5, 0.6, 0.9]), min_size=m, max_size=m)
    )
    return values


def positives(labels):
    return np.where(labels >= 0, labels, NEGATIVE).tolist()


class TestColdStart:
    """Scores 0 and regressed boxes equal to the anchors: amplification is the
    identity and the regressed overlap is the anchor overlap, so l2c and c2l
    pick exactly static's top n_pos."""

    @given(cold_start_overlaps())
    def test_guided_picks_equal_static_positives(self, iou_anchor):
        static = positives(static_assign(iou_anchor).classification_labels)
        assert positives(localize_to_classify(iou_anchor, iou_anchor).labels) == static
        zeros = np.zeros_like(iou_anchor)
        assert positives(classify_to_localize(iou_anchor, zeros).labels) == static

    @given(boxes(max_size=1))
    def test_single_object_on_a_grid(self, objects):
        grid = generate_anchors(AnchorGridSpec(32, 32, (LevelSpec(4, (8.0,), (1.0, 2.0)),)))
        iou_anchor = pairwise_iou(grid.array, boxes_to_array(objects))
        static = positives(static_assign(iou_anchor).classification_labels)
        assert positives(localize_to_classify(iou_anchor, iou_anchor).labels) == static
        zeros = np.zeros_like(iou_anchor)
        assert positives(classify_to_localize(iou_anchor, zeros).labels) == static


def test_trajectory_runs_static_once(monkeypatch):
    calls = []
    real = assignment._static
    monkeypatch.setattr(assignment, "_static", lambda *a: calls.append(1) or real(*a))
    grid = generate_anchors(AnchorGridSpec(64, 64, (LevelSpec(8, (16.0,), (1.0,)),)))
    scene = Scene(64, 64, (Box(10, 10, 30, 34), Box(36, 8, 60, 28)), (0, 1))
    result = run_trajectory(scene, grid, TrajectoryConfig(steps=5), "mutual")
    assert len(result.steps) == 5
    assert len(calls) == 1


# few distinct overlaps around the default thresholds: ties, all-zero columns
# and objects without an anchor at or above t_pos are common
OVERLAP = st.sampled_from([0.0, 0.0, 0.0, 0.2, 0.4, 0.45, 0.5, 0.7, 1.0])


@st.composite
def static_cases(draw):
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    return draw(st.lists(st.lists(OVERLAP, min_size=m, max_size=m), min_size=n, max_size=n))


class TestStaticFallback:
    @given(static_cases())
    @example([[0.9, 0.0]])  # the only anchor is object 0's: object 1 warns
    @example([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])  # all-zero columns
    @example([[0.3, 0.3], [0.3, 0.3]])  # tied overlaps go to the lower anchor
    def test_matches_brute_force_oracle(self, values):
        result = static_assign(np.asarray(values, float))
        labels, warnings = brute_force_static_assign(values)
        assert result.classification_labels.tolist() == labels
        assert result.warnings == warnings

    def test_fallback_cases(self):
        assert static_assign([[0.9, 0.0]]).warnings == [
            "object 1: no anchor available for the positive fallback"
        ]
        zeros = static_assign(np.zeros((3, 2)))
        assert zeros.classification_labels.tolist() == [0, 1, -1]
        # object 1's overlaps tie at 0.3: the lower free anchor wins
        ties = static_assign([[0.2, 0.3], [0.9, 0.3], [0.45, 0.3]])
        assert ties.classification_labels.tolist() == [1, 0, -2]


def test_trajectory_computes_anchor_iou_once(monkeypatch):
    grid = generate_anchors(AnchorGridSpec(64, 64, (LevelSpec(8, (16.0,), (1.0,)),)))
    calls = []
    real = simulator.pairwise_iou
    monkeypatch.setattr(
        simulator, "pairwise_iou", lambda a, b: calls.append(a is grid.array) or real(a, b)
    )
    scene = Scene(64, 64, (Box(10, 10, 30, 34), Box(36, 8, 60, 28)), (0, 1))
    result = run_trajectory(scene, grid, TrajectoryConfig(steps=5), "mutual")
    assert len(result.steps) == 5
    assert calls.count(True) == 1  # the anchor overlap; the rest are regressed boxes
    assert calls.count(False) == 5


def test_predictions_compute_no_target_overlap_row_by_row(monkeypatch):
    """Each anchor's overlap with its target is read from the regressed matrix;
    at the default noise no anchor is reset, so no IoU row is computed again."""
    grid = generate_anchors(AnchorGridSpec(64, 64, (LevelSpec(8, (16.0,), (1.0,)),)))
    calls = []
    real = simulator.broadcast_iou
    monkeypatch.setattr(simulator, "broadcast_iou", lambda a, b: calls.append(a) or real(a, b))
    scene = Scene(64, 64, (Box(10, 10, 30, 34), Box(36, 8, 60, 28)), (0, 1))
    for t in (0.3, 0.6, 1.0):
        synth_predictions(scene, grid, TrajectoryConfig(misalignment_fraction=0.3), t)
    assert calls == []


def test_predictions_build_no_anchor_overlap(monkeypatch):
    grid = generate_anchors(AnchorGridSpec(64, 64, (LevelSpec(8, (16.0,), (1.0,)),)))
    calls = []
    real = simulator.pairwise_iou
    monkeypatch.setattr(
        simulator, "pairwise_iou", lambda a, b: calls.append(a is grid.array) or real(a, b)
    )
    scene = Scene(64, 64, (Box(10, 10, 30, 34), Box(36, 8, 60, 28)), (0, 1))
    synth_predictions(scene, grid, TrajectoryConfig(misalignment_fraction=0.3), 0.6)
    assert calls == [False]  # the regressed boxes only


@pytest.mark.parametrize("side, count_range, seed", [
    pytest.param(side, count_range, seed, id=f"{side}-seed{seed}")
    for side, count_range in [(512, (17, 50)), (320, (1, 5))]  # culled blocks, whole blocks
    for seed in range(3)
])
def test_predictions_equal_those_from_the_checked_anchor_overlap(side, count_range, seed):
    """Without ``_iou_anchor``, ``synth_predictions`` reads each anchor's target from the
    unchecked blocked matrix; the snapshot is that of ``pairwise_iou``'s, bit for bit."""
    grid = generate_anchors(AnchorGridSpec(side, side))
    scene = synth_scene(SceneSpec(side, side, count_range=count_range, seed=seed))
    assert (len(scene.boxes) > 16) == (side == 512)
    iou_anchor = pairwise_iou(grid.array, boxes_to_array(scene.boxes))
    cfg = TrajectoryConfig(misalignment_fraction=0.3, localization_gain="sqrt",
                           score_gain="quadratic", noise=0.1)
    for t in (0.3, 0.8):
        own = synth_predictions(scene, grid, cfg, t, seed)
        handed = synth_predictions(scene, grid, cfg, t, seed, _iou_anchor=iou_anchor)
        for field in ("regressed_boxes", "classif_scores", "iou_regressed"):
            assert getattr(own, field).tobytes() == getattr(handed, field).tobytes()


# few distinct values: ties, all-zero rows and signed zeros are common
ENTRY = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]) | st.floats(0, 1)


@st.composite
def reduced_matrices(draw):
    n, m = draw(st.integers(0, 12)), draw(st.integers(1, 6))
    return np.array(draw(st.lists(ENTRY, min_size=n * m, max_size=n * m))).reshape(n, m)


class TestRowBest:
    """``_row_best`` is the one row reduction: a running max that must equal
    ``argmax`` and a gather, indices and value bits, on either layout."""

    @given(reduced_matrices(), st.booleans())
    @example(np.array([[0.5], [-0.0], [0.0]]), True)  # one column: no step of the max
    @example(np.full((4, 3), 0.5), True)  # ties on every row go to column 0
    @example(np.zeros((3, 4)), False)  # all-zero rows
    @example(np.array([[-0.0, 0.0, 0.5], [0.0, -0.0, -0.0], [-0.0, 0.0, 0.0]]), True)
    def test_equals_argmax_and_a_gather(self, matrix, object_major):
        values = np.asfortranarray(matrix) if object_major else np.ascontiguousarray(matrix)
        best, top = _row_best(values)
        expected = np.argmax(matrix, axis=1)
        assert best.tobytes() == expected.tobytes()
        assert top.tobytes() == matrix[np.arange(len(matrix)), expected].tobytes()

    @pytest.mark.parametrize("rows", [3, 0])
    def test_a_row_without_columns_answers_no_overlap(self, rows):
        best, top = _row_best(np.zeros((rows, 0)))
        assert best.dtype == np.intp and best.tolist() == [0] * rows
        assert top.tolist() == [-np.inf] * rows


def object_major(matrix) -> bool:
    """A (samples, objects) matrix stored as the transpose of a C-contiguous array."""
    return matrix.ndim == 2 and matrix.T.flags.c_contiguous


def test_every_matrix_the_library_hands_out_is_object_major():
    spec = AnchorGridSpec(128, 128, (LevelSpec(8, (32.0,), (1.0, 2.0)), LevelSpec(16, (64.0,))))
    anchors, points = generate_anchors(spec), generate_points(spec)
    scene = synth_scene(SceneSpec(128, 128, (3, 3), (16.0, 64.0), None, seed=4))
    gt, cfg = boxes_to_array(scene.boxes), TrajectoryConfig(misalignment_fraction=0.3)
    snapshot = synth_predictions(scene, anchors, cfg, 0.6, seed=2)
    base = fcos._original(points, scene.boxes, None)
    handed_out = {
        "pairwise_iou": pairwise_iou(anchors.array, gt),
        "iou_regressed": snapshot.iou_regressed,
        "classif_scores": snapshot.classif_scores,
        **dict(zip(["point iou_regressed", "point scores"],
                   synth_point_predictions(scene, points, cfg, 0.6, seed=2))),
        "centerness": base.quality(),
    }
    assert [name for name, matrix in handed_out.items() if not object_major(matrix)] == []
    # a one-column matrix is C- and F-contiguous at once: three objects make the check bite
    assert all(matrix.shape[1] == 3 for matrix in handed_out.values())


def test_every_box_array_the_library_builds_is_coordinate_major():
    """The (N, 4) anchor and regressed box arrays are transposes of C-contiguous (4, N)
    arrays: the IoU kernel reads each coordinate contiguously."""
    spec = AnchorGridSpec(128, 128, (LevelSpec(8, (32.0,), (1.0, 2.0)), LevelSpec(16, (64.0,))))
    anchors = generate_anchors(spec)
    scene = synth_scene(SceneSpec(128, 128, (3, 3), (16.0, 64.0), None, seed=4))
    cfg = TrajectoryConfig(misalignment_fraction=0.3)
    built = {
        "anchors": anchors.array,
        "regressed_boxes": synth_predictions(scene, anchors, cfg, 0.6, seed=2).regressed_boxes,
    }
    assert [name for name, boxes in built.items() if not boxes.T.flags.c_contiguous] == []
    assert all(boxes.shape == (len(anchors), 4) for boxes in built.values())


# the input check copies neither a caller's row-major matrix nor an object-major one
@pytest.mark.parametrize("order", ["C", "F"])
def test_matrix_values_keeps_a_float_matrix_in_its_own_layout(order):
    matrix = np.array([[0.0, 0.5, 1.0], [1.0, 0.25, 0.5]], order=order)
    assert matrix_values(matrix) is matrix
