import numpy as np
import pytest

from boxmatch.assignment import matrix_values
from boxmatch.geometry import Box, _unit_interval, area, boxes_to_array, iou, pairwise_iou
from oracles import rasterized_iou


class TestBox:
    def test_valid_construction(self):
        box = Box(2.0, 3.0, 7.0, 11.0)
        assert box.width == 5.0
        assert box.height == 8.0
        assert box.center == (4.5, 7.0)

    @pytest.mark.parametrize(
        "coords",
        [
            (0, 0, 0, 10),  # zero width
            (0, 0, 10, 0),  # zero height
            (5, 0, 3, 10),  # negative width
            (0, 0, float("inf"), 10),
            (0, float("nan"), 10, 10),
        ],
    )
    def test_rejects_degenerate(self, coords):
        with pytest.raises(ValueError):
            Box(*coords)


class TestArea:
    def test_square(self):
        assert area(Box(0, 0, 10, 10)) == 100

    def test_unit(self):
        assert area(Box(0, 0, 1, 1)) == 1

    def test_rectangle(self):
        assert area(Box(2, 3, 7, 11)) == 40


class TestIou:
    def test_identical(self):
        box = Box(3, 4, 9, 13)
        assert iou(box, box) == 1.0

    def test_disjoint(self):
        assert iou(Box(0, 0, 10, 10), Box(20, 20, 30, 30)) == 0.0

    def test_half_overlap(self):
        # intersection 50, union 150
        assert iou(Box(0, 0, 10, 10), Box(5, 0, 15, 10)) == pytest.approx(1 / 3)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            x1, y1 = rng.uniform(0, 50, 2)
            a = Box(x1, y1, x1 + rng.uniform(1, 40), y1 + rng.uniform(1, 40))
            x2, y2 = rng.uniform(0, 50, 2)
            b = Box(x2, y2, x2 + rng.uniform(1, 40), y2 + rng.uniform(1, 40))
            ab = iou(a, b)
            assert ab == iou(b, a)
            assert 0.0 <= ab <= 1.0

    def test_zero_iff_no_overlap(self):
        touching = iou(Box(0, 0, 10, 10), Box(10, 0, 20, 10))
        assert touching == 0.0
        barely = iou(Box(0, 0, 10, 10), Box(9.999, 0, 20, 10))
        assert barely > 0.0

    def test_matches_rasterization_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            x1, y1 = rng.integers(0, 40, 2)
            a = Box(x1, y1, x1 + rng.integers(1, 24), y1 + rng.integers(1, 24))
            x2, y2 = rng.integers(0, 40, 2)
            b = Box(x2, y2, x2 + rng.integers(1, 24), y2 + rng.integers(1, 24))
            assert iou(a, b) == pytest.approx(rasterized_iou(a, b), abs=1e-9)


class TestIouMatrix:
    """The IoU matrix is the plain array ``pairwise_iou`` returns; the
    assignment layer checks it once, in ``matrix_values``."""

    def test_identical_single(self):
        box = Box(0, 0, 4, 4)
        m = pairwise_iou([box], [box])
        assert m.tolist() == [[1.0]]
        assert m.shape == (1, 1)

    def test_disjoint_column(self):
        anchors = [Box(0, 0, 2, 2), Box(30, 30, 32, 32)]
        m = pairwise_iou(anchors, [Box(10, 10, 14, 14)])
        assert m.tolist() == [[0.0], [0.0]]

    def test_entrywise_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            anchors = []
            objects = []
            for _ in range(3):
                x, y = rng.integers(0, 30, 2)
                anchors.append(Box(x, y, x + rng.integers(1, 20), y + rng.integers(1, 20)))
            for _ in range(2):
                x, y = rng.integers(0, 30, 2)
                objects.append(Box(x, y, x + rng.integers(1, 20), y + rng.integers(1, 20)))
            m = pairwise_iou(anchors, objects)
            for i, a in enumerate(anchors):
                for j, b in enumerate(objects):
                    assert m[i, j] == pytest.approx(iou(a, b), abs=1e-12)

    def test_accepts_arrays(self):
        arr = boxes_to_array([Box(0, 0, 10, 10)])
        m = pairwise_iou(arr, arr)
        assert m[0, 0] == 1.0

    def test_values_validated(self):
        with pytest.raises(ValueError, match="lie in"):
            matrix_values(np.array([[1.5]]))
        with pytest.raises(ValueError, match="2-D"):
            matrix_values(np.array([0.5, 0.5]))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_values_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            matrix_values([[0.5, value]])


ABOVE_ONE = np.nextafter(1.0, 2.0)
TINY = np.nextafter(0.0, 1.0)  # the smallest subnormal


@pytest.mark.parametrize(
    "values, accepted",
    [
        ([0.0, 0.5, 1.0], True),
        ([-0.0, 1.0], True),  # -0.0 equals 0.0; it fails the bit test and takes the min/max test
        ([TINY, 1.0], True),
        ([[0.25, 0.75], [1.0, 0.0]], True),
        ([], True),
        ([0.5, ABOVE_ONE], False),
        ([-TINY, 0.5], False),
        ([0.5, float("nan")], False),
        ([0.5, -float("nan")], False),
        ([0.5, float("inf")], False),
        ([-float("inf"), 0.5], False),
        ([1.5], False),
        ([-0.5], False),
        (np.asarray([0, 1]), True),  # an int array takes the min/max test only
        (np.asarray([[1, 2]]), False),
        (np.asarray([-1]), False),
        (np.asarray([0.5, 1.5], dtype=np.float32), False),
    ],
)
def test_unit_interval_edges(values, accepted):
    arr = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=np.float64)
    if accepted:
        assert _unit_interval(arr, "values") is arr
    else:
        with pytest.raises(ValueError, match="values must be finite and lie in \\[0, 1\\]"):
            _unit_interval(arr, "values")


# a one-shot iterator whose bad item the packing has consumed: the rule, run again on
# the spent iterator, finds nothing, and the error still names the argument; each case
# builds a fresh iterator, since a shared one would be spent by its first use
@pytest.mark.parametrize("spent", [
    lambda: iter([(0, 0, 1, 1)]),
    lambda: (box for box in [Box(0, 0, 1, 1), None]),
    lambda: map(tuple, [Box(0, 0, 1, 1).as_tuple()]),
], ids=["iter", "generator", "map"])
def test_boxes_to_array_names_a_spent_iterator(spent):
    with pytest.raises(ValueError, match="bad argument 'boxes'") as raised:
        boxes_to_array(spent())
    assert type(raised.value) is ValueError
