"""One row per grid of ``assignment.STRATEGIES``, run as the CLI and the simulator
run it: the grid's baseline on checked inputs, then ``assignment._guide`` with the
tasks the name guides. Each returns (the baseline result, the strategy's result).
``served_objects`` records the objects the one fallback, ``assignment._serve``, ranks."""

from contextlib import contextmanager
from unittest import mock

from boxmatch import assignment, fcos
from boxmatch.assignment import STRATEGIES, MatchingConfig


def anchor_row(name, iou_anchor, iou_regressed, classif_scores, cfg=None):
    cfg = cfg or MatchingConfig()
    anchor, regressed, scores = assignment._checked(
        iou_anchor=iou_anchor, iou_regressed=iou_regressed, classif_scores=classif_scores)
    base = assignment._static(anchor, cfg)
    tasks = STRATEGIES["anchors"][name]
    return base.result, assignment._guide(base, regressed, scores, cfg.sigma, *tasks)[0]


def point_row(name, points, objects, iou_regressed, classif_scores, cfg=None):
    base = fcos._original(points, objects, None)
    regressed, scores = assignment._checked(
        (len(points), len(objects)), iou_regressed=iou_regressed, classif_scores=classif_scores)
    sigma, tasks = (cfg or MatchingConfig()).sigma, STRATEGIES["points"][name]
    return base.result, assignment._guide(base, regressed, scores, sigma, *tasks)[0]


@contextmanager
def served_objects():
    """Within the block, ``_serve`` as ``assignment`` and ``fcos`` call it, recording each
    object it hands to its ranking, served or not; yields that list."""
    objects, serve = [], assignment._serve

    def recording(labels, m, ranked, noun):
        return serve(labels, m, lambda j: objects.append(j) or ranked(j), noun)

    with (mock.patch.object(assignment, "_serve", recording),
          mock.patch.object(fcos, "_serve", recording)):
        yield objects
