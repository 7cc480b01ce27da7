"""One row per grid of ``assignment.STRATEGIES``, run as the CLI and the simulator
run it: the grid's baseline on checked inputs, then ``assignment._guide`` with the
tasks the name guides. Each returns (the baseline result, the strategy's result);
``anchor_guided`` and ``point_guided`` return the baseline and ``_guide``'s whole answer.
``served_objects`` records the objects the one fallback, ``assignment._serve``, ranks,
and ``served_samples`` counts the samples it relabels, by caller."""

from collections import Counter
from contextlib import contextmanager
from unittest import mock

from boxmatch import assignment, fcos
from boxmatch.assignment import STRATEGIES, MatchingConfig


def anchor_row(name, iou_anchor, iou_regressed, classif_scores, cfg=None):
    base, guided = anchor_guided(name, iou_anchor, iou_regressed, classif_scores, cfg)
    return base.result, guided[0]


def point_row(name, points, objects, iou_regressed, classif_scores, cfg=None):
    base, guided = point_guided(name, points, objects, iou_regressed, classif_scores, cfg)
    return base.result, guided[0]


def anchor_guided(name, iou_anchor, iou_regressed, classif_scores, cfg=None):
    cfg = cfg or MatchingConfig()
    anchor, regressed, scores = assignment._checked(
        iou_anchor=iou_anchor, iou_regressed=iou_regressed, classif_scores=classif_scores)
    base = assignment._static(anchor, cfg)
    tasks = STRATEGIES["anchors"][name]
    return base, assignment._guide(base, regressed, scores, cfg.sigma, *tasks)


def point_guided(name, points, objects, iou_regressed, classif_scores, cfg=None):
    base = fcos._original(points, objects, None)
    regressed, scores = assignment._checked(
        (len(points), len(objects)), iou_regressed=iou_regressed, classif_scores=classif_scores)
    sigma, tasks = (cfg or MatchingConfig()).sigma, STRATEGIES["points"][name]
    return base, assignment._guide(base, regressed, scores, sigma, *tasks)


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


@contextmanager
def served_samples():
    """Within the block, count the samples ``_serve`` relabels, keyed by the function
    whose ranking it was handed: "_static" (the static fallback), "_original" (the
    point baseline's), "ranked_selection" (the refill) or "_guide" (the rescue)."""
    counts, serve = Counter(), assignment._serve

    def recording(labels, m, ranked, noun):
        before = labels.copy()
        warnings = serve(labels, m, ranked, noun)
        counts[ranked.__qualname__.split(".")[0]] += int((labels != before).sum())
        return warnings

    with (mock.patch.object(assignment, "_serve", recording),
          mock.patch.object(fcos, "_serve", recording)):
        yield counts
