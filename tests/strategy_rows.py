"""One row per grid of ``assignment.STRATEGIES``, run as the CLI and the simulator
run it: the grid's baseline on checked inputs, then ``assignment._guide`` with the
tasks the name guides. Each returns (the baseline result, the strategy's result)."""

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
