"""Independent reference implementations used only to check the library.

These deliberately avoid the library's vectorized code paths: the
rasterization oracle counts pixels, the NMS oracle is a direct O(n^2) loop,
the AP oracle walks the precision/recall curve literally, the detection
oracle scales and scans one score at a time, and the FCOS
oracles label points one at a time or test every (point, object) pair at once.
"""

import math

import numpy as np

from boxmatch.geometry import Box, iou


def rasterized_iou(a: Box, b: Box, canvas: int = 64) -> float:
    """Pixel-counting IoU for integer-coordinate boxes on a small canvas.

    A pixel (i, j) belongs to a box when x_min <= i < x_max and
    y_min <= j < y_max, matching the continuous (max - min) area convention.
    """
    xs = np.arange(canvas)
    ys = np.arange(canvas)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")

    def mask(box: Box) -> np.ndarray:
        return (gx >= box.x_min) & (gx < box.x_max) & (gy >= box.y_min) & (gy < box.y_max)

    ma, mb = mask(a), mask(b)
    inter = np.count_nonzero(ma & mb)
    union = np.count_nonzero(ma | mb)
    return inter / union


def brute_force_grid(spec):
    """Reference grids by nested loops over levels, rows, columns, scales and
    ratios: (anchor boxes, point centers, point levels, point strides) as
    plain lists."""
    anchors, xy, levels, strides = [], [], [], []
    for index, level in enumerate(spec.levels):
        for row in range(spec.image_height // level.stride):
            cy = (row + 0.5) * level.stride
            for col in range(spec.image_width // level.stride):
                cx = (col + 0.5) * level.stride
                xy.append([cx, cy])
                levels.append(index)
                strides.append(level.stride)
                for scale in level.scales:
                    for ratio in level.aspect_ratios:
                        w, h = scale * math.sqrt(ratio), scale / math.sqrt(ratio)
                        anchors.append([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2])
    return anchors, xy, levels, strides


def brute_force_nms(dets, threshold: float):
    """Reference greedy NMS: repeated linear scans, scalar IoU calls."""
    remaining = list(range(len(dets)))
    kept = []
    while remaining:
        best = remaining[0]
        for i in remaining[1:]:
            if dets[i].score > dets[best].score:
                best = i
        kept.append(best)
        remaining.remove(best)
        survivors = []
        for i in remaining:
            same_group = (
                dets[i].class_id == dets[best].class_id
                and dets[i].image_id == dets[best].image_id
            )
            if same_group and iou(dets[i].box, dets[best].box) > threshold:
                continue
            survivors.append(i)
        remaining = survivors
    return [dets[i] for i in kept]


def brute_force_ap_at_threshold(dets, gts, threshold: float) -> float:
    """Reference single-class, single-threshold 101-point AP.

    Matches detections in score order against unmatched ground truth by a
    plain double loop, then evaluates max-precision-at-recall>=r literally at
    each of the 101 recall points.
    """
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    matched = set()
    flags = []
    for i in order:
        best_iou, best_g = 0.0, None
        for g, gt in enumerate(gts):
            if g in matched or gt.class_id != dets[i].class_id:
                continue
            if gt.image_id != dets[i].image_id:
                continue
            value = iou(dets[i].box, gt.box)
            if value > best_iou:
                best_iou, best_g = value, g
        if best_g is not None and best_iou >= threshold:
            matched.add(best_g)
            flags.append(True)
        else:
            flags.append(False)

    n_gt = len(gts)
    precisions, recalls = [], []
    tp = fp = 0
    for flag in flags:
        tp += flag
        fp += not flag
        precisions.append(tp / (tp + fp))
        recalls.append(tp / n_gt)

    total = 0.0
    for r in np.linspace(0, 1, 101):
        best = 0.0
        for p, rec in zip(precisions, recalls):
            if rec >= r and p > best:
                best = p
        total += best
    return total / 101


def brute_force_misalignment(dets, gts, loc_threshold=0.75, score_threshold=0.5):
    """Reference misalignment: for each confident detection, a scalar-IoU
    loop over every ground-truth object. Returns (rate, flags)."""
    flags = []
    for det in dets:
        best = 0.0
        for gt in gts:
            if gt.class_id == det.class_id and gt.image_id == det.image_id:
                best = max(best, iou(det.box, gt.box))
        flags.append(det.score >= score_threshold and best < loc_threshold)
    confident = sum(det.score >= score_threshold for det in dets)
    return (sum(flags) / confident if confident else 0.0), flags


def brute_force_detections(scene, snapshot, labels=None):
    """Reference detections, one row at a time: every score of a row labelled
    below 0 is scaled by 0.05 as a Python float, a running strict ``>`` max
    over the columns picks the row's object, and the row is kept when that max
    is at least 0.05. Returns the kept rows' (boxes, scores, class ids) as lists."""
    boxes, scores, class_ids = [], [], []
    for i, row in enumerate(snapshot.classif_scores.tolist()):
        factor = 0.05 if labels is not None and labels[i] < 0 else 1.0
        best, top = 0, row[0] * factor
        for j in range(1, len(row)):
            if row[j] * factor > top:
                best, top = j, row[j] * factor
        if top >= 0.05:
            boxes.append(snapshot.regressed_boxes[i].tolist())
            scores.append(top)
            class_ids.append(scene.class_ids[best])
    return boxes, scores, class_ids


def brute_force_static_assign(values, t_pos=0.5, t_neg=0.4):
    """Reference static labels from nested lists: per-anchor thresholds on the
    best overlap, then, per object left without a positive, the first free
    anchor of ``sorted(range(n), key=lambda i: (-v[i], i))``.

    Returns (labels, warnings); labels use -1 for negative and -2 for ignored.
    """
    n, m = len(values), len(values[0])
    labels = []
    for row in values:
        best = max(range(m), key=lambda j: (row[j], -j))
        if row[best] >= t_pos:
            labels.append(best)
        else:
            labels.append(-2 if row[best] >= t_neg else -1)
    warnings = []
    for j in range(m):
        if j in labels:
            continue
        ranked = sorted(range(n), key=lambda i: (-values[i][j], i))
        free = [i for i in ranked if labels[i] < 0]
        if free:
            labels[free[0]] = j
        else:
            warnings.append(f"object {j}: no anchor available for the positive fallback")
    return labels, warnings


def brute_force_ranked_selection(values, n_pos, n_ignored, candidate_mask=None):
    """Reference per-object top-k with the cross-object merge and the
    one-positive rescue, by sorted() and plain loops over nested lists.

    Returns (labels, premerge counts); labels use -1 for negative and -2 for
    ignored, like the library.
    """
    n, m = len(values), len(values[0])
    rankings, claims, ignored, premerge = [], {}, set(), []
    for j in range(m):
        pool = [i for i in range(n) if candidate_mask is None or candidate_mask[i][j]]
        ranked = sorted(pool, key=lambda i: (-values[i][j], i))
        k_pos = min(n_pos[j], len(ranked))
        k_ign = min(n_ignored[j], len(ranked) - k_pos)
        for i in ranked[:k_pos]:
            claims.setdefault(i, []).append(j)
        ignored.update(ranked[k_pos : k_pos + k_ign])
        rankings.append(ranked)
        premerge.append(k_pos)

    labels = [-1] * n
    for i in range(n):
        if i in claims:  # the highest score wins, ties to the lower object
            labels[i] = max(claims[i], key=lambda j: (values[i][j], -j))
        elif i in ignored:
            labels[i] = -2

    for j in range(m):
        if premerge[j] == 0 or j in labels:
            continue
        free = [i for i in rankings[j] if labels[i] < 0]
        if free:
            labels[free[0]] = j
            continue
        counts = {k: labels.count(k) for k in range(m)}
        for i in rankings[j]:
            if labels[i] >= 0 and counts[labels[i]] >= 2:
                labels[i] = j
                break
    return labels, premerge


def brute_force_fcos_original(points, boxes, radius=None):
    """Reference original point labels by plain loops over points and boxes.

    A point is a candidate of a box when it lies in the box half-open
    (min <= coordinate < max), the box's longer side lies in the point's
    level range [lower, upper) and, with ``radius``, the point lies within
    radius * stride of the box center on both axes. The candidate box of
    smallest area wins, ties to the lower object index. Then each object left
    without a point, in index order, ranks every point by (tier, squared
    distance to its center, index), with tier 0 for in-box level-matched,
    1 for in-box and 2 for any other point, and takes the first free point,
    else the first whose owner holds two or more.

    Returns (labels, warnings); labels use -1 for negative.
    """
    xy = points.xy.tolist()
    levels = points.point_levels.tolist()
    strides = points.point_strides.tolist()

    def inside(i, box):
        x, y = xy[i]
        return box.x_min <= x < box.x_max and box.y_min <= y < box.y_max

    def level_matched(i, box):
        lower, upper = points.scale_ranges[levels[i]]
        return lower <= max(box.width, box.height) < upper

    def central(i, box):
        reach = radius * strides[i]
        cx, cy = 0.5 * (box.x_min + box.x_max), 0.5 * (box.y_min + box.y_max)
        return abs(xy[i][0] - cx) <= reach and abs(xy[i][1] - cy) <= reach

    labels = []
    for i in range(len(xy)):
        winner = -1
        for j, box in enumerate(boxes):
            if not (inside(i, box) and level_matched(i, box)):
                continue
            if radius is not None and not central(i, box):
                continue
            if winner < 0 or box.width * box.height < boxes[winner].width * boxes[winner].height:
                winner = j
        labels.append(winner)

    warnings = []
    empty = [j for j in range(len(boxes)) if j not in labels]
    for j in empty:
        box = boxes[j]
        cx, cy = 0.5 * (box.x_min + box.x_max), 0.5 * (box.y_min + box.y_max)

        def key(i):
            tier = 2
            if inside(i, box):
                tier = 0 if level_matched(i, box) else 1
            return (tier, (xy[i][0] - cx) ** 2 + (xy[i][1] - cy) ** 2, i)

        ranked = sorted(range(len(xy)), key=key)
        free = [i for i in ranked if labels[i] < 0]
        if free:
            labels[free[0]] = j
            continue
        counts = [labels.count(k) for k in range(len(boxes))]
        for i in ranked:
            if labels[i] >= 0 and counts[labels[i]] >= 2:
                labels[i] = j
                break
        else:
            warnings.append(f"object {j}: no point available for the positive fallback")
    return labels, warnings


def brute_force_point_pool(points, gt, radius=None):
    """Reference point baseline by dense (P, M) comparisons of every point with
    every box of the (M, 4) array ``gt``.

    The pool holds the pairs whose point lies in the box half-open and on a level
    whose size range holds the box's longer side; with ``radius``, a candidate must
    also lie within radius * stride of the box center on both axes, by
    ``|x - c| <= radius * stride``. Each point goes to its candidate box of smallest
    area (argmin: ties to the lower index); each object left without a point then
    falls back as ``brute_force_fcos_original`` describes.

    Returns (labels, warnings, pool, centerness): labels use -1 for negative, and
    centerness is that of the pool entries, 0 elsewhere.
    """
    xy, m = points.xy, gt.shape[0]
    in_box = (
        (xy[:, 0:1] >= gt[None, :, 0])
        & (xy[:, 0:1] < gt[None, :, 2])
        & (xy[:, 1:2] >= gt[None, :, 1])
        & (xy[:, 1:2] < gt[None, :, 3])
    )
    max_side = np.maximum(gt[:, 2] - gt[:, 0], gt[:, 3] - gt[:, 1])
    lowers = np.asarray([r[0] for r in points.scale_ranges])[points.point_levels]
    uppers = np.asarray([r[1] for r in points.scale_ranges])[points.point_levels]
    pool = in_box & (max_side >= lowers[:, None]) & (max_side < uppers[:, None])
    candidate = pool
    if radius is not None:
        cx, cy = 0.5 * (gt[:, 0] + gt[:, 2]), 0.5 * (gt[:, 1] + gt[:, 3])
        reach = radius * points.point_strides[:, None]
        central = (np.abs(xy[:, 0:1] - cx) <= reach) & (np.abs(xy[:, 1:2] - cy) <= reach)
        candidate = pool & central

    areas = (gt[:, 2] - gt[:, 0]) * (gt[:, 3] - gt[:, 1])
    winner = np.argmin(np.where(candidate, areas, np.inf), axis=1) if m else -1
    labels = np.where(candidate.any(axis=1), winner, -1)

    warnings = []
    for j in range(m):
        if np.any(labels == j):
            continue
        dist = ((xy - 0.5 * (gt[j, :2] + gt[j, 2:])) ** 2).sum(axis=1)
        ranked = np.lexsort((dist, 2 - in_box[:, j] - pool[:, j]))
        free = ranked[labels[ranked] < 0]
        counts = np.bincount(labels[labels >= 0], minlength=m)
        shared = [i for i in ranked if labels[i] >= 0 and counts[labels[i]] >= 2]
        if free.size or shared:
            labels[free[0] if free.size else shared[0]] = j
        else:
            warnings.append(f"object {j}: no point available for the positive fallback")

    left, right = xy[:, 0:1] - gt[:, 0], gt[:, 2] - xy[:, 0:1]
    top, bottom = xy[:, 1:2] - gt[:, 1], gt[:, 3] - xy[:, 1:2]
    lr = np.minimum(left, right) / np.maximum(left, right)
    tb = np.minimum(top, bottom) / np.maximum(top, bottom)
    centerness = np.where(pool, np.sqrt(np.clip(lr * tb, 0.0, None)), 0.0)
    return labels, warnings, pool, centerness


def brute_force_guided(values, regressed, scores, sigma, l2c, c2l, t_pos=0.5, t_neg=0.4):
    """Reference anchor strategy row by plain loops over nested lists: the
    static baseline, then the guided tasks that ``l2c`` and ``c2l`` name, each
    ranked by ``brute_force_ranked_selection`` and followed by the rescue of
    every object the merge left without a positive from its static positives.

    l2c ranks ``regressed`` with the static budgets (n_pos, n_ignored); c2l
    ranks ``values ** ((sigma - score) / sigma)`` with (n_pos, 0). Returns the
    dict (classification, localization, counts, warnings); a guided row keeps
    only its tasks' warnings, l2c's first, like the library.
    """
    n, m = len(values), len(values[0])
    if m == 0:  # an image without objects is all background
        return {"classification": [-1] * n, "localization": [-1] * n, "counts": [],
                "warnings": []}
    static, warnings = brute_force_static_assign(values, t_pos, t_neg)
    best = [max(range(m), key=lambda j: (row[j], -j)) for row in values]
    n_pos = [static.count(j) for j in range(m)]
    n_ign = [sum(static[i] == -2 and best[i] == j for i in range(n)) for j in range(m)]
    tasks = []
    if l2c:
        tasks.append(brute_force_ranked_selection(regressed, n_pos, n_ign)[0])
    if c2l:
        # numpy's vectorised power may differ from Python's ** in the last
        # bit, so the entries are raised by the routine the library uses
        flat = [(v, (sigma - s) / sigma) for row, srow in zip(values, scores)
                for v, s in zip(row, srow)]
        raised = np.power([v for v, _ in flat], [e for _, e in flat]).tolist()
        amplified = [raised[i * m:(i + 1) * m] for i in range(n)]
        tasks.append(brute_force_ranked_selection(amplified, n_pos, [0] * m)[0])
    if tasks:
        warnings = []
    for labels in tasks:
        rescue_from_baseline(labels, static, m, "anchor", warnings)
    localization = [-1 if label == -2 else label for label in static]
    return {
        "classification": tasks[0] if l2c else static,
        "localization": tasks[-1] if c2l else localization,
        "counts": list(zip(n_pos, n_ign)),
        "warnings": warnings,
    }


def rescue_from_baseline(labels, baseline, m, noun, warnings):
    """Give each object that the guided ``labels`` leave without a positive the first
    of its ``baseline`` positives that is free, else the first whose owner holds two
    or more; name it in ``warnings`` when there is none."""
    for j in [j for j in range(m) if j not in labels]:
        original = [i for i, label in enumerate(baseline) if label == j]
        free = [i for i in original if labels[i] < 0]
        counts = [labels.count(k) for k in range(m)]
        shared = [i for i in original if labels[i] >= 0 and counts[labels[i]] >= 2]
        if free or shared:
            labels[(free or shared)[0]] = j
        else:
            warnings.append(f"object {j}: no {noun} available for the positive fallback")


def brute_force_point_guided(points, gt, regressed, scores, sigma, l2c, c2l, radius=None):
    """Reference point strategy row: the baseline of ``brute_force_point_pool``, then
    the guided tasks that ``l2c`` and ``c2l`` name, each ranked over the pool by
    ``brute_force_ranked_selection`` with the baseline's positive counts as budgets
    and no ignored band, and followed by the rescue of every object the merge left
    without a positive from its original positives.

    l2c ranks ``regressed``; c2l ranks ``centerness ** ((sigma - score) / sigma)``.
    Returns the dict of ``brute_force_guided``, with the positive counts as counts.
    A guided row keeps only its tasks' warnings, l2c's first; each task names the
    objects whose pool is smaller than their budget, then those it cannot rescue.
    """
    original, warnings, pool, centerness = brute_force_point_pool(points, gt, radius)
    m, original = gt.shape[0], original.tolist()
    n_pos = [original.count(j) for j in range(m)]
    sizes = pool.sum(axis=0).tolist()
    ranked = []
    if l2c:
        ranked.append(regressed)
    if c2l:
        ranked.append(np.power(centerness, (sigma - scores) / sigma))
    if ranked:
        warnings = []
    tasks = []
    for values in ranked:
        labels = brute_force_ranked_selection(values.tolist(), n_pos, [0] * m, pool.tolist())[0]
        warnings += [f"object {j}: only {sizes[j]} candidates for {n_pos[j]} positive"
                     " + 0 ignored; clamped" for j in range(m) if sizes[j] < n_pos[j]]
        rescue_from_baseline(labels, original, m, "point", warnings)
        tasks.append(labels)
    return {
        "classification": tasks[0] if l2c else original,
        "localization": tasks[-1] if c2l else original,
        "counts": n_pos,
        "warnings": warnings,
    }
