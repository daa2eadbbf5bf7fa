"""Release gate: ten numbered end-to-end checks with pinned tolerances.

Each test measures its quantities, prints one PASS/FAIL line with the
numbers, and asserts. The lines are echoed in the terminal summary by
conftest so a plain pytest run shows the scoreboard. Tolerances are
written inline rather than imported so a moved bar is visible in the
diff.
"""

import json
import math
import time

import numpy as np
import pytest

from reference import centerness, iou_aabb, match_point_to_gt, point_in_scaled_box
from rows import xyz

from cascadev.assignment import CpaSchedule, assign_targets, cpa_threshold
from cascadev.cascade import ensemble_stages, run_cascade
from cascadev.cli import main
from cascadev.evaluation import cascade_stats, evaluate_scenes
from cascadev.geometry import (
    Boxes,
    OrientedBox,
    Point3,
    decode_boxes,
    encode_deltas,
    matched_faces,
)
from cascadev.learner import (
    LossWeights,
    StageOutputs,
    _backward,
    _forward,
    compute_losses,
    head_predictors,
    init_head_params,
    train_cascade,
    uniform_seed_scores,
)
from cascadev.overlap import Detection, iou_mc, iou_rotated
from cascadev.synth import (
    OracleNoise,
    SceneConfig,
    gen_scene,
    oracle_predictor,
    oracle_seed_centerness,
    scene_proposals,
)
from cascadev.voting import ia_voting

CRITERION_LINES: list[str] = []


def _record(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, line


def _world_point(box: OrientedBox, q) -> list[float]:
    # Canonical box coordinates back to world; inverse of the encode frame.
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    qx, qy, qz = q
    return [
        box.center.x + c * qx - s * qy,
        box.center.y + s * qx + c * qy,
        box.center.z + qz,
    ]


def test_criterion_1_roundtrip_and_center_recovery():
    # Encoded by matched_faces, decoded by decode_boxes: the kernels each
    # cascade stage runs. A decoded center is the point a proposal moves to.
    rng = np.random.default_rng(99)
    t0 = time.perf_counter()
    rows = []
    points = []
    for _ in range(10_000):
        center = Point3(*rng.uniform(-5.0, 5.0, size=3))
        size = tuple(rng.uniform(0.2, 3.0, size=3))
        yaw = float(rng.uniform(-math.pi, math.pi)) if rng.random() < 0.7 else 0.0
        rows.append(OrientedBox(center, size, yaw=yaw, class_id=int(rng.integers(0, 5))))
        points.append(center.as_array() + rng.uniform(-2.0, 2.0, size=3))
    boxes = Boxes.of(rows)
    points = np.array(points)
    faces, _ = matched_faces(boxes, points, np.arange(len(boxes)))
    centers, sizes, yaws = decode_boxes(points, np.column_stack([faces, boxes.yaws]))
    worst_center = float(np.max(np.abs(centers - boxes.centers)))
    worst_box = max(worst_center, float(np.max(np.abs(sizes - boxes.sizes))),
                    float(np.max(np.abs(yaws - boxes.yaws))))
    dt = time.perf_counter() - t0
    ok = worst_box < 1e-9 and worst_center < 1e-12 and dt < 1.0
    _record(
        1,
        ok,
        f"decode err {worst_box:.1e} (<1e-9), recovered-center err "
        f"{worst_center:.1e} (<1e-12), {dt:.2f}s (<1s)",
    )


def test_criterion_2_centerness_law():
    # Five points per box, scored in one matched_faces pass: its centerness
    # is centerness_array of the face distances, as in seed scoring and
    # target assignment.
    rng = np.random.default_rng(7)
    rows = []
    points = []  # per box: random, center, off-center, on a face, outside
    for _ in range(2_000):
        box = OrientedBox(
            Point3(*rng.uniform(-3.0, 3.0, size=3)),
            tuple(rng.uniform(0.3, 2.5, size=3)),
            yaw=float(rng.uniform(-math.pi, math.pi)),
        )
        rows.append(box)
        half = np.asarray(box.size) / 2.0
        points.append(rng.uniform(-4.0, 4.0, size=3))
        points.append(box.center.as_array())
        # Interior offsets bounded away from zero so the strict side of
        # "=1 iff center" is tested without floating-point ambiguity.
        q = rng.uniform(0.1, 0.9, size=3) * half * rng.choice([-1.0, 1.0], size=3)
        points.append(_world_point(box, q))
        axis = int(rng.integers(0, 3))
        q_face = rng.uniform(-0.9, 0.9, size=3) * half
        q_face[axis] = half[axis] * float(rng.choice([-1.0, 1.0]))
        points.append(_world_point(box, q_face))
        q_out = q_face.copy()
        q_out[axis] *= 1.0 + float(rng.uniform(0.05, 2.0))
        points.append(_world_point(box, q_out))
    owner = np.repeat(np.arange(len(rows)), 5)
    c = matched_faces(Boxes.of(rows), np.array(points), owner)[1].reshape(-1, 5)
    in_range = bool(np.all((0.0 <= c[:, 0]) & (c[:, 0] <= 1.0)))
    one_at_center = bool(np.all(c[:, 1] == 1.0))
    below_one_off_center = bool(np.all(c[:, 2] < 1.0))
    zero_on_faces = bool(np.all(c[:, 3] == 0.0))
    zero_outside = bool(np.all(c[:, 4] == 0.0))
    unit = Boxes.of([OrientedBox(Point3(0, 0, 0), (1, 1, 1))])
    quarter = matched_faces(unit, np.array([[0.25, 0.0, 0.0]]), np.zeros(1, dtype=np.int64))[1]
    quarter_err = abs(float(quarter[0]) - math.sqrt(1.0 / 3.0))
    ok = (
        in_range
        and one_at_center
        and below_one_off_center
        and zero_on_faces
        and zero_outside
        and quarter_err < 1e-12
    )
    _record(
        2,
        ok,
        f"range/center/face/outside laws hold on 2000 boxes, quarter-offset "
        f"err {quarter_err:.1e} (<1e-12)",
    )


def test_criterion_3_cpa_schedule_and_shrinking_positives():
    sched = CpaSchedule()
    expect = (1.0 / 3.0, 4.0 / 15.0, 0.2)
    sched_err = max(
        abs(cpa_threshold(l, sched) - e) for l, e in zip((1, 2, 3), expect)
    )
    # Thresholds scale the matching box, so the positive set at a smaller
    # mu must sit inside the positive set at any larger mu. The grid
    # straddles 0.5 because surface points sit exactly on the unscaled
    # box; the drop below 0.5 is where the tightening visibly bites.
    cfg = SceneConfig(num_gt=(2, 3), points_per_box=24, num_clutter=60)
    grid = (0.6, 0.5, 0.45, 1.0 / 3.0, 0.2)
    nested = True
    counts = np.zeros(len(grid), dtype=np.int64)
    for seed in range(100):
        scene = gen_scene(cfg, seed)
        prev = None
        for k, mu in enumerate(grid):
            matched = assign_targets(scene.points, Boxes.of(scene.gt_boxes), mu).matched_gt
            cur = set(np.flatnonzero(matched >= 0).tolist())
            counts[k] += len(cur)
            if prev is not None:
                nested &= cur <= prev
            prev = cur
    shrinks = bool(np.all(np.diff(counts) <= 0)) and counts[0] > counts[-1] > -1
    ok = sched_err < 1e-12 and nested and shrinks and counts[0] > 0
    _record(
        3,
        ok,
        f"schedule err {sched_err:.1e} (<1e-12), positive sets nested on 100 "
        f"scenes, counts {counts.tolist()} over mu {tuple(round(m, 4) for m in grid)}",
    )


def _vote_instance(rng, n_src=12, dim=4):
    box = OrientedBox(
        Point3(*rng.uniform(-1.0, 1.0, size=3)),
        tuple(rng.uniform(1.0, 2.5, size=3)),
        yaw=float(rng.uniform(-math.pi, math.pi)),
    )
    pts = [Point3(*rng.uniform(-2.0, 2.0, size=3)) for _ in range(n_src)]
    feats = [rng.normal(size=dim) for _ in range(n_src)]
    return Point3(*rng.uniform(-1.5, 1.5, size=3)), box, pts, feats


def _brute_vote(p_upd, box, pts, feats, weighting):
    # Literal double loop over the weighted-average definition.
    weights, kept = [], []
    for p, f in zip(pts, feats):
        if not point_in_scaled_box(p, box, 0.5):
            continue
        d = math.dist((p.x, p.y, p.z), (p_upd.x, p_upd.y, p_upd.z))
        weights.append(math.exp(-d) if weighting == "exp_neg_dist" else -math.exp(d))
        kept.append(np.asarray(f, dtype=float))
    if not weights:
        return None
    total = sum(weights)
    return sum((w / total) * f for w, f in zip(weights, kept))


def test_criterion_4_voting_oracle_hull_and_variance():
    rng = np.random.default_rng(46)
    worst = 0.0
    checked = 0
    attempts = 0
    while checked < 1_000 and attempts < 4_000:
        attempts += 1
        p_upd, box, pts, feats = _vote_instance(rng)
        hit = False
        for weighting in ("exp_neg_dist", "literal"):
            ref = _brute_vote(p_upd, box, pts, feats, weighting)
            if ref is None:
                continue
            (out,) = ia_voting(
                xyz([p_upd]), Boxes.of([box]), xyz(pts), feats, weighting=weighting
            )
            worst = max(worst, float(np.max(np.abs(out - ref))))
            hit = True
        checked += hit

    hull_ok = True
    outside_exact = True
    for _ in range(200):
        p_upd, box, pts, feats = _vote_instance(rng, n_src=15, dim=5)
        inside = [f for p, f in zip(pts, feats) if point_in_scaled_box(p, box, 0.5)]
        if not inside:
            continue
        (out,) = ia_voting(xyz([p_upd]), Boxes.of([box]), xyz(pts), feats)
        mat = np.asarray(inside)
        hull_ok &= bool(
            np.all(out >= mat.min(axis=0) - 1e-12)
            and np.all(out <= mat.max(axis=0) + 1e-12)
        )
        mutated = [
            f + 1000.0 if not point_in_scaled_box(p, box, 0.5) else f
            for p, f in zip(pts, feats)
        ]
        (after,) = ia_voting(xyz([p_upd]), Boxes.of([box]), xyz(pts), mutated)
        outside_exact &= bool(np.array_equal(after, out))

    # Shared signal plus i.i.d. noise: averaging inside the box must cut
    # MSE versus one noisy copy. One-sided paired z-test at 95%.
    rng_v = np.random.default_rng(45)
    box = OrientedBox(Point3(0, 0, 0), (2.0, 2.0, 2.0))
    true = np.array([1.0, -2.0, 0.5, 3.0])
    diffs = []
    for _ in range(1_000):
        pts = [Point3(*rng_v.uniform(-0.9, 0.9, size=3)) for _ in range(12)]
        feats = [true + rng_v.normal(scale=0.3, size=4) for _ in range(12)]
        (out,) = ia_voting(np.zeros((1, 3)), Boxes.of([box]), xyz(pts), feats)
        diffs.append(
            float(np.mean((feats[0] - true) ** 2)) - float(np.mean((out - true) ** 2))
        )
    d = np.asarray(diffs)
    z = float(d.mean() / (d.std(ddof=1) / math.sqrt(d.size)))

    ok = checked >= 1_000 and worst < 1e-12 and hull_ok and outside_exact and z > 1.645
    _record(
        4,
        ok,
        f"double-loop err {worst:.1e} (<1e-12) on {checked} instances, hull + "
        f"outside-influence exact, variance z {z:.1f} (>1.645)",
    )


def _rand_iou_box(rng, yaw=None, near=None):
    if near is None:
        center = Point3(*rng.uniform(-2.0, 2.0, size=3))
    else:
        center = Point3(*(near.center.as_array() + rng.uniform(-0.8, 0.8, size=3)))
    y = float(rng.uniform(-math.pi, math.pi)) if yaw is None else yaw
    return OrientedBox(center, tuple(rng.uniform(0.6, 2.2, size=3)), yaw=y)


def test_criterion_5_rotated_iou_against_aabb_and_monte_carlo():
    rng = np.random.default_rng(17)
    t0 = time.perf_counter()
    worst_axis = 0.0
    for _ in range(200):
        a = _rand_iou_box(rng, yaw=0.0)
        b = _rand_iou_box(rng, yaw=0.0, near=a)
        worst_axis = max(worst_axis, abs(iou_rotated(a, b) - iou_aabb(a, b)))
    worst_mc = 0.0
    for k in range(100):
        a = _rand_iou_box(rng)
        b = _rand_iou_box(rng, near=a)
        est, _ = iou_mc(a, b, 1_000_000, seed=k)
        worst_mc = max(worst_mc, abs(iou_rotated(a, b) - est))
    dt = time.perf_counter() - t0
    ok = worst_axis < 1e-9 and worst_mc < 1e-2 and dt < 10.0
    _record(
        5,
        ok,
        f"yaw-0 vs axis-aligned err {worst_axis:.1e} (<1e-9), 1e6-sample MC err "
        f"{worst_mc:.1e} (<1e-2) on 100 pairs, {dt:.1f}s (<10s)",
    )


def test_criterion_6_centerness_gain_and_iou_correlation():
    t0 = time.perf_counter()
    cfg = SceneConfig(
        size_range=((0.3, 0.7), (0.3, 0.7), (0.3, 0.6)),
        num_clutter=2200,
        points_per_box=120,
        workspace=((-8.0, 8.0), (-8.0, 8.0), (0.0, 3.0)),
    )
    noise = OracleNoise(sigma_delta=0.1, centerness_bias=0.1)
    sched = CpaSchedule()
    traces = []
    for seed in range(100):
        scene = gen_scene(cfg, seed)
        cent = oracle_seed_centerness(scene, noise, seed=seed)
        props = scene_proposals(scene, cent, 128)
        traces.append(
            run_cascade(
                props, oracle_predictor(scene, noise, seed=seed), sched,
                gts=scene.gt_boxes,
            )
        )
    stats = cascade_stats(traces)
    dt = time.perf_counter() - t0
    ok = stats.gain_fraction >= 0.5 and stats.pooled_spearman_rho > 0.5 and dt < 30.0
    _record(
        6,
        ok,
        f"centerness gain fraction {stats.gain_fraction:.3f} (>=0.5), "
        f"spearman rho {stats.pooled_spearman_rho:.3f} (>0.5), {dt:.1f}s (<30s)",
    )


def test_criterion_7_exact_oracle_cascade():
    sched = CpaSchedule()
    noise = OracleNoise()
    cfg = SceneConfig(num_gt=(2, 4), points_per_box=30, num_clutter=80)
    results = []
    worst_dev = 0.0
    for seed in range(10):
        scene = gen_scene(cfg, seed)
        props = scene_proposals(scene, oracle_seed_centerness(scene, noise, seed=seed), 32)
        trace = run_cascade(
            props, oracle_predictor(scene, noise, seed=seed), sched, gts=scene.gt_boxes
        )
        results.append((ensemble_stages(trace, (1, 3), 0.25), scene.gt_boxes))
        for rec in trace.stages[1:]:
            for p in (Point3(*row) for row in rec.proposals_in.points):
                gt = scene.gt_boxes[match_point_to_gt(p, scene.gt_boxes)]
                worst_dev = max(worst_dev, abs(centerness(encode_deltas(p, gt)) - 1.0))
    map50 = evaluate_scenes(results, [0.5]).at(0.5).mean_ap
    ok = map50 == 1.0 and worst_dev < 1e-9
    _record(
        7,
        ok,
        f"exact-oracle ensembled mAP@0.5 {map50} (=1.0), stage-2+ centerness "
        f"dev {worst_dev:.1e} (<1e-9)",
    )


def test_criterion_8_ap_hand_trace_and_threshold_ordering():
    g1 = OrientedBox(Point3(0, 0, 0), (1, 1, 1), class_id=0)
    g2 = OrientedBox(Point3(3, 0, 0), (1, 1, 1), class_id=0)
    dets = [
        Detection(box=g1, score=0.9, class_id=0),
        Detection(box=OrientedBox(Point3(0.05, 0, 0), (1, 1, 1)), score=0.8, class_id=0),
        Detection(box=g2, score=0.7, class_id=0),
    ]
    # Ranked TP, duplicate FP, TP over two gts: AP = 0.5 + 0.5 * (2/3).
    hand_err = abs(evaluate_scenes([(dets, [g1, g2])], [0.5]).at(0.5).mean_ap - 5.0 / 6.0)

    sched = CpaSchedule()
    noise = OracleNoise(sigma_delta=0.12, centerness_bias=0.1)
    cfg = SceneConfig(num_gt=(2, 4), points_per_box=30, num_clutter=80)
    ordering = True
    for seed in range(20):
        scene = gen_scene(cfg, seed)
        props = scene_proposals(
            scene, oracle_seed_centerness(scene, noise, seed=seed), 32
        )
        trace = run_cascade(
            props, oracle_predictor(scene, noise, seed=seed), sched, gts=scene.gt_boxes
        )
        res = evaluate_scenes(
            [(ensemble_stages(trace, (1, 3), 0.25), scene.gt_boxes)], [0.25, 0.5]
        )
        ordering &= res.at(0.25).mean_ap >= res.at(0.5).mean_ap
    ok = hand_err < 1e-12 and ordering
    _record(
        8,
        ok,
        f"hand-trace AP err {hand_err:.1e} (<1e-12), mAP@0.25 >= mAP@0.5 on "
        f"20 noisy single-scene runs",
    )


def _fd_worst_rel() -> float:
    # Compact finite-difference sweep over every parameter of a one-stage
    # head on a four-point instance with a pinned denoising point.
    g1 = OrientedBox(Point3(0.0, 0.0, 1.0), (1.0, 1.2, 0.8), class_id=0)
    g2 = OrientedBox(Point3(3.0, 0.0, 1.0), (0.9, 0.9, 0.9), class_id=2)
    points = np.array([
        [0.05, -0.03, 1.02],
        [0.5, 0.0, 1.0],
        [2.0, 2.0, 0.3],
        [3.2, 0.1, 1.1],
    ])
    assignment = assign_targets(points, Boxes.of([g1, g2]), 0.4,
                                denoising_gt=np.array([-1, -1, -1, 1]))
    feats = np.random.default_rng(11).normal(size=(4, 6))
    weights = LossWeights(cls=1.3, reg=0.7, cent=1.1)
    sp = init_head_params(6, 2, 1, hidden=4, seed=7).stages[0]

    def outputs_and_hidden():
        cls_out, cls_h = _forward(sp.cls, feats)
        reg_out, reg_h = _forward(sp.reg, feats)
        cent_out, cent_h = _forward(sp.cent, feats)
        outs = StageOutputs(
            cls_logits=cls_out, reg_raw=reg_out, cent_logits=cent_out[:, 0]
        )
        return outs, (cls_h, reg_h, cent_h)

    outs, (cls_h, reg_h, cent_h) = outputs_and_hidden()
    _, (g_cls, g_reg, g_cent) = compute_losses(outs, assignment, weights)
    analytic = {
        "cls": _backward(sp.cls, feats, cls_h, g_cls),
        "reg": _backward(sp.reg, feats, reg_h, g_reg),
        "cent": _backward(sp.cent, feats, cent_h, g_cent[:, None]),
    }
    eps = 1e-5
    worst = 0.0
    for name, bp in sp.branches().items():
        for arr, grad in zip(bp.arrays(), analytic[name]):
            flat, gflat = arr.reshape(-1), grad.reshape(-1)
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + eps
                up = compute_losses(outputs_and_hidden()[0], assignment, weights)[0].total
                flat[k] = keep - eps
                down = compute_losses(outputs_and_hidden()[0], assignment, weights)[0].total
                flat[k] = keep
                fd = (up - down) / (2.0 * eps)
                a = gflat[k]
                worst = max(worst, abs(a - fd) / max(1e-6, abs(a), abs(fd)))
    return worst


def test_criterion_9_gradients_loss_drop_and_trained_map():
    worst_rel = _fd_worst_rel()

    t0 = time.perf_counter()
    cfg = SceneConfig(
        num_gt=(3, 5),
        points_per_box=60,
        size_range=((0.8, 1.3), (0.8, 1.3), (0.6, 1.1)),
        sigma_feature=0.03,
        num_clutter=400,
    )
    train = [gen_scene(cfg, seed) for seed in range(32)]
    held = [gen_scene(cfg, 1000 + seed) for seed in range(16)]
    sched = CpaSchedule()
    params, history = train_cascade(train, sched, 2500, 1e-2, 0)
    loss_early = sum(r.total for r in history if r.step == 10)
    loss_late = sum(r.total for r in history if r.step == 500)
    ratio = loss_late / loss_early

    def eval_map(p):
        results = []
        for scene in held:
            props = scene_proposals(scene, uniform_seed_scores(scene), 64)
            trace = run_cascade(props, head_predictors(p), sched, gts=scene.gt_boxes)
            results.append((ensemble_stages(trace, (3, 3), 0.25), scene.gt_boxes))
        return evaluate_scenes(results, [0.25]).at(0.25).mean_ap

    trained_map = eval_map(params)
    base_map = eval_map(
        init_head_params(
            train[0].features.shape[1], cfg.num_classes, sched.num_stages, seed=0
        )
    )
    dt = time.perf_counter() - t0
    gap = trained_map - base_map
    ok = worst_rel < 1e-4 and ratio <= 0.5 and gap >= 0.2 and dt < 60.0
    _record(
        9,
        ok,
        f"grad rel err {worst_rel:.1e} (<1e-4), loss ratio step500/step10 "
        f"{ratio:.3f} (<=0.5), held-out mAP@0.25 {trained_map:.3f} vs untrained "
        f"{base_map:.3f}, gap {gap:.3f} (>=0.2), {dt:.1f}s (<60s)",
    )


def _bytes_map(root):
    return {
        p.relative_to(root): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_10_pipeline_byte_determinism(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps(
            {
                "num_scenes": 3,
                "b": 16,
                "steps": 25,
                "denoising_k": 2,
                "scene": {"num_gt": [2, 2], "points_per_box": 20, "num_clutter": 50},
            }
        )
    )
    outcomes = []
    for tag in ("first", "second"):
        root = tmp_path / tag
        scenes, traces, metrics, model = (
            root / "scenes", root / "traces", root / "metrics", root / "model",
        )
        assert main(["gen", "--config", str(cfg_path), "--out", str(scenes)]) == 0
        assert main(["run", str(scenes), "--config", str(cfg_path), "--out", str(traces)]) == 0
        assert main(["eval", str(traces), "--config", str(cfg_path), "--out", str(metrics)]) == 0
        assert main(["train", str(scenes), "--config", str(cfg_path), "--out", str(model)]) == 0
        outcomes.append(
            {
                stage.name: _bytes_map(stage)
                for stage in (scenes, traces, metrics, model)
            }
        )
    n_files = sum(len(v) for v in outcomes[0].values())
    ok = outcomes[0] == outcomes[1] and n_files > 0
    _record(
        10,
        ok,
        f"gen/run/eval/train rerun byte-identical across {n_files} artifacts",
    )
