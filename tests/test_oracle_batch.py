"""The batch oracle predictor against the per-proposal path, by exact equality.

`oracle_predictor` is called once per cascade stage with all of that
stage's proposals: it matches their points with one `match_points_to_gt`
call and takes true face distances and centerness from `matched_faces`.
Oracle traces stay byte-identical only if every prediction row is
bit-equal to the per-proposal path copied below (scalar
`match_point_to_gt`, `encode_deltas` and `centerness`, noise drawn
proposal by proposal in the same order), so these checks compare the
returned columns with ==, never a tolerance.
"""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

from reference import centerness, match_point_to_gt
from rows import xyz

from cascadev.cascade import Proposals
from cascadev.geometry import Deltas, Point3, encode_deltas
from cascadev.synth import (
    OracleNoise,
    SceneConfig,
    _guard_extents,
    gen_scene,
    oracle_predictor,
)

# --- the per-proposal oracle: one scalar match and encode per point --------


def reference_oracle(scene, noise, seed=0):
    rng = np.random.Generator(np.random.Philox(key=(scene.seed << 1) ^ seed))
    n_classes = scene.config.num_classes

    def predict(point):
        """(class probabilities, Deltas, centerness) for one proposal point."""
        gt = scene.gt_boxes[match_point_to_gt(point, scene.gt_boxes)]
        true = encode_deltas(point, gt)
        d = np.array(true.faces())
        if noise.sigma_delta > 0.0:
            d = d * rng.normal(1.0, noise.sigma_delta, size=6)
            d = _guard_extents(d)
        heading = gt.yaw
        if noise.sigma_heading > 0.0:
            heading += float(rng.normal(0.0, noise.sigma_heading))
        cls = gt.class_id
        if noise.p_class_flip > 0.0 and n_classes > 1 and rng.random() < noise.p_class_flip:
            others = [c for c in range(n_classes) if c != cls]
            cls = int(others[rng.integers(len(others))])
        probs = np.zeros(n_classes + 1)
        probs[cls] = 1.0
        c_true = centerness(true)
        c_pred = c_true
        if noise.centerness_bias > 0.0:
            c_pred = float(np.clip(c_true + noise.centerness_bias * rng.normal(), 0.0, 1.0))
        return probs, Deltas(*d, heading=heading), c_pred

    return predict


# --- proposals: inside a box, on a face, outside every box -----------------

CFG = SceneConfig(num_gt=(3, 4), points_per_box=40, num_clutter=60)


def _world(box, local):
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    x, y, z = local
    return Point3(box.center.x + c * x - s * y, box.center.y + s * x + c * y, box.center.z + z)


@functools.lru_cache(maxsize=None)
def scene_and_proposals(yaw):
    scene = gen_scene(dataclasses.replace(CFG, yaw_enabled=yaw), 41)
    points = list(map(Point3.from_array, scene.points))  # sampled surface points and clutter
    for box in scene.gt_boxes:
        w, l, h = box.size
        points.append(box.center)
        points.append(_world(box, (0.2 * w, -0.1 * l, 0.3 * h)))  # inside
        points.append(_world(box, (w / 2.0, 0.1 * l, 0.0)))  # on a face
        points.append(_world(box, (-0.2 * w, l / 2.0, -h / 2.0)))  # on an edge
        points.append(_world(box, (w, 0.0, 0.0)))  # just outside
    points += [Point3(9.0, -9.0, 5.0), Point3(-7.5, 0.0, -3.0)]  # outside the workspace
    return scene, points, proposals_at(points)


def proposals_at(points):
    return Proposals(
        points=xyz(points),
        features=np.zeros((len(points), CFG.feature_dim)),
        origin_index=np.arange(len(points)),
        denoising_gt=np.full(len(points), -1),
    )


def assert_same(got, want):
    """got: Predictions columns; want: the reference's per-proposal triples."""
    assert len(got.centerness) == len(want)
    assert got.class_probs.shape == (len(want), CFG.num_classes + 1)
    assert got.deltas.shape == (len(want), 7) and got.centerness.shape == (len(want),)
    for i, (probs, deltas, c) in enumerate(want):
        assert np.array_equal(got.class_probs[i], probs)
        assert got.deltas[i].tolist() == [*deltas.faces(), deltas.heading]
        assert got.centerness[i] == c


KNOBS = list(itertools.product((0.0, 0.2), (0.0, 0.15), (0.0, 0.3), (0.0, 0.1)))


def test_proposals_cover_inside_face_and_outside():
    for yaw in (False, True):
        scene, points, _ = scene_and_proposals(yaw)
        faces = [min(encode_deltas(p, gt).faces()) for p in points for gt in scene.gt_boxes]
        per_point = np.array(faces).reshape(len(points), len(scene.gt_boxes)).max(axis=1)
        assert (per_point > 1e-9).sum() >= 2 * len(scene.gt_boxes)  # strictly inside one
        assert (abs(per_point) <= 1e-9).sum() >= 2 * len(scene.gt_boxes)  # on a face
        assert (per_point < -1e-9).sum() >= 10  # outside every box


@pytest.mark.parametrize("yaw", [False, True])
@pytest.mark.parametrize("knobs", KNOBS)
def test_batch_oracle_equals_per_proposal_oracle(yaw, knobs):
    scene, points, props = scene_and_proposals(yaw)
    noise = OracleNoise(*knobs)
    ref = reference_oracle(scene, noise, seed=3)
    want = [ref(p) for p in points]
    assert_same(oracle_predictor(scene, noise, seed=3)(props), want)


@pytest.mark.parametrize("yaw", [False, True])
def test_chunked_calls_continue_the_draw_order(yaw):
    scene, points, _ = scene_and_proposals(yaw)
    noise = OracleNoise(sigma_delta=0.2, sigma_heading=0.15, p_class_flip=0.3,
                        centerness_bias=0.1)
    ref = reference_oracle(scene, noise, seed=5)
    predict = oracle_predictor(scene, noise, seed=5)
    for lo, hi in ((0, 1), (1, 1), (1, 8), (8, 50), (50, len(points))):
        assert_same(predict(proposals_at(points[lo:hi])), [ref(p) for p in points[lo:hi]])
    assert_same(predict(proposals_at(points[:9])), [ref(p) for p in points[:9]])
