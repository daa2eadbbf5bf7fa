import json
import re
import shutil
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from columns import as_lists, decode, edit_column, encode

from cascadev.assignment import CpaSchedule
from cascadev.cascade import Proposals, run_cascade
from cascadev.cli import main
from cascadev.errors import DataError, SchemaVersionError
from cascadev.evaluation import cascade_stats, evaluate_scenes
from cascadev.formats import (
    SCHEMA_VERSION,
    _column,
    _column_doc,
    STATS_CSV_COLUMNS,
    ap_from_doc,
    ap_to_doc,
    canonical_dumps,
    check_schema,
    config_hash,
    detection_doc,
    loss_csv,
    model_from_doc,
    model_to_doc,
    read_json,
    scene_from_doc,
    scene_to_doc,
    stats_csv,
    trace_from_doc,
    trace_to_doc,
    write_json,
)
from cascadev.geometry import OrientedBox, Point3
from cascadev.learner import (
    LossReport,
    head_predictor,
    head_predictors,
    init_head_params,
    train_cascade,
)
from cascadev.overlap import Detection
from cascadev.synth import (
    OracleNoise,
    SceneConfig,
    gen_scene,
    oracle_predictor,
    oracle_seed_centerness,
    scene_proposals,
)

CFG = SceneConfig(num_gt=(2, 2), points_per_box=12, num_clutter=30)
SCHED = CpaSchedule()


def _oracle_trace(seed=7, sigma=0.05):
    scene = gen_scene(CFG, seed=seed)
    noise = OracleNoise(sigma_delta=sigma)
    props = scene_proposals(
        scene, oracle_seed_centerness(scene, noise, seed=seed), 12,
        denoising_k=1,
    )
    pred = oracle_predictor(scene, noise, seed=seed)
    return scene, run_cascade(props, pred, SCHED, gts=scene.gt_boxes)


def _class_less_trace():
    """A trace whose first ground truth has no class id."""
    scene = gen_scene(CFG, seed=7)
    gts = [replace(scene.gt_boxes[0], class_id=None)] + scene.gt_boxes[1:]
    props = scene_proposals(scene, np.zeros(scene.num_points), 12, denoising_k=1)
    pred = oracle_predictor(scene, OracleNoise(), seed=7)
    return run_cascade(props, pred, SCHED, gts=gts)


def _through_json(doc):
    return json.loads(canonical_dumps(doc))


def _assert_same_bytes(a, b):
    """Same dtype, shape and bytes; an empty JSON column keeps no row width,
    so empty arrays need only agree in length."""
    assert a.dtype == b.dtype and len(a) == len(b)
    if a.size or b.size:
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_records(trace, loaded):
    """Arrays bytewise, detection columns bytewise and their rows with ==,
    assignment columns bytewise."""
    assert loaded.gts == trace.gts
    assert loaded.schedule == trace.schedule and loaded.weighting == trace.weighting
    assert loaded.num_stages == trace.num_stages
    for ra, rb in zip(trace.stages, loaded.stages):
        assert ra.stage == rb.stage and ra.mu == rb.mu
        for name in ("centers", "sizes", "yaws", "class_ids", "scores"):
            _assert_same_bytes(getattr(ra.detections, name), getattr(rb.detections, name))
        assert ra.detections.rows(ra.stage) == rb.detections.rows(rb.stage)
        for name in ("points", "features", "origin_index", "denoising_gt"):
            _assert_same_bytes(getattr(ra.proposals_in, name), getattr(rb.proposals_in, name))
        for name in ("class_probs", "deltas", "centerness"):
            _assert_same_bytes(getattr(ra.predictions, name), getattr(rb.predictions, name))
        assert (ra.assignment is None) == (rb.assignment is None)
        if ra.assignment is not None:
            for name in ("matched_gt", "target_deltas", "target_centerness", "target_class",
                         "is_denoising"):
                _assert_same_bytes(getattr(ra.assignment, name), getattr(rb.assignment, name))
            assert ra.assignment.mu == rb.assignment.mu


def _scale_probs(stage):
    edit_column(stage, "class_probs", lambda a: a.__setitem__(0, a[0] * 0.7))


def _centerness_above_one(stage):
    edit_column(stage, "centerness", lambda a: a.__setitem__(0, 1.5))


def _zero_width(stage):
    edit_column(stage, "deltas", lambda a: a.__setitem__((0, 0), -a[0, 1]))


def _one_row_short(stage):
    for key in list(stage):
        edit_column(stage, key, lambda a: a[:-1])


PREDICTION_EDITS = [_scale_probs, _centerness_above_one, _zero_width, _one_row_short]


class TestSceneDocs:
    def test_roundtrip_exact(self):
        scene = gen_scene(CFG, seed=3)
        loaded = scene_from_doc(scene_to_doc(scene))
        assert loaded.gt_boxes == scene.gt_boxes
        for name in ("points", "features", "point_gt_labels"):
            a, b = getattr(loaded, name), getattr(scene, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert loaded.point_gt_labels.dtype == np.int64
        assert loaded.seed == scene.seed
        assert loaded.config == scene.config

    def test_shape_beyond_memory_rejected(self):
        # A stored float cannot exceed the float range; a shape can exceed any buffer.
        doc = scene_to_doc(gen_scene(CFG, seed=3))
        doc["points"]["shape"] = [2**62, 3]
        with pytest.raises(DataError, match=r"points holds \d+ bytes, shape \(4611686018427387904, 3\)"
                                            r" needs 110680464442257309696"):
            scene_from_doc(doc)

    def test_arrays_of_other_lengths_rejected(self):
        doc = scene_to_doc(gen_scene(CFG, seed=3))
        for key in ("points", "features", "point_gt_labels"):
            bad = json.loads(json.dumps(doc))
            edit_column(bad, key, lambda a: a[:10])
            with pytest.raises(DataError, match="differ in length"):
                scene_from_doc(bad)

    @pytest.mark.parametrize("class_id", [5, 99, -1, -3, 1.0, 1.5, True, "2"])
    def test_class_id_outside_config_classes_rejected(self, class_id):
        doc = scene_to_doc(gen_scene(CFG, seed=3))
        doc["gt_boxes"][1]["class_id"] = class_id
        with pytest.raises(DataError, match="class_id"):
            scene_from_doc(doc)
        doc["gt_boxes"][1]["class_id"] = None
        assert scene_from_doc(doc).gt_boxes[1].class_id is None

    @pytest.mark.parametrize("label", [2, -2, 99, -2**63, 2**63 - 1])
    def test_point_label_outside_boxes_rejected(self, label):
        # Non-int labels (0.7, true, "1", null) cannot be stored in an <i8 column;
        # TestColumnObjects rejects a column of another dtype.
        doc = scene_to_doc(gen_scene(CFG, seed=3))
        edit_column(doc, "point_gt_labels", lambda a: a.__setitem__(4, label))
        with pytest.raises(DataError, match=rf"point_gt_labels {label} is not an int in \[-1, 2\)"):
            scene_from_doc(doc)
        edit_column(doc, "point_gt_labels", lambda a: a.__setitem__(4, 1))
        assert scene_from_doc(doc).point_gt_labels[4] == 1

    def test_serialization_stable(self):
        scene = gen_scene(CFG, seed=3)
        once = canonical_dumps(scene_to_doc(scene))
        again = canonical_dumps(scene_to_doc(scene_from_doc(scene_to_doc(scene))))
        assert once == again

    @pytest.mark.parametrize("field, value", [
        ("yaw", float("nan")), ("yaw", float("inf")), ("size", [1.0, float("inf"), 1.0]),
        ("center", [0.5, 0.5, True]), ("yaw", False), ("size", [1.0, True, 1.0]),
        ("center", [0.5, "0", 1.0]),
    ])
    def test_non_finite_box_field_rejected(self, field, value):
        doc = scene_to_doc(gen_scene(CFG, seed=3))
        doc["gt_boxes"][0][field] = value
        with pytest.raises(DataError, match="malformed scene document: .*finite"):
            scene_from_doc(doc)

    def test_unknown_config_key_rejected(self):
        doc = scene_to_doc(gen_scene(CFG, seed=1))
        doc["config"]["mystery"] = 1
        with pytest.raises(DataError):
            scene_from_doc(doc)

    @pytest.mark.parametrize("seed", ["x", 1.5, True, -3, 2**64, None])
    def test_seed_outside_u64_rejected(self, seed):
        doc = scene_to_doc(gen_scene(CFG, seed=1))
        doc["seed"] = seed
        u64 = r"seed .* is not an int in \[0, 18446744073709551616\)"
        with pytest.raises(DataError, match=u64):
            scene_from_doc(doc)
        doc["seed"] = 2**64 - 1
        assert scene_from_doc(doc).seed == 2**64 - 1

    @pytest.mark.parametrize("edit, message", [
        (lambda d: edit_column(d, "features", lambda a: a[:, :15]),
         "features rows are 15 wide, expected 16"),
        # One ragged row cannot be stored; the whole column is 2 wide instead.
        (lambda d: edit_column(d, "points", lambda a: a[:, :2]),
         "points rows are 2 wide, expected 3"),
        (lambda d: edit_column(d, "points", lambda a: a.reshape(-1)),
         r"points has shape \(\d+,\), expected \(None, 3\)"),
        (lambda d: edit_column(d, "points", lambda a: a.__setitem__((0, 0), 1e200)),
         r"point 0 at \[1e\+200, "),
        (lambda d: edit_column(d, "points", lambda a: a.__setitem__((4, 0), 50.0)),
         r"point 4 at \[50\.0, .* outside the workspace \(\(-4\.0, 4\.0\), "),
        (lambda d: edit_column(d, "points", lambda a: a.__setitem__((4, 2), -1e-6)),
         r"point 4 at .* outside the workspace"),
        (lambda d: d["gt_boxes"][1].update(center=[0.0, 0.0, 3.0]),
         r"ground-truth box center 1 at \[0\.0, 0\.0, 3\.0\] lies outside"),
    ])
    def test_scene_disagreeing_with_its_config_rejected(self, edit, message):
        doc = scene_to_doc(gen_scene(CFG, seed=3))
        edit(doc)
        with pytest.raises(DataError, match=f"malformed scene document: .*{message}"):
            scene_from_doc(doc)

    def test_points_on_the_workspace_edge_read(self):
        doc = scene_to_doc(gen_scene(CFG, seed=3))
        edge = [-4.0 - 1e-10, 4.0, 2.6 + 1e-10]
        edit_column(doc, "points", lambda a: a.__setitem__(4, edge))
        assert scene_from_doc(doc).points[4].tolist() == edge

    @pytest.mark.parametrize("edit", [
        {"sigma_feature": float("nan")}, {"sigma_feature": True}, {"num_gt": [1, 2, 3]},
        {"workspace": [[0, float("inf")], [0, 1], [0, 1]]}, {"workspace": [[0, 10**400]] * 3},
    ])
    def test_config_field_outside_its_type_rejected(self, edit):
        doc = scene_to_doc(gen_scene(CFG, seed=1))
        doc["config"].update(edit)
        with pytest.raises(DataError, match="malformed scene document: invalid |must be"):
            scene_from_doc(doc)


class TestTraceDocs:
    def test_roundtrip_preserves_eval_result(self):
        _, trace = _oracle_trace()
        loaded = trace_from_doc(trace_to_doc(trace, scene_seed=7))
        a = cascade_stats([trace])
        b = cascade_stats([loaded])
        assert a.gain_fraction == b.gain_fraction
        assert a.pooled_spearman_rho == b.pooled_spearman_rho
        for sa, sb in zip(a.stages, b.stages):
            assert sa.positives == sb.positives
            assert sa.mu == sb.mu
            assert sa.pairs == sb.pairs

    def test_roundtrip_exact_fields(self):
        _, trace = _oracle_trace()
        _assert_same_records(trace, trace_from_doc(_through_json(trace_to_doc(trace))))

    @pytest.mark.parametrize("predictor", ["oracle", "head"])
    @pytest.mark.parametrize("empty", [False, True], ids=["proposals", "no_proposals"])
    @pytest.mark.parametrize("with_gts", [True, False], ids=["gts", "no_gts"])
    @pytest.mark.parametrize("num_stages", [1, 3, 4])
    @pytest.mark.parametrize("weighting", ["exp_neg_dist", "literal"])
    def test_reader_rebuilds_the_run_records(self, weighting, num_stages, with_gts, empty,
                                             predictor):
        scene = gen_scene(CFG, seed=5)
        noise = OracleNoise(sigma_delta=0.1, sigma_heading=0.1, centerness_bias=0.1)
        props = scene_proposals(scene, oracle_seed_centerness(scene, noise, seed=5), 10,
                                denoising_k=2)
        if empty:
            props = Proposals(props.points[:0], props.features[:0], props.origin_index[:0],
                              props.denoising_gt[:0])
        sched = CpaSchedule(mu_max=0.45, mu_min=0.15, num_stages=num_stages)
        if predictor == "oracle":
            predict = oracle_predictor(scene, noise, seed=5)
        else:
            predict = head_predictors(init_head_params(CFG.feature_dim, CFG.num_classes,
                                                       num_stages, hidden=8, seed=3))
        trace = run_cascade(props, predict, sched, scene.gt_boxes if with_gts else None,
                            weighting=weighting)
        loaded = trace_from_doc(json.loads(canonical_dumps(trace_to_doc(trace))))
        _assert_same_records(trace, loaded)
        if not empty and num_stages > 1:
            # Stage 2's features are votes, not stage 1's features.
            assert not np.array_equal(loaded.stages[1].proposals_in.features, props.features)

    def test_stage_holds_only_inputs_and_predictions(self):
        # Stage 1's proposals and each stage's predictions; the reader derives the rest.
        _, trace = _oracle_trace()
        doc = trace_to_doc(trace, scene_seed=7)
        assert sorted(doc) == ["gts", "kind", "predictions", "proposals", "scene_seed",
                               "schedule", "schema_version", "weighting"]
        assert doc["schedule"] == {"mu_max": 0.4, "mu_min": 0.2, "num_stages": 3}
        assert doc["weighting"] == "exp_neg_dist"
        assert sorted(doc["proposals"]) == ["denoising_gt", "features", "origin_index", "points"]
        pins = decode(doc["proposals"]["denoising_gt"])
        assert pins[-1] >= 0 > pins[0]
        assert doc["proposals"]["denoising_gt"]["dtype"] == "<i8"
        assert doc["proposals"]["points"]["shape"] == [len(pins), 3]
        assert len(doc["predictions"]) == SCHED.num_stages
        for stage in doc["predictions"]:
            assert sorted(stage) == ["centerness", "class_probs", "deltas"]
            assert stage["class_probs"]["shape"] == [len(pins), CFG.num_classes + 1]

    def test_class_less_box_round_trips_as_null(self):
        trace = _class_less_trace()
        doc = trace_to_doc(trace)
        a = trace.stages[0].assignment
        assert (a.target_class[a.matched_gt == 0] == -1).all() and (a.matched_gt == 0).any()
        assert doc["gts"][0]["class_id"] is None
        loaded = trace_from_doc(_through_json(doc))
        assert loaded.gts[0].class_id is None
        _assert_same_records(trace, loaded)
        assert canonical_dumps(trace_to_doc(loaded)) == canonical_dumps(doc)

    def test_empty_stages_read_back(self):
        scene = gen_scene(CFG, seed=7)
        props = scene_proposals(scene, np.zeros(scene.num_points), 4)
        props = replace(props, points=props.points[:0], features=props.features[:0],
                        origin_index=props.origin_index[:0], denoising_gt=props.denoising_gt[:0])
        trace = run_cascade(props, oracle_predictor(scene, OracleNoise(), seed=7), SCHED,
                            gts=scene.gt_boxes)
        doc = _through_json(trace_to_doc(trace))
        loaded = trace_from_doc(doc)
        assert [len(rec.detections) for rec in loaded.stages] == [0, 0, 0]
        assert [rec.assignment.matched_gt.shape for rec in loaded.stages] == [(0,)] * 3
        # Without rows, the class_probs shape still bounds the ground-truth class ids.
        assert doc["predictions"][0]["class_probs"]["shape"] == [0, CFG.num_classes + 1]
        doc["gts"][0]["class_id"] = CFG.num_classes
        with pytest.raises(DataError, match=r"ground-truth class_id 5 is not an int in \[0, 5\)"):
            trace_from_doc(doc)

    @pytest.mark.parametrize("edit", PREDICTION_EDITS)
    def test_predictions_breaking_contract_rejected(self, edit):
        _, trace = _oracle_trace()
        doc = _through_json(trace_to_doc(trace))
        edit(doc["predictions"][1])
        with pytest.raises(DataError, match="predictor contract"):
            trace_from_doc(doc)

    @pytest.mark.parametrize("key,value", [
        ("origin_index", -5), ("origin_index", -1), ("origin_index", -2**63),
        ("denoising_gt", -3), ("denoising_gt", 2), ("denoising_gt", 2**63 - 1),
    ])
    def test_stage_integer_columns_rejected(self, key, value):
        # Non-int values (3.9, true, null, "0") cannot be stored in an <i8 column;
        # TestColumnObjects rejects a column of another dtype.
        _, trace = _oracle_trace()
        doc = _through_json(trace_to_doc(trace))
        edit_column(doc["proposals"], key, lambda a: a.__setitem__(2, value))
        # A denoising proposal is pinned to one of the trace's two boxes.
        bounds = r"\[0, inf\)" if key == "origin_index" else r"\[-1, 2\)"
        with pytest.raises(DataError, match=rf"{key} {value} is not an int in {bounds}"):
            trace_from_doc(doc)
        # Stages hand their integer columns on unchanged.
        edit_column(doc["proposals"], key, lambda a: a.__setitem__(2, 1))
        loaded = trace_from_doc(doc)
        assert [getattr(rec.proposals_in, key)[2] for rec in loaded.stages] == [1, 1, 1]

    @pytest.mark.parametrize("field, value", [
        ("yaw", float("nan")), ("size", [1.0, 1.0, float("-inf")]),
        ("center", [0.5, 0.5, True]), ("yaw", False), ("size", [True, 1.0, 1.0]),
    ])
    def test_non_finite_ground_truth_field_rejected(self, field, value):
        _, trace = _oracle_trace()
        doc = _through_json(trace_to_doc(trace))
        doc["gts"][1][field] = value
        with pytest.raises(DataError, match="malformed trace document: .*finite"):
            trace_from_doc(doc)

    @pytest.mark.parametrize("class_id", [CFG.num_classes, 99, -3, 1.5, 1.0, True, "x"])
    def test_ground_truth_class_id_outside_stage_classes_rejected(self, class_id):
        # The stages' class_probs hold num_classes foreground columns.
        _, trace = _oracle_trace()
        doc = _through_json(trace_to_doc(trace))
        doc["gts"][0]["class_id"] = class_id
        with pytest.raises(DataError, match="malformed trace document: ground-truth class_id"):
            trace_from_doc(doc)
        doc["gts"][0]["class_id"] = CFG.num_classes - 1
        assert trace_from_doc(doc).gts[0].class_id == CFG.num_classes - 1

    @pytest.mark.parametrize("edit, message", [
        ({"mu_max": float("nan")}, "mu_max must be a finite number, got nan"),
        ({"mu_max": True}, "mu_max must be a finite number, got True"),
        ({"mu_max": "0.3"}, "mu_max must be a finite number, got '0.3'"),
        ({"mu_max": 1.5}, r"need 0 < mu_min <= mu_max <= 1, got \(0\.2, 1\.5\)"),
        ({"mu_min": 0.0}, r"need 0 < mu_min <= mu_max <= 1, got \(0\.0, 0\.4\)"),
        ({"mu_min": 0.5}, r"need 0 < mu_min <= mu_max <= 1, got \(0\.5, 0\.4\)"),
        ({"num_stages": 1.5}, "num_stages must be an integer, got 1.5"),
        ({"num_stages": 0}, "need at least one stage, got 0"),
        ({"bogus": 1}, r"unknown schedule keys: \['bogus'\]"),
    ], ids=["mu_max_nan", "mu_max_bool", "mu_max_str", "mu_max_above_1", "mu_min_0",
            "mu_min_above_mu_max", "num_stages_float", "num_stages_0", "unknown_key"])
    def test_bad_schedule_rejected(self, edit, message):
        _, trace = _oracle_trace()
        doc = _through_json(trace_to_doc(trace))
        doc["schedule"].update(edit)
        with pytest.raises(DataError, match=f"malformed trace document: {message}"):
            trace_from_doc(doc)
        doc["schedule"] = {"mu_max": 1, "mu_min": 0.5, "num_stages": 3}
        mus = [rec.mu for rec in trace_from_doc(doc).stages]
        assert mus == [1 - l / 3 * 0.5 for l in (1, 2, 3)]

    @pytest.mark.parametrize("schedule, weighting, message", [
        (None, "exp_neg_dist", "schedule must be a JSON object, got None"),
        ([0.4, 0.2, 3], "exp_neg_dist", "schedule must be a JSON object"),
        ({}, "gauss", "unknown weighting 'gauss', expected one of"),
        ({}, None, "unknown weighting None"),
        ({}, ["literal"], r"unknown weighting \['literal'\]"),
    ], ids=["schedule_null", "schedule_list", "weighting_gauss", "weighting_null",
            "weighting_list"])
    def test_bad_schedule_document_or_weighting_rejected(self, schedule, weighting, message):
        _, trace = _oracle_trace()
        doc = _through_json(trace_to_doc(trace))
        doc.update(schedule=schedule, weighting=weighting)
        with pytest.raises(DataError, match=f"malformed trace document: {message}"):
            trace_from_doc(doc)

    def test_prediction_stage_count_must_match_schedule(self):
        _, trace = _oracle_trace()
        doc = _through_json(trace_to_doc(trace))
        short = dict(doc, predictions=doc["predictions"][:2])
        with pytest.raises(DataError, match="2 stages of predictions for a 3-stage schedule"):
            trace_from_doc(short)
        long = dict(doc, predictions=doc["predictions"] + doc["predictions"][:1])
        with pytest.raises(DataError, match="4 stages of predictions for a 3-stage schedule"):
            trace_from_doc(long)
        with pytest.raises(DataError, match="malformed trace document: 'predictions'"):
            trace_from_doc({k: v for k, v in doc.items() if k != "predictions"})

    def test_malformed_stage_columns_rejected(self):
        _, trace = _oracle_trace()
        doc = json.loads(canonical_dumps(trace_to_doc(trace)))

        def broken(edit):
            bad = json.loads(json.dumps(doc))
            edit(bad)
            return bad

        def nan_point(d):
            edit_column(d["proposals"], "points", lambda a: a.__setitem__((3, 1), np.nan))

        def infinite_feature(d):
            edit_column(d["proposals"], "features", lambda a: a.__setitem__((3, 1), -np.inf))

        def flat_points(d):
            edit_column(d["proposals"], "points", lambda a: a[:, :2])

        def flat_features(d):
            edit_column(d["proposals"], "features", lambda a: a.reshape(-1))

        def short_origin(d):
            edit_column(d["proposals"], "origin_index", lambda a: a[:-1])

        def nan_delta(d):
            edit_column(d["predictions"][1], "deltas", lambda a: a.__setitem__((4, 2), np.nan))

        def short_delta(d):
            edit_column(d["predictions"][2], "deltas", lambda a: a[:, :6])

        def merged_class_probs(d):
            edit_column(d["predictions"][1], "class_probs",
                        lambda a: np.hstack([a[:, :1] + a[:, 1:2], a[:, 2:]]))

        def narrow_first_stage(d):
            edit_column(d["predictions"][0], "class_probs", lambda a: a[:, 1:])

        for edit, message in (
                (nan_point, "points holds non-finite values"),
                (infinite_feature, "features holds non-finite values"),
                (flat_points, "points rows are 2 wide, expected 3"),
                (flat_features, r"features has shape \(224,\), expected \(None, None\)"),
                (short_origin, r"proposal points, features, origin_index and denoising_gt "
                               r"differ in length: \[14, 14, 13, 14\]"),
                (nan_delta, "stage 2 deltas holds non-finite values"),
                (short_delta, "stage 3 deltas rows are 6 wide, expected 7"),
                (merged_class_probs, "stage 2 class_probs rows are 5 wide, expected 6"),
                (narrow_first_stage, "stage 2 class_probs rows are 6 wide, expected 5")):
            with pytest.raises(DataError, match=f"malformed trace document: {message}"):
                trace_from_doc(broken(edit))
        trace_from_doc(doc)

    def test_bytes_stable(self):
        _, trace = _oracle_trace()
        doc = trace_to_doc(trace, scene_seed=7)
        assert canonical_dumps(doc) == canonical_dumps(
            trace_to_doc(trace_from_doc(doc), scene_seed=7)
        )


class TestModelDocs:
    def test_roundtrip_preserves_predictions(self):
        params = init_head_params(16, 5, 3, hidden=8, seed=4)
        loaded = model_from_doc(model_to_doc(params))
        assert loaded.feature_dim == params.feature_dim
        assert loaded.num_classes == params.num_classes
        assert loaded.hidden == params.hidden
        for sa, sb in zip(params.stages, loaded.stages):
            for ba, bb in zip(sa.branches().values(), sb.branches().values()):
                for x, y in zip(ba.arrays(), bb.arrays()):
                    assert np.array_equal(x, y)
        scene = gen_scene(SceneConfig(num_gt=(2, 2), points_per_box=12, num_clutter=20), seed=2)
        prop = scene_proposals(scene, np.zeros(scene.num_points), 1)
        a = head_predictor(params, 2)(prop)
        b = head_predictor(loaded, 2)(prop)
        assert np.array_equal(a.class_probs, b.class_probs)
        assert np.array_equal(a.deltas, b.deltas) and np.array_equal(a.centerness, b.centerness)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.pop("num_stages"), "num_stages"),
        (lambda d: d.update(num_classes=2.0), "num_classes 2.0 is not an int"),
        (lambda d: d.update(feature_dim=0), "feature_dim 0 is not an int in [1, inf)"),
        (lambda d: d.update(stages=5), "not iterable"),
        (lambda d: d["stages"][0].pop("cent"), "cent"),
        (lambda d: edit_column(d["stages"][1]["cls"], "w1", lambda a: a[:-1]),
         "w1 has shape (5, 4), expected (6, 4)"),
        (lambda d: edit_column(d["stages"][0]["cls"], "b1", lambda a: np.append(a, 0.0)),
         "b1 has shape (5,), expected (4,)"),
        (lambda d: edit_column(d["stages"][0]["cls"], "b2", lambda a: a[:-1]),
         "b2 has shape (2,), expected (3,)"),
        (lambda d: edit_column(d["stages"][0]["cent"], "w2", lambda a: [[1.0, 2.0]] * 4),
         "w2 has shape (4, 2), expected (4, 1)"),
        (lambda d: edit_column(d["stages"][0]["reg"], "w2", lambda a: a.__setitem__((1, 0), np.inf)),
         "w2 holds non-finite values"),
        (lambda d: d["stages"][0]["reg"].update(b1="abcd"), "b1 is not a column object"),
        # A stored float cannot exceed the float range; a list of numbers is no column.
        (lambda d: d["stages"][0]["reg"].update(b1=[10**400] * 4), "b1 is not a column object"),
        (lambda d: d["stages"][0]["reg"].update(b1=dict(d["stages"][0]["reg"]["b1"], dtype="<i8")),
         "b1 dtype '<i8' is not '<f8'"),
    ])
    def test_malformed_model_rejected(self, edit, message):
        doc = json.loads(json.dumps(model_to_doc(init_head_params(6, 2, 2, hidden=4, seed=0))))
        edit(doc)
        with pytest.raises(DataError, match="malformed model document") as info:
            model_from_doc(doc)
        assert message in str(info.value)

    def test_stage_count_mismatch_rejected(self):
        doc = model_to_doc(init_head_params(6, 2, 2, hidden=4, seed=0))
        doc["num_stages"] = 3
        with pytest.raises(DataError):
            model_from_doc(doc)


class TestApDocs:
    def test_roundtrip(self):
        scene, trace = _oracle_trace(sigma=0.0)
        dets = trace.stages[-1].detections.rows(trace.num_stages)
        res = evaluate_scenes([(dets, scene.gt_boxes)], [0.25, 0.5])
        loaded = ap_from_doc(ap_to_doc(res))
        for ra, rb in zip(res.results, loaded.results):
            assert ra.iou_threshold == rb.iou_threshold
            assert ra.mean_ap == rb.mean_ap
            assert ra.ap_per_class == rb.ap_per_class
            assert ra.pr_curves == rb.pr_curves


class TestSchemaEnvelope:
    def test_major_version_mismatch_rejected(self):
        doc = scene_to_doc(gen_scene(CFG, seed=1))
        for version in ("1.1", "2.0", "4.0"):
            doc["schema_version"] = version
            with pytest.raises(SchemaVersionError, match=f"version '{version}'"):
                scene_from_doc(doc)

    def test_minor_version_accepted(self):
        doc = scene_to_doc(gen_scene(CFG, seed=1))
        doc["schema_version"] = SCHEMA_VERSION.split(".")[0] + ".9"
        scene_from_doc(doc)

    def test_missing_or_malformed_version(self):
        with pytest.raises(DataError):
            check_schema({"kind": "scene"}, "scene")
        with pytest.raises(DataError):
            check_schema({"kind": "scene", "schema_version": "banana"}, "scene")

    def test_wrong_kind_rejected(self):
        doc = scene_to_doc(gen_scene(CFG, seed=1))
        with pytest.raises(DataError):
            trace_from_doc(doc)

    def test_config_hash_order_independent(self):
        a = config_hash({"a": 1, "b": [2, 3]})
        b = config_hash({"b": [2, 3], "a": 1})
        assert a == b
        assert a != config_hash({"a": 1, "b": [2, 4]})

    def test_file_io(self, tmp_path):
        scene = gen_scene(CFG, seed=6)
        path = tmp_path / "scene.json"
        write_json(path, scene_to_doc(scene))
        doc = read_json(path, "scene")
        assert np.array_equal(scene_from_doc(doc).points, scene.points)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(DataError):
            read_json(bad, "scene")
        with pytest.raises(DataError):
            read_json(tmp_path / "absent.json", "scene")


def _small_model():
    return init_head_params(6, 2, 2, hidden=4, seed=0)


def _ap_result():
    scene, trace = _oracle_trace(sigma=0.2)
    return evaluate_scenes([(trace.stages[-1].detections.rows(3), scene.gt_boxes)], [0.25, 0.5])


class TestLayouts:
    def test_dumps_are_compact_sorted_and_newline_terminated(self):
        text = canonical_dumps({"b": [1.5, {"d": None, "c": 0.1}], "a": "x y"})
        assert text == '{"a":"x y","b":[1.5,{"c":0.1,"d":null}]}\n'
        assert SCHEMA_VERSION == "3.0"

    @pytest.mark.parametrize("version", ["1.0", "1.1", "2.0"])
    @pytest.mark.parametrize("kind, to_doc, from_doc, make", [
        ("scene", scene_to_doc, scene_from_doc, lambda: gen_scene(CFG, seed=3)),
        ("trace", trace_to_doc, trace_from_doc, lambda: _oracle_trace(sigma=0.2)[1]),
        ("model", model_to_doc, model_from_doc, _small_model),
        ("ap", ap_to_doc, ap_from_doc, _ap_result),
    ], ids=["scene", "trace", "model", "ap"])
    def test_older_major_file_is_rejected(self, tmp_path, kind, to_doc, from_doc, make,
                                          version):
        # 1.x and 2.x stored array columns as nested lists; 3.0 names the break, and
        # regenerating an older artifact gives its current file.
        path = tmp_path / "old.json"
        write_json(path, {**as_lists(to_doc(make())), "schema_version": version})
        with pytest.raises(SchemaVersionError,
                           match=rf"unsupported major schema version '{version}' "
                                 rf"\(reader supports 3\.0\)"):
            from_doc(read_json(path, kind))


class TestDetectionDocs:
    def test_box_entry_carries_the_detection_score(self):
        box = OrientedBox(Point3(0.5, -1.0, 0.25), (1.0, 2.0, 0.5), yaw=0.125, class_id=3)
        doc = detection_doc(Detection(box, 0.75, 3, stage=2))
        assert canonical_dumps(doc) == (
            '{"box":{"center":[0.5,-1.0,0.25],"class_id":3,"size":[1.0,2.0,0.5],"yaw":0.125},'
            '"class_id":3,"score":0.75,"stage":2}\n')

    def test_ground_truth_box_score_is_ignored(self):
        doc = scene_to_doc(gen_scene(CFG, seed=3))
        assert "score" not in doc["gt_boxes"][0]
        doc["gt_boxes"][0]["score"] = 0.5
        assert scene_from_doc(doc).gt_boxes == gen_scene(CFG, seed=3).gt_boxes


class TestCsv:
    def test_stats_csv_shape_and_columns(self):
        traces = [_oracle_trace(seed=s)[1] for s in (1, 2)]
        text = stats_csv(cascade_stats(traces))
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(STATS_CSV_COLUMNS)
        assert len(lines) == 1 + SCHED.num_stages
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == len(STATS_CSV_COLUMNS)
            int(cells[0])
            float(cells[1])
            int(cells[2])
            for c in cells[3:]:
                float(c)

    def test_loss_csv_layout(self):
        scenes = [gen_scene(CFG, seed=s) for s in range(2)]
        _, history = train_cascade(scenes, SCHED, 4, 1e-2, 0, b=8, denoising_k=1)
        text = loss_csv(history, SCHED.num_stages)
        lines = text.strip().split("\n")
        assert len(lines) == 1 + 4
        header = lines[0].split(",")
        assert header[0] == "step"
        assert len(header) == 1 + 5 * SCHED.num_stages
        assert header[1:6] == ["cls_s1", "reg_s1", "cent_s1", "total_s1", "positives_s1"]
        for line in lines[1:]:
            assert len(line.split(",")) == len(header)

    def test_loss_csv_missing_stage_rejected(self):
        rep = LossReport(0, 1, 1.0, 1.0, 1.0, 2)
        with pytest.raises(DataError):
            loss_csv([rep], 2)


FLOAT_COLUMNS = arrays(np.float64, array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6),
                       elements=st.floats(allow_nan=False, allow_infinity=False))
INT_COLUMNS = arrays(np.int64, array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6),
                     elements=st.integers(-2**63, 2**63 - 1))
EDGE_FLOATS = np.array([-0.0, 0.0, 5e-324, -5e-324, 1.1125369292536007e-308,
                        1.7976931348623157e308, -1.7976931348623157e308])


def _read_column(a, dtype):
    return _column(_through_json(_column_doc(a)), "x", dtype, (None,) * a.ndim)


class TestColumnRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(FLOAT_COLUMNS)
    @example(EDGE_FLOATS)
    @example(EDGE_FLOATS.reshape(7, 1))
    @example(np.zeros((0, 16)))
    def test_float_column_is_bit_exact(self, a):
        back = _read_column(a, "<f8")
        assert back.dtype == np.float64 and back.shape == a.shape
        assert back.tobytes() == a.tobytes()
        assert back.flags.owndata and back.flags.writeable

    @settings(max_examples=200, deadline=None)
    @given(INT_COLUMNS)
    @example(np.array([-2**63, -1, 0, 2**63 - 1]))
    def test_int_column_is_exact(self, a):
        back = _read_column(a, "<i8")
        assert back.dtype == np.int64 and back.shape == a.shape
        assert np.array_equal(back, a)
        assert back.flags.owndata and back.flags.writeable

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(FLOAT_COLUMNS, INT_COLUMNS))
    def test_written_bytes_do_not_depend_on_memory_order(self, a):
        want = _column_doc(np.ascontiguousarray(a))
        strided = np.empty(a.shape[:-1] + (2 * a.shape[-1],), dtype=a.dtype)[..., ::2]
        strided[...] = a
        assert _column_doc(np.asfortranarray(a)) == want
        assert _column_doc(strided) == want
        assert _column_doc(a.astype(a.dtype.newbyteorder(">"))) == want

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_artifact_readers_give_back_equal_arrays(self, seed):
        scene, trace = _oracle_trace(seed=seed, sigma=0.1)
        loaded = scene_from_doc(_through_json(scene_to_doc(scene)))
        for name in ("points", "features", "point_gt_labels"):
            assert np.array_equal(getattr(loaded, name), getattr(scene, name))
        back = trace_from_doc(_through_json(trace_to_doc(trace)))
        for ra, rb in zip(trace.stages, back.stages):
            for name in ("points", "features", "origin_index", "denoising_gt"):
                assert np.array_equal(getattr(ra.proposals_in, name), getattr(rb.proposals_in, name))
            for name in ("class_probs", "deltas", "centerness"):
                assert np.array_equal(getattr(ra.predictions, name), getattr(rb.predictions, name))
        params = init_head_params(6, 2, 2, hidden=4, seed=seed)
        model = model_from_doc(_through_json(model_to_doc(params)))
        for sa, sb in zip(params.stages, model.stages):
            for ba, bb in zip(sa.branches().values(), sb.branches().values()):
                assert all(np.array_equal(x, y) for x, y in zip(ba.arrays(), bb.arrays()))


def _as_json_list(col):
    """The 2.x form of col, its first two numbers written as a JSON string and a boolean."""
    values = decode(col).tolist()
    first = values[0] if isinstance(values[0], list) else values
    first[:2] = ["0.5", True]
    return values


def _first_infinite(col):
    a = decode(col).astype(np.float64)
    a.flat[0] = np.inf
    return encode(a, "<f8")


COLUMN_EDITS = {
    "json_list": (_as_json_list, "is not a column object"),
    "extra_key": (lambda c: dict(c, order="F"), "is not a column object"),
    "dtype_f4": (lambda c: dict(c, dtype="<f4"), "dtype '<f4' is not"),
    "dtype_big_endian": (lambda c: dict(c, dtype=">f8"), "dtype '>f8' is not"),
    "shape_bool": (lambda c: dict(c, shape=[True] + c["shape"][1:]), r"shape \[True"),
    "shape_negative": (lambda c: dict(c, shape=[-1] + c["shape"][1:]), r"shape \[-1"),
    "shape_float": (lambda c: dict(c, shape=[float(c["shape"][0])] + c["shape"][1:]),
                    r"shape \[\d+\.0"),
    "byte_length": (lambda c: dict(c, shape=[c["shape"][0] + 1] + c["shape"][1:]),
                    r"holds \d+ bytes, shape \(\d+.*\) needs \d+"),
    "non_base64": (lambda c: dict(c, base64=c["base64"][:4] + "*" + c["base64"][4:]),
                   "is not valid base64"),
    # An int column can hold inf only by turning into floats, which its dtype check rejects.
    "non_finite": (_first_infinite, "holds non-finite values|dtype '<f8' is not '<i8'"),
}
# The artifact kind, the command that reads it, the path to the column and the
# name the message gives it.
COLUMN_TARGETS = {
    "scene_points": ("scene", "run", ("points",), "points"),
    "scene_labels": ("scene", "run", ("point_gt_labels",), "point_gt_labels"),
    "trace_features": ("trace", "eval", ("proposals", "features"), "features"),
    "trace_centerness": ("trace", "eval", ("predictions", 1, "centerness"), "stage 2 centerness"),
}


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """A config and the scene and trace directories cascadev writes for it."""
    root = tmp_path_factory.mktemp("columns")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"num_scenes": 1, "b": 12, "scene": {
        "num_gt": [2, 2], "points_per_box": 12, "num_clutter": 30}}))
    dirs = {"scene": root / "scenes", "trace": root / "traces"}
    assert main(["gen", "--config", str(cfg), "--out", str(dirs["scene"])]) == 0
    assert main(["run", str(dirs["scene"]), "--config", str(cfg), "--out", str(dirs["trace"])]) == 0
    return cfg, dirs


class TestColumnObjects:
    """A column that is not a well-formed column object is a data error (exit 3) naming it."""

    @pytest.mark.parametrize("edit", COLUMN_EDITS)
    @pytest.mark.parametrize("target", COLUMN_TARGETS)
    def test_malformed_column_is_data_error(self, tmp_path, written, capsys, target, edit):
        kind, command, path, name = COLUMN_TARGETS[target]
        change, message = COLUMN_EDITS[edit]
        cfg, dirs = written
        folder = tmp_path / kind
        shutil.copytree(dirs[kind], folder)
        file = folder / f"{kind}_0000.json"
        doc = json.loads(file.read_text())
        holder = doc
        for step in path[:-1]:
            holder = holder[step]
        holder[path[-1]] = change(holder[path[-1]])
        file.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main([command, str(folder), "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: malformed {kind} document: {name} "), err
        assert re.search(message, err), err
        assert err.count(file.name) == 1
