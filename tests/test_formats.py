import json
from dataclasses import replace

import numpy as np
import pytest

from cascadev.assignment import CpaSchedule
from cascadev.cascade import Proposals, run_cascade
from cascadev.errors import DataError, SchemaVersionError
from cascadev.evaluation import cascade_stats, evaluate_scenes
from cascadev.formats import (
    SCHEMA_VERSION,
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
    stage["class_probs"][0] = [p * 0.7 for p in stage["class_probs"][0]]


def _centerness_above_one(stage):
    stage["centerness"][0] = 1.5


def _zero_width(stage):
    stage["deltas"][0][0] = -stage["deltas"][0][1]


def _one_row_short(stage):
    for column in stage.values():
        column.pop()


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

    def test_number_beyond_float_range_rejected(self):
        doc = scene_to_doc(gen_scene(CFG, seed=3))
        doc["points"][2][0] = 10**400
        with pytest.raises(DataError, match="too large"):
            scene_from_doc(doc)

    def test_arrays_of_other_lengths_rejected(self):
        doc = scene_to_doc(gen_scene(CFG, seed=3))
        for key in ("points", "features", "point_gt_labels"):
            bad = json.loads(json.dumps(doc))
            bad[key] = bad[key][:10]
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

    @pytest.mark.parametrize("label", [0.7, True, 2, -2, "1", None])
    def test_point_label_outside_boxes_rejected(self, label):
        doc = scene_to_doc(gen_scene(CFG, seed=3))
        doc["point_gt_labels"][4] = label
        with pytest.raises(DataError, match=r"point_gt_label .* is not an int in \[-1, 2\)"):
            scene_from_doc(doc)
        doc["point_gt_labels"][4] = 1
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
        (lambda d: d.update(features=[f[:15] for f in d["features"]]),
         "features rows are 15 wide, expected 16"),
        (lambda d: d["points"][6].pop(), "points rows are 2 wide, expected 3"),
        (lambda d: d["points"][0].__setitem__(0, 1e200), r"point 0 at \[1e\+200, "),
        (lambda d: d["points"][4].__setitem__(0, 50.0), r"point 4 at \[50\.0, .* outside the "
                                                         r"workspace \(\(-4\.0, 4\.0\), "),
        (lambda d: d["points"][4].__setitem__(2, -1e-6), r"point 4 at .* outside the workspace"),
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
        doc["points"][4] = [-4.0 - 1e-10, 4.0, 2.6 + 1e-10]
        assert scene_from_doc(doc).points[4].tolist() == doc["points"][4]

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
        assert doc["proposals"]["denoising_gt"][-1] >= 0 > doc["proposals"]["denoising_gt"][0]
        assert len(doc["predictions"]) == SCHED.num_stages
        for stage in doc["predictions"]:
            assert sorted(stage) == ["centerness", "class_probs", "deltas"]

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
        loaded = trace_from_doc(_through_json(trace_to_doc(trace)))
        assert [len(rec.detections) for rec in loaded.stages] == [0, 0, 0]
        assert [rec.assignment.matched_gt.shape for rec in loaded.stages] == [(0,)] * 3

    @pytest.mark.parametrize("edit", PREDICTION_EDITS)
    def test_predictions_breaking_contract_rejected(self, edit):
        _, trace = _oracle_trace()
        doc = _through_json(trace_to_doc(trace))
        edit(doc["predictions"][1])
        with pytest.raises(DataError, match="predictor contract"):
            trace_from_doc(doc)

    @pytest.mark.parametrize("key,value", [
        ("origin_index", 3.9), ("origin_index", -5), ("origin_index", True),
        ("origin_index", None), ("denoising_gt", 0.7), ("denoising_gt", -3),
        ("denoising_gt", 2), ("denoising_gt", True), ("denoising_gt", "0"),
    ])
    def test_stage_integer_columns_rejected(self, key, value):
        _, trace = _oracle_trace()
        doc = _through_json(trace_to_doc(trace))
        doc["proposals"][key][2] = value
        # A denoising proposal is pinned to one of the trace's two boxes.
        bounds = r"\[0, inf\)" if key == "origin_index" else r"\[-1, 2\)"
        with pytest.raises(DataError, match=rf"{key} .* is not an int in {bounds}"):
            trace_from_doc(doc)
        # Stages hand their integer columns on unchanged.
        doc["proposals"][key][2] = 1
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
            d["proposals"]["points"][3][1] = float("nan")

        def huge_point(d):
            d["proposals"]["points"][3][1] = 10**400

        def flat_points(d):
            d["proposals"]["points"] = [p[:2] for p in d["proposals"]["points"]]

        def ragged_features(d):
            d["proposals"]["features"][2].pop()

        def short_origin(d):
            d["proposals"]["origin_index"].pop()

        def nan_delta(d):
            d["predictions"][1]["deltas"][4][2] = float("nan")

        def short_delta(d):
            d["predictions"][2]["deltas"][5].pop()

        def merged_class_probs(d):
            d["predictions"][1]["class_probs"] = [[p[0] + p[1]] + p[2:]
                                                  for p in d["predictions"][1]["class_probs"]]

        def narrow_first_row(d):
            d["predictions"][0]["class_probs"][0].pop()

        for edit, message in (
                (nan_point, "points hold non-finite values"),
                (huge_point, "int too large to convert to float"),
                (flat_points, "points rows are 2 wide, expected 3"),
                (ragged_features, "features rows are 15 wide, expected 16"),
                (short_origin, r"proposal points, features, origin_index and denoising_gt "
                               r"differ in length: \[14, 14, 13, 14\]"),
                (nan_delta, "stage 2 deltas hold non-finite values"),
                (short_delta, "stage 3 deltas rows are 6 wide, expected 7"),
                (merged_class_probs, "stage 2 class_probs rows are 5 wide, expected 6"),
                (narrow_first_row, "stage 1 class_probs rows are 6 wide, expected 5")):
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
        (lambda d: d["stages"][1]["cls"]["w1"].pop(), "w1 has shape (5, 4), expected (6, 4)"),
        (lambda d: d["stages"][0]["cls"]["b1"].append(0.0), "b1 has shape (5,), expected (4,)"),
        (lambda d: d["stages"][0]["cls"]["b2"].pop(), "b2 has shape (2,), expected (3,)"),
        (lambda d: d["stages"][0]["cent"].update(w2=[[1.0, 2.0]] * 4),
         "w2 has shape (4, 2), expected (4, 1)"),
        (lambda d: d["stages"][0]["reg"]["w2"][1].__setitem__(0, float("inf")),
         "w2 holds non-finite values"),
        (lambda d: d["stages"][0]["reg"].update(b1="abcd"), "could not convert"),
        (lambda d: d["stages"][0]["reg"].update(b1=[10**400] * 4), "too large"),
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
        for version in ("1.1", "3.0"):
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
        assert SCHEMA_VERSION == "2.0"

    @pytest.mark.parametrize("version", ["1.0", "1.1"])
    @pytest.mark.parametrize("kind, to_doc, from_doc, make", [
        ("scene", scene_to_doc, scene_from_doc, lambda: gen_scene(CFG, seed=3)),
        ("trace", trace_to_doc, trace_from_doc, lambda: _oracle_trace(sigma=0.2)[1]),
        ("model", model_to_doc, model_from_doc, _small_model),
        ("ap", ap_to_doc, ap_from_doc, _ap_result),
    ], ids=["scene", "trace", "model", "ap"])
    def test_v1_file_is_rejected(self, tmp_path, kind, to_doc, from_doc, make, version):
        # 2.0 names the break; regenerating a 1.x artifact gives its 2.0 file.
        path = tmp_path / "old.json"
        write_json(path, {**to_doc(make()), "schema_version": version})
        with pytest.raises(SchemaVersionError,
                           match=f"unsupported major schema version '{version}'"):
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
