import json
from dataclasses import replace

import numpy as np
import pytest

from cascadev.assignment import CpaSchedule
from cascadev.cascade import run_cascade
from cascadev.errors import DataError, SchemaVersionError
from cascadev.evaluation import cascade_stats, evaluate_scenes
from cascadev.formats import (
    SCHEMA_VERSION,
    STATS_CSV_COLUMNS,
    _box_doc,
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
from cascadev.learner import LossReport, head_predictor, init_head_params, train_cascade
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
        denoising=True,
    )
    pred = oracle_predictor(scene, noise, seed=seed)
    return scene, run_cascade(props, pred, SCHED, gts=scene.gt_boxes)


def _class_less_trace():
    """A trace whose first ground truth has no class id."""
    scene = gen_scene(CFG, seed=7)
    gts = [replace(scene.gt_boxes[0], class_id=None)] + scene.gt_boxes[1:]
    props = scene_proposals(scene, np.zeros(scene.num_points), 12, denoising=True)
    pred = oracle_predictor(scene, OracleNoise(), seed=7)
    return run_cascade(props, pred, SCHED, gts=gts)


def _through_json(doc):
    return json.loads(canonical_dumps(doc))


def _assert_same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _assert_same_records(trace, loaded):
    """Arrays bytewise, detection columns bytewise and their rows with ==,
    assignment columns bytewise."""
    assert loaded.gts == trace.gts
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
        for name in ("matched_gt", "target_deltas", "target_centerness", "target_class",
                     "is_denoising"):
            _assert_same_bytes(getattr(ra.assignment, name), getattr(rb.assignment, name))
        assert ra.assignment.mu == rb.assignment.mu


def _assignment_doc_v1_0(a):
    matched = (a.matched_gt >= 0).tolist()
    return {
        "mu": a.mu,
        "matched_gt": a.matched_gt.tolist(),
        "target_deltas": [d if m else None for m, d in zip(matched, a.target_deltas.tolist())],
        "target_centerness": [c if m else None
                              for m, c in zip(matched, a.target_centerness.tolist())],
        "target_class": [None if c < 0 else c for c in a.target_class.tolist()],
        "is_denoising": a.is_denoising.tolist(),
    }


def _stage_doc_v1_0(rec):
    """The first 1.0 stage layout, which also stored every derived value:
    moved points, assignment, detections, and per-row is_denoising and
    heading copies."""
    props, preds = rec.proposals_in, rec.predictions
    deltas = preds.deltas.tolist()
    return {
        "stage": rec.stage,
        "mu": rec.mu,
        "proposals_in": [
            {"point": p, "feature": f, "origin_index": o, "is_denoising": g >= 0,
             "denoising_gt": None if g < 0 else g}
            for p, f, o, g in zip(props.points.tolist(), props.features.tolist(),
                                  props.origin_index.tolist(), props.denoising_gt.tolist())
        ],
        "predictions": [
            {"class_probs": p, "deltas": d, "heading": d[6], "centerness": c}
            for p, d, c in zip(preds.class_probs.tolist(), deltas, preds.centerness.tolist())
        ],
        "updated_points": rec.detections.centers.tolist(),
        "assignment": None if rec.assignment is None else _assignment_doc_v1_0(rec.assignment),
        "detections": [detection_doc(d) for d in rec.detections.rows(rec.stage)],
    }


def _trace_doc_v1_0(trace):
    return {"kind": "trace", "schema_version": "1.0",
            "gts": [_box_doc(b) for b in trace.gts],
            "stages": [_stage_doc_v1_0(rec) for rec in trace.stages]}


def _scale_probs(rows):
    rows[0]["class_probs"] = [p * 0.7 for p in rows[0]["class_probs"]]


def _centerness_above_one(rows):
    rows[0]["centerness"] = 1.5


def _zero_width(rows):
    rows[0]["deltas"][0] = -rows[0]["deltas"][1]


def _one_row_short(rows):
    rows.pop()


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

    @pytest.mark.parametrize("class_id", [5, -1, 1.0, True, "2"])
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

    @pytest.mark.parametrize("make", [lambda: _oracle_trace(sigma=0.2)[1], _class_less_trace])
    def test_v1_0_layout_reads_to_same_records(self, make):
        trace = make()
        doc = _through_json(_trace_doc_v1_0(trace))
        assert doc["stages"][0]["assignment"] is not None
        _assert_same_records(trace, trace_from_doc(doc))

    def test_stage_holds_only_inputs_and_predictions(self):
        _, trace = _oracle_trace()
        for rec in trace_to_doc(trace)["stages"]:
            assert sorted(rec) == ["mu", "predictions", "proposals_in", "stage"]
            assert sorted(rec["proposals_in"][0]) == [
                "denoising_gt", "feature", "origin_index", "point"]
            assert sorted(rec["predictions"][0]) == ["centerness", "class_probs", "deltas"]

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
        edit(doc["stages"][1]["predictions"])
        with pytest.raises(DataError, match="predictor contract"):
            trace_from_doc(doc)

    @pytest.mark.parametrize("key,value", [
        ("origin_index", 3.9), ("origin_index", -5), ("origin_index", True),
        ("origin_index", None), ("denoising_gt", 0.7), ("denoising_gt", -3),
        ("denoising_gt", -1), ("denoising_gt", True), ("denoising_gt", "0"),
    ])
    def test_stage_integer_columns_rejected(self, key, value):
        _, trace = _oracle_trace()
        doc = _through_json(trace_to_doc(trace))
        doc["stages"][1]["proposals_in"][2][key] = value
        with pytest.raises(DataError, match=rf"{key} .* is not an int in \[0, inf\)"):
            trace_from_doc(doc)
        doc["stages"][1]["proposals_in"][2][key] = 1
        assert getattr(trace_from_doc(doc).stages[1].proposals_in, key)[2] == 1

    @pytest.mark.parametrize("field, value", [
        ("yaw", float("nan")), ("size", [1.0, 1.0, float("-inf")]),
    ])
    def test_non_finite_ground_truth_field_rejected(self, field, value):
        _, trace = _oracle_trace()
        doc = _through_json(trace_to_doc(trace))
        doc["gts"][1][field] = value
        with pytest.raises(DataError, match="malformed trace document: .*finite"):
            trace_from_doc(doc)

    @pytest.mark.parametrize("stage, key, value, message", [
        (0, "mu", float("nan"), r"mu nan is not a number in \(0, 1\]"),
        (1, "mu", 0.0, r"mu 0\.0 is not"),
        (1, "mu", 1.5, r"mu 1\.5 is not"),
        (2, "mu", None, r"mu None is not"),
        (0, "mu", True, r"mu True is not"),
        (0, "mu", "0.3", r"mu '0\.3' is not"),
        (1, "stage", "x", r"stage 'x' is not an int in \[2, 3\)"),
        (1, "stage", 1.5, r"stage 1\.5 is not an int in \[2, 3\)"),
        (1, "stage", 1, r"stage 1 is not an int in \[2, 3\)"),
        (2, "stage", True, r"stage True is not an int in \[3, 4\)"),
    ])
    def test_stage_number_and_mu_rejected(self, stage, key, value, message):
        _, trace = _oracle_trace()
        doc = _through_json(trace_to_doc(trace))
        doc["stages"][stage][key] = value
        with pytest.raises(DataError, match=message):
            trace_from_doc(doc)
        doc["stages"][stage][key] = 1 if key == "mu" else stage + 1
        assert trace_from_doc(doc).stages[stage].assignment.mu == doc["stages"][stage]["mu"]

    def test_mu_without_ground_truth_rejected(self):
        scene = gen_scene(CFG, seed=7)
        props = scene_proposals(scene, np.zeros(scene.num_points), 8)
        trace = run_cascade(props, oracle_predictor(scene, OracleNoise(), seed=7), SCHED)
        doc = _through_json(trace_to_doc(trace))
        assert [rec.mu for rec in trace_from_doc(doc).stages] == [None] * SCHED.num_stages
        doc["stages"][0]["mu"] = 0.3
        with pytest.raises(DataError, match="mu 0.3 in a trace without ground truth"):
            trace_from_doc(doc)

    def test_malformed_stage_columns_rejected(self):
        _, trace = _oracle_trace()
        doc = json.loads(canonical_dumps(trace_to_doc(trace)))

        def broken(edit):
            bad = json.loads(json.dumps(doc))
            edit(bad["stages"][1])
            return bad

        def nan_point(rec):
            rec["proposals_in"][3]["point"][1] = float("nan")

        def ragged_features(rec):
            rec["proposals_in"][2]["feature"].pop()

        def huge_point(rec):
            rec["proposals_in"][3]["point"][1] = 10**400

        for edit in (nan_point, ragged_features, huge_point):
            with pytest.raises(DataError):
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
        doc["schema_version"] = "2.0"
        with pytest.raises(SchemaVersionError):
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


def _v1_0_file(doc) -> str:
    """doc as a 1.0 writer laid it out: two-space indent, schema_version 1.0."""
    return json.dumps({**doc, "schema_version": "1.0"}, sort_keys=True, indent=2) + "\n"


def _small_model():
    return init_head_params(6, 2, 2, hidden=4, seed=0)


def _ap_result():
    scene, trace = _oracle_trace(sigma=0.2)
    return evaluate_scenes([(trace.stages[-1].detections.rows(3), scene.gt_boxes)], [0.25, 0.5])


class TestLayouts:
    def test_dumps_are_compact_sorted_and_newline_terminated(self):
        text = canonical_dumps({"b": [1.5, {"d": None, "c": 0.1}], "a": "x y"})
        assert text == '{"a":"x y","b":[1.5,{"c":0.1,"d":null}]}\n'
        assert SCHEMA_VERSION == "1.1"

    @pytest.mark.parametrize("kind, to_doc, from_doc, make", [
        ("scene", scene_to_doc, scene_from_doc, lambda: gen_scene(CFG, seed=3)),
        ("trace", trace_to_doc, trace_from_doc, lambda: _oracle_trace(sigma=0.2)[1]),
        ("model", model_to_doc, model_from_doc, _small_model),
        ("ap", ap_to_doc, ap_from_doc, _ap_result),
    ])
    def test_v1_0_file_reads_to_same_object(self, tmp_path, kind, to_doc, from_doc, make):
        doc = to_doc(make())
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_text(_v1_0_file(doc))
        write_json(new, doc)
        assert old.stat().st_size > new.stat().st_size
        from_old = from_doc(read_json(old, kind))
        from_new = from_doc(read_json(new, kind))
        assert canonical_dumps(to_doc(from_old)) == canonical_dumps(to_doc(from_new))
        if kind == "trace":
            _assert_same_records(from_new, from_old)


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
