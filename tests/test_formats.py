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
    ap_from_doc,
    ap_to_doc,
    canonical_dumps,
    check_schema,
    config_hash,
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

    def test_serialization_stable(self):
        scene = gen_scene(CFG, seed=3)
        once = canonical_dumps(scene_to_doc(scene))
        again = canonical_dumps(scene_to_doc(scene_from_doc(scene_to_doc(scene))))
        assert once == again

    def test_unknown_config_key_rejected(self):
        doc = scene_to_doc(gen_scene(CFG, seed=1))
        doc["config"]["mystery"] = 1
        with pytest.raises(DataError):
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
        loaded = trace_from_doc(trace_to_doc(trace))
        assert loaded.gts == trace.gts
        assert loaded.num_stages == trace.num_stages
        for ra, rb in zip(trace.stages, loaded.stages):
            assert ra.stage == rb.stage and ra.mu == rb.mu
            assert np.array_equal(ra.updated_points, rb.updated_points)
            assert ra.detections == rb.detections
            for name in ("points", "features", "origin_index", "denoising_gt"):
                assert np.array_equal(getattr(ra.proposals_in, name),
                                      getattr(rb.proposals_in, name))
            for name in ("class_probs", "deltas", "centerness"):
                assert np.array_equal(getattr(ra.predictions, name), getattr(rb.predictions, name))
            for name in ("matched_gt", "target_deltas", "target_centerness", "target_class",
                         "is_denoising"):
                a, b = getattr(ra.assignment, name), getattr(rb.assignment, name)
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
            assert ra.assignment.mu == rb.assignment.mu

    def test_class_less_box_round_trips_as_null(self):
        scene = gen_scene(CFG, seed=7)
        gts = [replace(scene.gt_boxes[0], class_id=None)] + scene.gt_boxes[1:]
        props = scene_proposals(scene, np.zeros(scene.num_points), 12, denoising=True)
        pred = oracle_predictor(scene, OracleNoise(), seed=7)
        trace = run_cascade(props, pred, SCHED, gts=gts)
        doc = trace_to_doc(trace)
        a = trace.stages[0].assignment
        rows = doc["stages"][0]["assignment"]
        assert (a.target_class[a.matched_gt == 0] == -1).all() and (a.matched_gt == 0).any()
        assert [c is None for c in rows["target_class"]] == (a.target_class < 0).tolist()
        loaded = trace_from_doc(doc)
        assert np.array_equal(loaded.stages[0].assignment.target_class, a.target_class)
        assert canonical_dumps(trace_to_doc(loaded)) == canonical_dumps(doc)

    def test_malformed_assignment_columns_rejected(self):
        _, trace = _oracle_trace()
        doc = json.loads(canonical_dumps(trace_to_doc(trace)))
        # Stage 1 holds both kinds of row: only its denoising proposals match.
        a = doc["stages"][0]["assignment"]
        pos = a["matched_gt"].index(next(g for g in a["matched_gt"] if g >= 0))
        neg = a["matched_gt"].index(-1)

        def broken(edit):
            bad = json.loads(json.dumps(doc))
            edit(bad["stages"][0]["assignment"])
            return bad

        def null_delta_on_positive(rec):
            rec["target_deltas"][pos] = None

        def centerness_on_negative(rec):
            rec["target_centerness"][neg] = 0.5

        def class_on_negative(rec):
            rec["target_class"][neg] = 1

        def unmatched_positive(rec):
            rec["matched_gt"][pos] = -1

        def short_column(rec):
            rec["is_denoising"].pop()

        def long_column(rec):
            rec["target_class"].append(None)

        def nan_delta(rec):
            rec["target_deltas"][pos][2] = float("nan")

        def infinite_centerness(rec):
            rec["target_centerness"][pos] = float("inf")

        def short_delta_row(rec):
            rec["target_deltas"][pos].pop()

        for edit in (null_delta_on_positive, centerness_on_negative, class_on_negative,
                     unmatched_positive, short_column, long_column, nan_delta,
                     infinite_centerness, short_delta_row):
            with pytest.raises(DataError):
                trace_from_doc(broken(edit))
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

        def disagreeing_pin(rec):
            rec["proposals_in"][0]["is_denoising"] = True

        def unpinned_denoising(rec):
            rec["proposals_in"][-1]["denoising_gt"] = None

        for edit in (nan_point, ragged_features, disagreeing_pin, unpinned_denoising):
            with pytest.raises(DataError):
                trace_from_doc(broken(edit))
        assert doc["stages"][1]["proposals_in"][-1]["is_denoising"]
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

    def test_stage_count_mismatch_rejected(self):
        doc = model_to_doc(init_head_params(6, 2, 2, hidden=4, seed=0))
        doc["num_stages"] = 3
        with pytest.raises(DataError):
            model_from_doc(doc)


class TestApDocs:
    def test_roundtrip(self):
        scene, trace = _oracle_trace(sigma=0.0)
        dets = trace.stages[-1].detections
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
