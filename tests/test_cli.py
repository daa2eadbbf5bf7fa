import json
import os
import subprocess
import sys

import pytest

from cascadev.assignment import CpaSchedule
from cascadev.cascade import ensemble_stages, run_cascade
from cascadev.cli import main
from cascadev.evaluation import cascade_stats, evaluate_scenes
from cascadev.formats import ap_to_doc, canonical_dumps, model_to_doc, stats_csv, write_json
from cascadev.learner import init_head_params
from cascadev.synth import (
    OracleNoise,
    SceneConfig,
    gen_scene,
    oracle_predictor,
    oracle_seed_centerness,
    scene_proposals,
)

SMALL = {
    "num_scenes": 3,
    "b": 16,
    "scene": {"num_gt": [2, 2], "points_per_box": 20, "num_clutter": 50},
    "steps": 25,
    "denoising_k": 2,
}
NOISE = {"sigma_delta": 0.25, "sigma_heading": 0.2, "p_class_flip": 0.1, "centerness_bias": 0.15}


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


def _read_bytes_map(dirpath):
    return {
        name: (dirpath / name).read_bytes() for name in sorted(os.listdir(dirpath))
    }


class TestPipeline:
    def test_gen_run_eval_train(self, tmp_path, cfg_path):
        scenes = tmp_path / "scenes"
        assert main(["gen", "--config", cfg_path, "--out", str(scenes), "--seed", "7"]) == 0
        names = sorted(os.listdir(scenes))
        assert names == ["manifest.json", "scene_0000.json", "scene_0001.json", "scene_0002.json"]
        manifest = json.loads((scenes / "manifest.json").read_text())
        assert manifest["kind"] == "manifest"
        assert len(manifest["scenes"]) == 3
        assert all(e["num_gt"] == 2 for e in manifest["scenes"])
        assert manifest["config"]["seed"] == 7

        traces = tmp_path / "traces"
        assert main(["run", str(scenes), "--config", cfg_path, "--out", str(traces)]) == 0
        assert sorted(os.listdir(traces)) == [
            "detections.json", "trace_0000.json", "trace_0001.json", "trace_0002.json",
        ]

        metrics = tmp_path / "metrics"
        assert main(["eval", str(traces), "--config", cfg_path, "--out", str(metrics)]) == 0
        ap = json.loads((metrics / "ap.json").read_text())
        by_thr = {r["iou_threshold"]: r["mean_ap"] for r in ap["results"]}
        # Exact oracle: every ensembled detection reproduces its box.
        assert by_thr[0.25] == 1.0
        assert by_thr[0.5] == 1.0
        stats = (metrics / "stats.csv").read_text().strip().split("\n")
        assert len(stats) == 1 + 3
        assert stats[0].startswith("stage,mu,positives,")

        model = tmp_path / "model"
        assert main(["train", str(scenes), "--config", cfg_path, "--out", str(model)]) == 0
        doc = json.loads((model / "model.json").read_text())
        assert doc["kind"] == "model" and doc["num_stages"] == 3
        loss = (model / "loss.csv").read_text().strip().split("\n")
        assert len(loss) == 1 + SMALL["steps"]

    def test_cli_metrics_equal_api_metrics(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        yawed = {**SMALL["scene"], "yaw_enabled": True}
        cfg.write_text(json.dumps({**SMALL, "seed": 5, "scene": yawed, "noise": NOISE}))
        scenes, traces, metrics = (tmp_path / d for d in ("scenes", "traces", "metrics"))
        assert main(["gen", "--config", str(cfg), "--out", str(scenes)]) == 0
        assert main(["run", str(scenes), "--config", str(cfg), "--out", str(traces)]) == 0
        assert main(["eval", str(traces), "--config", str(cfg), "--out", str(metrics)]) == 0

        scene_cfg = SceneConfig(num_gt=(2, 2), points_per_box=20, num_clutter=50, yaw_enabled=True)
        noise = OracleNoise(**NOISE)
        api_traces = []
        for seed in (5, 6, 7):
            scene = gen_scene(scene_cfg, seed)
            props = scene_proposals(scene, oracle_seed_centerness(scene, noise, seed=seed),
                                    SMALL["b"])
            api_traces.append(run_cascade(props, oracle_predictor(scene, noise, seed=seed),
                                          CpaSchedule(), gts=scene.gt_boxes))
        ap = evaluate_scenes([(ensemble_stages(t, (1, 3), 0.25), t.gts) for t in api_traces],
                             [0.25, 0.5])
        assert 0.0 < ap.at(0.5).mean_ap < 1.0
        assert (metrics / "ap.json").read_bytes() == canonical_dumps(ap_to_doc(ap)).encode()
        stats = stats_csv(cascade_stats(api_traces))
        assert (metrics / "stats.csv").read_bytes() == stats.encode()

    def test_trained_head_runs_and_evaluates(self, tmp_path, cfg_path):
        scenes = tmp_path / "scenes"
        model = tmp_path / "model"
        main(["gen", "--config", cfg_path, "--out", str(scenes)])
        main(["train", str(scenes), "--config", cfg_path, "--out", str(model)])
        head_cfg = dict(SMALL)
        head_cfg.update(predictor="head", model=str(model / "model.json"))
        hpath = tmp_path / "head.json"
        hpath.write_text(json.dumps(head_cfg))
        traces = tmp_path / "htraces"
        assert main(["run", str(scenes), "--config", str(hpath), "--out", str(traces)]) == 0
        metrics = tmp_path / "hmetrics"
        assert main(["eval", str(traces), "--config", str(hpath), "--out", str(metrics)]) == 0
        assert (metrics / "ap.json").exists()

    def test_single_stage_flag(self, tmp_path, cfg_path):
        scenes = tmp_path / "scenes"
        main(["gen", "--config", cfg_path, "--out", str(scenes)])
        traces = tmp_path / "t1"
        assert main(
            ["run", str(scenes), "--config", cfg_path, "--stages", "1", "--out", str(traces)]
        ) == 0
        doc = json.loads((traces / "trace_0000.json").read_text())
        assert len(doc["stages"]) == 1

    def test_schedule_flags_reach_manifest_and_traces(self, tmp_path, cfg_path):
        scenes = tmp_path / "scenes"
        main([
            "gen", "--config", cfg_path, "--out", str(scenes),
            "--mu-max", "0.45", "--mu-min", "0.15",
        ])
        manifest = json.loads((scenes / "manifest.json").read_text())
        assert manifest["config"]["schedule"]["mu_max"] == 0.45
        traces = tmp_path / "traces"
        main([
            "run", str(scenes), "--config", cfg_path, "--out", str(traces),
            "--mu-max", "0.45", "--mu-min", "0.15",
        ])
        doc = json.loads((traces / "trace_0000.json").read_text())
        assert doc["stages"][-1]["mu"] == pytest.approx(0.15, abs=1e-12)

    @pytest.mark.parametrize("config, flags, key, resolved", [
        ({}, ["--stages", "4"], "ensemble", [1, 4]),
        ({"ensemble": [1, 2]}, ["--stages", "4"], "ensemble", [1, 2]),
        ({"schedule": {"num_stages": 2}}, ["--mu-max", "0.5"], "schedule",
         {"mu_max": 0.5, "mu_min": 0.2, "num_stages": 2}),
        ({"schedule": {"mu_min": 0.1}}, ["--stages", "5", "--mu-min", "0.15"], "schedule",
         {"mu_max": 0.4, "mu_min": 0.15, "num_stages": 5}),
        ({"seed": 4, "weighting": "literal"}, ["--seed", "9"], "seed", 9),
    ])
    def test_flags_merge_into_config(self, tmp_path, config, flags, key, resolved):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL, "num_scenes": 1, **config}))
        scenes = tmp_path / "scenes"
        assert main(["gen", "--config", str(cfg), "--out", str(scenes)] + flags) == 0
        manifest = json.loads((scenes / "manifest.json").read_text())
        assert manifest["config"][key] == resolved
        assert manifest["config"]["weighting"] == config.get("weighting", "exp_neg_dist")

    def test_variant_flags_accepted(self, tmp_path, cfg_path):
        scenes = tmp_path / "scenes"
        main(["gen", "--config", cfg_path, "--out", str(scenes)])
        traces = tmp_path / "traces"
        main(["run", str(scenes), "--config", cfg_path, "--out", str(traces),
              "--weighting", "literal"])
        metrics = tmp_path / "metrics"
        assert main(
            ["eval", str(traces), "--config", cfg_path, "--out", str(metrics),
             "--iou", "aabb", "--ap", "11point"]
        ) == 0


class TestDeterminism:
    def test_gen_byte_identical(self, tmp_path, cfg_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen", "--config", cfg_path, "--out", str(a), "--seed", "3"])
        main(["gen", "--config", cfg_path, "--out", str(b), "--seed", "3"])
        assert _read_bytes_map(a) == _read_bytes_map(b)

    def test_run_and_train_byte_identical(self, tmp_path, cfg_path):
        scenes = tmp_path / "scenes"
        main(["gen", "--config", cfg_path, "--out", str(scenes)])
        ta, tb = tmp_path / "ta", tmp_path / "tb"
        main(["run", str(scenes), "--config", cfg_path, "--out", str(ta)])
        main(["run", str(scenes), "--config", cfg_path, "--out", str(tb)])
        assert _read_bytes_map(ta) == _read_bytes_map(tb)
        ma, mb = tmp_path / "ma", tmp_path / "mb"
        main(["train", str(scenes), "--config", cfg_path, "--out", str(ma)])
        main(["train", str(scenes), "--config", cfg_path, "--out", str(mb)])
        assert _read_bytes_map(ma) == _read_bytes_map(mb)

    def test_thread_count_does_not_change_bytes(self, tmp_path, cfg_path, monkeypatch):
        scenes = tmp_path / "scenes"
        main(["gen", "--config", cfg_path, "--out", str(scenes)])
        one, two = tmp_path / "one", tmp_path / "two"
        monkeypatch.setenv("CASCADEV_THREADS", "1")
        main(["run", str(scenes), "--config", cfg_path, "--out", str(one)])
        monkeypatch.setenv("CASCADEV_THREADS", "3")
        main(["run", str(scenes), "--config", cfg_path, "--out", str(two)])
        assert _read_bytes_map(one) == _read_bytes_map(two)

    def test_every_artifact_is_its_canonical_encoding(self, tmp_path, cfg_path):
        scenes, traces, metrics, model = (tmp_path / d for d in ("s", "t", "e", "m"))
        assert main(["gen", "--config", cfg_path, "--out", str(scenes)]) == 0
        assert main(["run", str(scenes), "--config", cfg_path, "--out", str(traces)]) == 0
        assert main(["eval", str(traces), "--config", cfg_path, "--out", str(metrics)]) == 0
        assert main(["train", str(scenes), "--config", cfg_path, "--out", str(model)]) == 0
        kinds = set()
        for d in (scenes, traces, metrics, model):
            for name, data in _read_bytes_map(d).items():
                if name.endswith(".json"):
                    doc = json.loads(data)
                    assert canonical_dumps(doc).encode() == data, name
                    assert doc["schema_version"] == "1.1"
                    kinds.add(doc["kind"])
        assert kinds == {"scene", "manifest", "trace", "detections", "ap", "model"}


class TestExitCodes:
    def test_module_entry_point_runs_without_runtime_warning(self):
        # `python -m cascadev.cli` must not find cascadev.cli already imported
        # by the package; runpy warns about that with a RuntimeWarning.
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "cascadev.cli", "--help"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["gen", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_unknown_config_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mystery": 1}))
        assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        nested = tmp_path / "nested.json"
        nested.write_text(json.dumps({"scene": {"points_per_box": 10, "bogus": 2}}))
        assert main(["gen", "--config", str(nested), "--out", str(tmp_path / "o")]) == 2

    def test_invalid_config_value_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schedule": {"mu_max": 0.1, "mu_min": 0.4}}))
        assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command, section", [
        ("gen", {"scene": {"size_range": 5}}),
        ("gen", {"scene": {"num_gt": "ab"}}),
        ("train", {"loss_weights": {"cls": "x"}}),
        ("train", {"loss_weights": {"focal_gamma": "x"}}),
        ("train", {"loss_weights": {"reg": -1.0}}),
        ("run", {"ensemble": 5}),
        ("run", {"iou_thresholds": 5}),
        ("run", {"ensemble": [1.0, 3.0]}),
        ("eval", {"ensemble": [True, 3]}),
        ("gen", {"scene": {"points_per_box": 1.5}}),
        ("gen", {"scene": {"num_clutter": 2.5}}),
        ("gen", {"scene": {"feature_dim": 9.5}}),
        ("gen", {"scene": {"num_classes": 2.0}}),
        ("gen", {"scene": {"num_gt": [1.5, 2]}}),
        ("gen", {"scene": {"yaw_enabled": "no"}}),
        ("gen", {"scene": {"points_per_box": True}}),
        ("run", {"schedule": {"num_stages": 2.0}}),
        ("train", {"schedule": {"num_stages": True}}),
        ("gen", {"noise": {"sigma_delta": True}}),
        ("run", {"schedule": {"mu_max": True, "mu_min": 0.2}}),
        ("gen", {"scene": {"sigma_feature": True}}),
        ("train", {"loss_weights": {"cls": True}}),
        ("run", {"noise": {"sigma_delta": float("nan")}}),
        ("run", {"noise": {"sigma_delta": float("inf")}}),
        ("gen", {"scene": {"sigma_feature": float("nan")}}),
        ("gen", {"scene": {"sigma_feature": float("inf")}}),
        ("run", {"schedule": {"mu_max": float("nan")}}),
        ("eval", {"schedule": {"mu_max": float("inf")}}),
        ("train", {"loss_weights": {"cls": float("nan")}}),
        ("train", {"loss_weights": {"cls": float("inf")}}),
        ("gen", {"scene": {"workspace": [[-4, float("inf")], [-4, 4], [0, 2.6]]}}),
        ("gen", {"scene": {"size_range": [[0.5, float("inf")], [0.5, 1], [0.5, 1]]}}),
        ("run", {"noise": "x"}),
        ("run", {"schedule": None}),
        ("gen", {"scene": {"num_gt": [1, 2, 3]}}),
    ])
    def test_malformed_section_is_config_error(self, tmp_path, command, section, capsys):
        # run, eval and train read no files before the config passes, so the
        # absent directory would give exit 3 if the section slipped through.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(section))
        argv = [command] + ([str(tmp_path / "absent")] if command != "gen" else [])
        capsys.readouterr()
        assert main(argv + ["--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error: invalid ")

    @pytest.mark.parametrize("command, key, value, message", [
        ("train", "lr", True, "lr must be a finite number"),
        ("train", "lr", float("nan"), "lr must be a finite number"),
        ("train", "lr", float("inf"), "lr must be a finite number"),
        ("train", "lr", 10**400, "lr must be a finite number"),
        ("run", "nms_iou", float("nan"), "nms_iou must be a finite number"),
        ("run", "model", 5, "model must be a string or null"),
        ("run", "model", ["m"], "model must be a string or null"),
        ("eval", "iou_thresholds", [0.5, float("nan")], "invalid iou_thresholds"),
        ("gen", "predictor", True, "predictor must be a string, got True"),
    ])
    def test_bad_top_level_value_is_config_error(self, tmp_path, command, key, value, message,
                                                 capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SMALL, key: value}))
        argv = [command] + ([str(tmp_path / "absent")] if command != "gen" else [])
        capsys.readouterr()
        assert main(argv + ["--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    @pytest.mark.parametrize("command, key, value", [
        ("gen", "num_scenes", 1.5),
        ("gen", "b", 2.5),
        ("gen", "seed", 1.5),
        ("gen", "b", True),
        ("gen", "num_scenes", "3"),
        ("train", "steps", 2.5),
        ("train", "hidden", 2.5),
        ("train", "denoising_k", 2.0),
        ("train", "batch_scenes", False),
    ])
    def test_non_integer_count_is_config_error(self, tmp_path, command, key, value, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SMALL, key: value}))
        argv = [command] + ([str(tmp_path / "absent")] if command == "train" else [])
        capsys.readouterr()
        assert main(argv + ["--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key} must be an integer")

    @pytest.mark.parametrize("command", ["run", "train"])
    @pytest.mark.parametrize("key, message", [
        ("features", "differ in length"),
        ("class_id", "class_id 9 is not an int in [0, 5)"),
        ('seed="x"', "seed 'x' is not an int in [0, 18446744073709551616)"),
        ("seed=1.5", "seed 1.5 is not an int"),
        ("seed=true", "seed True is not an int"),
        ("seed=-3", "seed -3 is not an int"),
        ("seed=18446744073709551616", "seed 18446744073709551616 is not an int"),
    ])
    def test_inconsistent_scene_is_data_error(self, tmp_path, command, key, message, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL, "noise": NOISE}))
        scenes = tmp_path / "scenes"
        main(["gen", "--config", str(cfg), "--out", str(scenes)])
        path = scenes / "scene_0001.json"
        doc = json.loads(path.read_text())
        if key == "features":
            doc["features"] = doc["features"][:10]
        elif key == "class_id":
            doc["gt_boxes"][0]["class_id"] = 9
        else:
            doc["seed"] = json.loads(key.split("=", 1)[1])
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main([command, str(scenes), "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and message in err
        assert err.count("scene_0001.json") == 1

    @pytest.mark.parametrize("edit", ["probabilities", "centerness", "extent", "row"])
    def test_trace_breaking_predictor_contract_is_data_error(self, tmp_path, cfg_path, edit,
                                                             capsys):
        scenes, traces = tmp_path / "scenes", tmp_path / "traces"
        main(["gen", "--config", cfg_path, "--out", str(scenes)])
        main(["run", str(scenes), "--config", cfg_path, "--out", str(traces)])
        path = traces / "trace_0002.json"
        doc = json.loads(path.read_text())
        rows = doc["stages"][1]["predictions"]
        if edit == "probabilities":
            rows[0]["class_probs"] = [p * 0.7 for p in rows[0]["class_probs"]]
        elif edit == "centerness":
            rows[0]["centerness"] = 1.5
        elif edit == "extent":
            rows[0]["deltas"][0] = -rows[0]["deltas"][1]
        else:
            rows.pop()
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["eval", str(traces), "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: trace predictions break the predictor contract")
        assert err.count("trace_0002.json") == 1

    @pytest.mark.parametrize("command", ["run", "eval"])
    @pytest.mark.parametrize("field, value", [
        ("yaw", float("nan")), ("size", [1, 1e999, 1]),
        ("center", [0.5, 0.5, True]), ("yaw", False),
    ])
    def test_non_finite_ground_truth_is_data_error(self, tmp_path, cfg_path, command, field,
                                                   value, capsys):
        self._edit_ground_truth(tmp_path, cfg_path, command, field, value, "finite", capsys)

    @pytest.mark.parametrize("command", ["run", "eval"])
    @pytest.mark.parametrize("class_id", [1.5, -3, 99, True, "x"])
    def test_ground_truth_class_id_outside_classes_is_data_error(self, tmp_path, cfg_path,
                                                                 command, class_id, capsys):
        self._edit_ground_truth(tmp_path, cfg_path, command, "class_id", class_id,
                                f"ground-truth class_id {class_id!r} is not an int", capsys)

    @staticmethod
    def _edit_ground_truth(tmp_path, cfg_path, command, field, value, message, capsys):
        scenes, traces = tmp_path / "scenes", tmp_path / "traces"
        main(["gen", "--config", cfg_path, "--out", str(scenes)])
        main(["run", str(scenes), "--config", cfg_path, "--out", str(traces)])
        path = scenes / "scene_0001.json" if command == "run" else traces / "trace_0001.json"
        doc = json.loads(path.read_text())
        doc["gt_boxes" if command == "run" else "gts"][0][field] = value
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main([command, str(scenes if command == "run" else traces), "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: malformed ") and message in err
        assert err.count(path.name) == 1

    @pytest.mark.parametrize("stage, key, value", [
        (0, "mu", float("nan")), (1, "stage", "x"), (1, "stage", 1.5), (1, "stage", 1),
    ])
    def test_bad_trace_stage_or_mu_is_data_error(self, tmp_path, cfg_path, stage, key, value,
                                                  capsys):
        scenes, traces = tmp_path / "scenes", tmp_path / "traces"
        main(["gen", "--config", cfg_path, "--out", str(scenes)])
        main(["run", str(scenes), "--config", cfg_path, "--out", str(traces)])
        path = traces / "trace_0002.json"
        doc = json.loads(path.read_text())
        doc["stages"][stage][key] = value
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["eval", str(traces), "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: malformed trace document: {key} ")
        assert err.count("trace_0002.json") == 1

    def test_class_less_box_in_train_is_data_error(self, tmp_path, cfg_path, capsys):
        scenes = tmp_path / "scenes"
        main(["gen", "--config", cfg_path, "--out", str(scenes)])
        path = scenes / "scene_0002.json"
        doc = json.loads(path.read_text())
        doc["gt_boxes"][1]["class_id"] = None
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["train", str(scenes), "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: training needs a class id") and "scene_0002.json" in err

    def test_scene_without_boxes_is_data_error(self, tmp_path, cfg_path, capsys):
        scenes = tmp_path / "scenes"
        main(["gen", "--config", cfg_path, "--out", str(scenes)])
        path = scenes / "scene_0001.json"
        doc = json.loads(path.read_text())
        doc["gt_boxes"] = []
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["run", str(scenes), "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 3
        assert "scene_0001.json" in capsys.readouterr().err

    def test_non_finite_scene_feature_is_data_error(self, tmp_path, cfg_path, capsys):
        scenes = tmp_path / "scenes"
        main(["gen", "--config", cfg_path, "--out", str(scenes)])
        path = scenes / "scene_0002.json"
        doc = json.loads(path.read_text())
        doc["features"][5][2] = float("nan")
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["run", str(scenes), "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith("data error: malformed scene document")

    def test_ensemble_beyond_trace_stages_is_config_error(self, tmp_path, cfg_path, capsys):
        scenes, traces = tmp_path / "scenes", tmp_path / "traces"
        main(["gen", "--config", cfg_path, "--out", str(scenes)])
        main(["run", str(scenes), "--config", cfg_path, "--out", str(traces)])
        capsys.readouterr()
        assert main(["eval", str(traces), "--config", cfg_path, "--stages", "5",
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "config error: stage range (1, 5) invalid for a 3-stage trace\n"
        )

    def test_missing_scenes_is_data_error(self, tmp_path, cfg_path):
        assert main(["run", str(tmp_path / "absent"), "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 3
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["run", str(empty), "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 3

    def test_schema_version_mismatch_is_data_error(self, tmp_path, cfg_path):
        scenes = tmp_path / "scenes"
        main(["gen", "--config", cfg_path, "--out", str(scenes)])
        path = scenes / "scene_0000.json"
        doc = json.loads(path.read_text())
        doc["schema_version"] = "9.0"
        path.write_text(json.dumps(doc))
        assert main(["run", str(scenes), "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 3

    def test_divergence_is_numerical_error(self, tmp_path, cfg_path):
        import numpy as np

        scenes = tmp_path / "scenes"
        main(["gen", "--config", cfg_path, "--out", str(scenes)])
        cfg = dict(SMALL)
        cfg["lr"] = 1e6
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(cfg))
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", str(scenes), "--config", str(path),
                         "--out", str(tmp_path / "o")])
        assert code == 4

    def test_huge_learning_rate_is_numerical_error(self, tmp_path, capsys):
        import numpy as np

        cfg = {"num_scenes": 1, "b": 4, "lr": 1e200, "steps": 5,
               "scene": {"num_gt": [1, 1], "points_per_box": 20, "num_clutter": 10}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        scenes = tmp_path / "scenes"
        assert main(["gen", "--config", str(path), "--out", str(scenes)]) == 0
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", str(scenes), "--config", str(path),
                         "--out", str(tmp_path / "o")])
        assert code == 4
        assert "decoded box beyond" in capsys.readouterr().err

    def test_head_without_model_is_config_error(self, tmp_path, cfg_path):
        scenes = tmp_path / "scenes"
        main(["gen", "--config", cfg_path, "--out", str(scenes)])
        cfg = dict(SMALL)
        cfg["predictor"] = "head"
        path = tmp_path / "head.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(scenes), "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2

    def test_model_feature_mismatch_is_data_error(self, tmp_path, cfg_path):
        scenes = tmp_path / "scenes"
        model = tmp_path / "model"
        main(["gen", "--config", cfg_path, "--out", str(scenes)])
        main(["train", str(scenes), "--config", cfg_path, "--out", str(model)])
        wide = dict(SMALL)
        wide["scene"] = dict(SMALL["scene"], feature_dim=20)
        wide.update(predictor="head", model=str(model / "model.json"))
        wpath = tmp_path / "wide.json"
        wpath.write_text(json.dumps(wide))
        wscenes = tmp_path / "wscenes"
        main(["gen", "--config", str(wpath), "--out", str(wscenes)])
        assert main(["run", str(wscenes), "--config", str(wpath),
                     "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("edit, message", [
        ("no_num_stages", "'num_stages'"),
        ("feature_dim_str", "feature_dim '16' is not an int"),
        ("hidden_bool", "hidden True is not an int"),
        ("w1_row_short", "w1 has shape (15, 4), expected (16, 4)"),
        ("b1_short", "b1 has shape (3,), expected (4,)"),
        ("w2_wrong_out", "w2 has shape (4, 6), expected (4, 7)"),
        ("b2_nan", "b2 holds non-finite values"),
        ("ragged_w1", "inhomogeneous"),
    ])
    def test_malformed_model_is_data_error(self, tmp_path, cfg_path, edit, message, capsys):
        scenes = tmp_path / "scenes"
        main(["gen", "--config", cfg_path, "--out", str(scenes)])
        doc = model_to_doc(init_head_params(16, 5, 3, hidden=4, seed=0))
        reg = doc["stages"][1]["reg"]
        if edit == "no_num_stages":
            del doc["num_stages"]
        elif edit == "feature_dim_str":
            doc["feature_dim"] = "16"
        elif edit == "hidden_bool":
            doc["hidden"] = True
        elif edit == "w1_row_short":
            reg["w1"] = reg["w1"][:-1]
        elif edit == "b1_short":
            reg["b1"] = reg["b1"][:-1]
        elif edit == "w2_wrong_out":
            reg["w2"] = [row[:-1] for row in reg["w2"]]
        elif edit == "b2_nan":
            reg["b2"][0] = float("nan")
        else:
            reg["w1"][3] = reg["w1"][3][:-1]
        model = tmp_path / "model.json"
        write_json(model, doc)
        head = tmp_path / "head.json"
        head.write_text(json.dumps(dict(SMALL, predictor="head", model=str(model))))
        capsys.readouterr()
        assert main(["run", str(scenes), "--config", str(head),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: malformed model document: ") and message in err
        assert err.count("model.json") == 1

    def _mixed_scenes(self, tmp_path, cfg_path):
        """Default-width scenes plus one scene_0003.json with feature_dim 20."""
        scenes = tmp_path / "scenes"
        main(["gen", "--config", cfg_path, "--out", str(scenes)])
        wide = dict(SMALL, num_scenes=1, scene=dict(SMALL["scene"], feature_dim=20))
        wpath = tmp_path / "wide.json"
        wpath.write_text(json.dumps(wide))
        main(["gen", "--config", str(wpath), "--out", str(tmp_path / "wscenes")])
        (scenes / "scene_0003.json").write_bytes(
            (tmp_path / "wscenes" / "scene_0000.json").read_bytes()
        )
        return scenes

    def test_mixed_feature_dims_in_train_is_data_error(self, tmp_path, cfg_path, capsys):
        scenes = self._mixed_scenes(tmp_path, cfg_path)
        capsys.readouterr()
        assert main(["train", str(scenes), "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 3
        assert "data error: all training scenes must share" in capsys.readouterr().err

    def test_mixed_feature_dims_in_head_run_is_data_error(self, tmp_path, cfg_path, capsys):
        model = tmp_path / "model"
        scenes = self._mixed_scenes(tmp_path, cfg_path)
        (scenes / "scene_0003.json").rename(tmp_path / "held.json")
        main(["train", str(scenes), "--config", cfg_path, "--out", str(model)])
        (tmp_path / "held.json").rename(scenes / "scene_0003.json")
        head = dict(SMALL, predictor="head", model=str(model / "model.json"))
        hpath = tmp_path / "head.json"
        hpath.write_text(json.dumps(head))
        capsys.readouterr()
        assert main(["run", str(scenes), "--config", str(hpath),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: model expects feature_dim 16, scene_0003.json has 20")

    def test_no_room_for_clutter_is_data_error(self, tmp_path):
        cfg = tmp_path / "full.json"
        cfg.write_text(json.dumps({
            "num_scenes": 1,
            "scene": {"num_gt": [1, 1], "size_range": [[1, 1]] * 3, "num_clutter": 5,
                      "workspace": [[0, 1]] * 3},
        }))
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3

    def test_bad_thread_env_is_config_error(self, tmp_path, cfg_path, monkeypatch):
        monkeypatch.setenv("CASCADEV_THREADS", "zero")
        assert main(["gen", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
