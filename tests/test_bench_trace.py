"""The traced benchmark patches package names by name; keep them there.

perfbench/bench_trace.py replaces module attributes such as
`cascadev.learner.ia_voting` with spanned wrappers. A refactor that drops
one of those names would only fail under `perfbench/run.py --trace 1`;
these tests make the plain suite fail instead, as does a traced run
whose vote-mask counters stay at zero or miscount the inside pairs, or
whose NMS counters read anything but the rows in and the rows kept, or
whose CLI run leaves a `formats.*` span at zero.
"""

import json
import os
import sys

from reference import point_in_scaled_box

import cascadev
from cascadev.assignment import CpaSchedule
from cascadev.cascade import ensemble_stages
from cascadev.geometry import Deltas, Point3, decode_box
from cascadev.synth import (
    OracleNoise,
    SceneConfig,
    gen_scene,
    oracle_predictor,
    oracle_seed_centerness,
    scene_proposals,
)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

from bench_trace import Tracer, instrument, span_totals  # noqa: E402


def test_instrument_patches_and_restores_every_name():
    before = {name: getattr(cascadev.cascade, name)
              for name in ("ia_voting", "assign_targets", "decode_box", "update_point")}
    undo = instrument(Tracer(), cascadev)
    try:
        assert cascadev.cascade.ia_voting is not before["ia_voting"]
    finally:
        undo()
    for name, fn in before.items():
        assert getattr(cascadev.cascade, name) is fn


def test_traced_cascade_counts_every_vote_mask():
    # A refactor that routed voting around voting.contains_points would
    # leave these counters at zero, silently.
    cfg = SceneConfig(num_gt=(2, 2), points_per_box=20, num_clutter=40, yaw_enabled=True)
    scene = gen_scene(cfg, seed=4)
    noise = OracleNoise(sigma_delta=0.1, sigma_heading=0.1)
    props = scene_proposals(scene, oracle_seed_centerness(scene, noise, seed=4), 12)
    sched = CpaSchedule()
    tracer = Tracer()
    undo = instrument(tracer, cascadev)
    try:
        trace = cascadev.run_cascade(props, oracle_predictor(scene, noise, seed=4), sched,
                                     scene.gt_boxes)
    finally:
        undo()
    b, hand_offs = len(props), sched.num_stages - 1
    # One containment pass per hand-off, over all of its (box, source) pairs.
    assert tracer.counts["voting.masks"] == hand_offs
    assert tracer.counts["voting.mask_evals"] == b * b * hand_offs
    assert tracer.counts["geometry.contains_points.calls"] > 0
    inside = 0
    for rec in trace.stages[:hand_offs]:
        sources = [Point3(*p) for p in rec.proposals_in.points]
        for p, d in zip(sources, rec.predictions.deltas.tolist()):
            box = decode_box(p, Deltas(*d))
            inside += sum(point_in_scaled_box(s, box, 0.5) for s in sources)
    assert inside > 0
    assert tracer.counts["voting.mask_points"] == inside


def test_traced_ensemble_counts_nms_rows_in_and_kept():
    # bench_trace counts overlap.nms.in as len() of nms's first argument, so
    # that argument must measure the pooled detections, not its columns.
    cfg = SceneConfig(num_gt=(3, 3), points_per_box=20, num_clutter=40, yaw_enabled=True)
    scene = gen_scene(cfg, seed=5)
    noise = OracleNoise(sigma_delta=0.1, sigma_heading=0.1)
    props = scene_proposals(scene, oracle_seed_centerness(scene, noise, seed=5), 16)
    trace = cascadev.run_cascade(props, oracle_predictor(scene, noise, seed=5), CpaSchedule(),
                                 scene.gt_boxes)
    assert trace.num_stages == 3
    tracer = Tracer()
    undo = instrument(tracer, cascadev)
    try:
        kept = ensemble_stages(trace, (1, 3), 0.25)
    finally:
        undo()
    assert tracer.counts["overlap.nms.in"] == sum(len(rec.detections) for rec in trace.stages)
    assert tracer.counts["overlap.nms.in"] == 3 * len(props)
    assert tracer.counts["overlap.nms.kept"] == len(kept) > 0


def test_traced_cli_spans_every_artifact_encode_and_decode(tmp_path):
    # The formats.*_encode/_decode per-layer metrics sum these spans; a reader or
    # writer the CLI stops calling by these names would leave them at zero.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"num_scenes": 2, "b": 8, "scene": {
        "num_gt": [2, 2], "points_per_box": 12, "num_clutter": 20}}))
    scenes, traces, metrics = (str(tmp_path / d) for d in ("scenes", "traces", "metrics"))
    tracer = Tracer()
    undo = instrument(tracer, cascadev)
    try:
        for argv in (["gen", "--out", scenes], ["run", scenes, "--out", traces],
                     ["eval", traces, "--out", metrics]):
            assert cascadev.cli.main(argv + ["--config", str(cfg)]) == 0
    finally:
        undo()
    totals, _, calls = span_totals(tracer.spans)
    for verb in ("to_doc", "from_doc"):
        for kind in ("scene", "trace"):
            name = f"formats.{kind}_{verb}"
            assert totals[name] > 0 and calls[name] == 2, name
    for name in ("formats.write_json.scene", "formats.read_json.scene",
                 "formats.write_json.trace", "formats.read_json.trace"):
        assert totals[name] > 0 and calls[name] == 2, name
    assert tracer.counts["formats.bytes_written"] > tracer.counts["formats.bytes_read"] > 0
