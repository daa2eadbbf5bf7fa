import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from dataclasses import dataclass, field, replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cascadev.assignment import CpaSchedule
from cascadev.cli import PREDICTORS, RunConfig, main, run_config_from_doc
from cascadev.config import check_types, from_doc
from cascadev.errors import ConfigError
from cascadev.learner import LossWeights
from cascadev.synth import OracleNoise, SceneConfig
from cascadev.voting import WEIGHTINGS

NAN, INF = math.nan, math.inf


@dataclass
class Inner:
    x: float = 0.0

    def __post_init__(self) -> None:
        check_types(self)


@dataclass
class Outer:
    n: int = 1
    flag: bool = False
    name: str | None = None
    pair: tuple[int, int] = (1, 2)
    pairs: tuple[tuple[float, float], ...] = ()
    inner: Inner = field(default_factory=Inner)


@pytest.mark.parametrize("name, value", [
    ("n", 1.0), ("n", True), ("n", "1"), ("n", None),
    ("flag", 1), ("flag", "true"),
    ("name", 3), ("name", ("a",)),
    ("pair", [1, 2]), ("pair", (1,)), ("pair", (1, 2, 3)), ("pair", (1, 2.0)), ("pair", None),
    ("pairs", ((0.0, INF),)), ("pairs", ((0.0, NAN),)), ("pairs", ((0.0, True),)),
    ("pairs", ((0.0,),)), ("pairs", 5),
    ("inner", {"x": 1.0}),
])
def test_check_types_rejects_what_the_annotation_excludes(name, value):
    obj = Outer(**{name: value})
    with pytest.raises(ValueError, match=name):
        check_types(obj)


@pytest.mark.parametrize("name, value", [
    ("n", -3), ("n", 2**70), ("flag", True), ("name", None), ("name", ""),
    ("pairs", ((0, 1), (-1.5, 10**300))), ("pairs", ()), ("inner", Inner(x=2)),
])
def test_check_types_accepts_what_the_annotation_declares(name, value):
    check_types(Outer(**{name: value}))


@pytest.mark.parametrize("x", [True, NAN, INF, -INF, 10**400, "1.0", None])
def test_float_must_be_finite_number(x):
    with pytest.raises(ValueError, match=r"^x must be a finite number, got "):
        check_types(Inner(x=x))


def test_messages_name_the_expected_type():
    with pytest.raises(ValueError, match=r"^n must be an integer, got 1\.5$"):
        check_types(Outer(n=1.5))
    with pytest.raises(ValueError, match=r"^name must be a string or null, got 5$"):
        check_types(Outer(name=5))
    with pytest.raises(ValueError, match=r"^invalid pair \(1, 2\.0\), expected \[an integer, "
                                         r"an integer\]$"):
        check_types(Outer(pair=(1, 2.0)))


def test_from_doc_reads_arrays_as_tuples_and_sections_as_configs():
    got = from_doc(Outer, {"pair": [3, 4], "pairs": [[0, 1.5]], "inner": {"x": 2}}, "outer")
    assert got == Outer(pair=(3, 4), pairs=((0, 1.5),), inner=Inner(x=2))
    assert type(got.inner.x) is int  # JSON ints stay ints


@pytest.mark.parametrize("doc, message", [
    ([1], r"^outer must be a JSON object, got \[1\]$"),
    ({"bogus": 1, "n": 2}, r"^unknown outer keys: \['bogus'\]$"),
    ({"inner": "x"}, r"^invalid inner config: inner must be a JSON object, got 'x'$"),
    ({"inner": {"y": 1}}, r"^invalid inner config: unknown inner keys: \['y'\]$"),
    ({"inner": {"x": True}}, r"^invalid inner config: x must be a finite number, got True$"),
])
def test_from_doc_errors(doc, message):
    with pytest.raises(ValueError, match=message):
        from_doc(Outer, doc, "outer")


@pytest.mark.parametrize("build", [
    lambda: SceneConfig(sigma_feature=NAN),
    lambda: SceneConfig(sigma_feature=True),
    lambda: SceneConfig(workspace=((-4.0, INF), (-4.0, 4.0), (0.0, 2.6))),
    lambda: SceneConfig(size_range=((0.5, 1.0), (0.5, 1.0))),
    lambda: SceneConfig(num_gt=[2, 3]),
    lambda: SceneConfig(yaw_enabled=1),
    lambda: CpaSchedule(mu_max=INF),
    lambda: CpaSchedule(mu_max=True, mu_min=0.2),
    lambda: CpaSchedule(mu_min="0.1"),
    lambda: OracleNoise(sigma_delta="0"),
    lambda: OracleNoise(sigma_delta=True),
    lambda: OracleNoise(p_class_flip=NAN),
    lambda: LossWeights(cls=NAN),
    lambda: LossWeights(reg=-1.0),
    lambda: RunConfig(lr=True),
    lambda: RunConfig(model=5),
    lambda: RunConfig(seed=-1),
    lambda: RunConfig(ensemble=(1, 4)),
    lambda: RunConfig(scene={"num_gt": (2, 2)}),
])
def test_constructors_raise_value_error(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("axis, extent", [
    ("x", (-1e308, 1e308)), ("y", (-1.7e308, 1e307)), ("z", (-9e307, 9e307)),
])
def test_workspace_wider_than_a_float_rejected(axis, extent):
    workspace = [(-4.0, 4.0), (-4.0, 4.0), (0.0, 2.6)]
    workspace["xyz".index(axis)] = extent
    with pytest.raises(ValueError, match=rf"^workspace {axis} range .* reaches beyond 1e\+100 "
                                         r"in magnitude$"):
        SceneConfig(workspace=tuple(workspace))


@pytest.mark.parametrize("yaw_enabled, workspace, message", [
    (False, ((-4.0, 4.0), (0.0, 0.3), (0.0, 2.6)), r"workspace y width 0.3 .* \(0.45\)$"),
    (False, ((-4.0, 4.0), (-4.0, 4.0), (1.0, 1.3)), r"workspace z width 0.3 .* \(0.4\)$"),
    (True, ((0.0, 0.6), (-4.0, 4.0), (0.0, 2.6)), r"workspace x width 0.6 .* \(0.636396\)$"),
])
def test_workspace_narrower_than_the_smallest_box_rejected(yaw_enabled, workspace, message):
    # Every placement draw would fail: the axis cannot hold the smallest box
    # size_range allows, or on x and y its footprint diagonal when yawed.
    with pytest.raises(ValueError, match="^" + message):
        SceneConfig(workspace=workspace, yaw_enabled=yaw_enabled)


@pytest.mark.parametrize("yaw_enabled, workspace", [
    (False, ((-4.0, 4.0), (0.0, 0.45), (0.0, 2.6))),
    (False, ((0.0, 0.6), (-4.0, 4.0), (0.0, 2.6))),
    (True, ((0.0, math.hypot(0.45, 0.45)), (-4.0, 4.0), (0.0, 2.6))),
])
def test_workspace_that_holds_the_smallest_box_accepted(yaw_enabled, workspace):
    SceneConfig(workspace=workspace, yaw_enabled=yaw_enabled)


def test_run_config_document_errors_are_config_errors():
    with pytest.raises(ConfigError, match=r"^b must be an integer, got 2\.5$"):
        run_config_from_doc({"b": 2.5})
    with pytest.raises(ConfigError, match=r"^invalid schedule config: need 0 < mu_min"):
        run_config_from_doc({"schedule": {"mu_min": 0.5}})


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def run_configs(draw):
    lo = draw(_finite(1e-6, 1.0))
    stages = draw(st.integers(1, 6))
    schedule = CpaSchedule(mu_max=draw(_finite(lo, 1.0)), mu_min=lo, num_stages=stages)
    first = draw(st.integers(1, stages))
    extents = st.tuples(_finite(-10.0, 0.0), _finite(0.5, 10.0))
    sizes = st.tuples(_finite(0.1, 1.0), _finite(1.0, 2.0))
    classes = draw(st.integers(1, 6))
    num_gt = draw(st.tuples(st.integers(1, 3), st.integers(3, 5)))
    size_range = draw(st.tuples(sizes, sizes, sizes))
    yaw_enabled = draw(st.booleans())
    points_per_box = draw(st.integers(1, 500))
    num_clutter = draw(st.integers(0, 500))
    workspace = draw(st.tuples(extents, extents, extents))
    # An axis narrower than the smallest box the sizes allow is a config error.
    smallest = [lo for lo, _ in size_range]
    if yaw_enabled:
        smallest[0] = smallest[1] = math.hypot(smallest[0], smallest[1])
    assume(all(hi - lo >= s for (lo, hi), s in zip(workspace, smallest)))
    scene = SceneConfig(
        num_gt=num_gt,
        size_range=size_range,
        yaw_enabled=yaw_enabled,
        points_per_box=points_per_box,
        num_clutter=num_clutter,
        workspace=workspace,
        num_classes=classes,
        sigma_feature=draw(_finite(0.0, 1.0)),
        feature_dim=3 + classes + draw(st.integers(0, 8)),
    )
    return RunConfig(
        num_scenes=draw(st.integers(1, 10**6)),
        b=draw(st.integers(1, 10**4)),
        seed=draw(st.integers(0, 2**64 - 1)),
        predictor=draw(st.sampled_from(PREDICTORS)),
        model=draw(st.none() | st.text(max_size=20)),
        scene=scene,
        schedule=schedule,
        noise=OracleNoise(draw(_finite(0.0, 1.0)), draw(_finite(0.0, 1.0)),
                          draw(_finite(0.0, 0.99)), draw(_finite(0.0, 1.0))),
        iou_thresholds=tuple(draw(st.lists(_finite(0.01, 0.99), min_size=1, max_size=4))),
        weighting=draw(st.sampled_from(WEIGHTINGS)),
        ensemble=draw(st.none() | st.just((first, draw(st.integers(first, stages))))),
        nms_iou=draw(_finite(0.01, 0.99)),
        steps=draw(st.integers(1, 10**5)),
        lr=draw(_finite(1e-9, 10.0) | st.integers(1, 5)),
        hidden=draw(st.integers(1, 64)),
        denoising_k=draw(st.integers(1, 8)),
        loss_weights=LossWeights(*(draw(_finite(0.0, 5.0)) for _ in range(4))),
    )


@settings(max_examples=150, deadline=None)
@given(run_configs())
def test_resolved_doc_round_trips_through_json(cfg):
    again = run_config_from_doc(json.loads(json.dumps(cfg.resolved_doc())))
    assert again == cfg
    assert json.dumps(again.resolved_doc()) == json.dumps(cfg.resolved_doc())


@st.composite
def small_run_configs(draw):
    """run_configs at a few tiny scenes and steps, with the edge values that
    once broke a command's hand-off or printed a NumPy warning: feature noise
    that overflows (1e308), an SGD step that overflows the weights (lr and
    class-loss weight 1e300), oracle noise that overflows the decoded boxes
    (1e300, 1e308) or the centerness (1e308), and a focal gamma below 1 with
    a step large enough to saturate the class probabilities (0.5, lr 10)."""
    cfg = draw(run_configs())

    def sometimes(value, *edges):
        return draw(st.sampled_from([value, value, value, *edges]))

    scene = replace(
        cfg.scene,
        points_per_box=min(cfg.scene.points_per_box, 20),
        num_clutter=min(cfg.scene.num_clutter, 30),
        # Half the scenes in the roomy default workspace, where every box fits.
        workspace=draw(st.sampled_from([cfg.scene.workspace, SceneConfig().workspace])),
        sigma_feature=sometimes(cfg.scene.sigma_feature, 1e308),
    )
    noise = replace(cfg.noise,
                    sigma_delta=sometimes(cfg.noise.sigma_delta, 1e300, 1e308),
                    centerness_bias=sometimes(cfg.noise.centerness_bias, 1e308))
    # The overflowing update is the last step's, so its weights reach model.json.
    weights = cfg.loss_weights
    lr, cls, gamma, steps = sometimes(
        (cfg.lr, weights.cls, weights.focal_gamma, 1 + cfg.steps % 2),
        (1e300, 1e300, weights.focal_gamma, 1), (10.0, weights.cls, 0.5, 2))
    return replace(
        cfg, num_scenes=1 + cfg.num_scenes % 2, steps=steps, scene=scene,
        noise=noise, lr=lr, loss_weights=replace(weights, cls=cls, focal_gamma=gamma),
        hidden=min(cfg.hidden, 8), model=None,
    )


def _cli(argv: list[str], cfg: RunConfig, workdir: str) -> int:
    """Exit code of one in-process command; any failure says one line on stderr.

    A RuntimeWarning, which the command line would print to stderr, is
    raised as an error instead.
    """
    path = os.path.join(workdir, "cfg.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.resolved_doc(), fh)
    err = io.StringIO()
    with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
          warnings.catch_warnings()):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv + ["--config", path])
    assert code in (0, 2, 3, 4), (argv, code)
    lines = err.getvalue().splitlines()
    assert len(lines) == (code != 0), (argv, lines)
    return code


@settings(max_examples=25, deadline=None)
@given(small_run_configs())
def test_what_one_command_writes_the_next_one_reads(cfg):
    # gen, run and eval with the oracle, train, then run and eval with the
    # trained head. Each command exits 0, 2, 3 or 4, and a file written with
    # exit 0 never reads back as a data error (exit 3).
    with tempfile.TemporaryDirectory() as work:
        scenes, model = os.path.join(work, "scenes"), os.path.join(work, "model")

        def run_and_eval(run_cfg: RunConfig, name: str) -> None:
            traces = os.path.join(work, name)
            code = _cli(["run", scenes, "--out", traces], run_cfg, work)
            assert code != 3
            if code == 0:
                metrics = os.path.join(work, f"{name}_metrics")
                assert _cli(["eval", traces, "--out", metrics], run_cfg, work) != 3

        if _cli(["gen", "--out", scenes], cfg, work):
            return
        run_and_eval(replace(cfg, predictor="oracle"), "traces")
        trained = _cli(["train", scenes, "--out", model], cfg, work)
        assert trained != 3
        if trained == 0:
            head = replace(cfg, predictor="head",
                                       model=os.path.join(model, "model.json"))
            run_and_eval(head, "head_traces")


@pytest.mark.parametrize("doc, command, exit_code", [
    ({"num_scenes": 1, "steps": 2, "lr": 1e200, "loss_weights": {"reg": 1e200}}, "train", 4),
    ({"num_scenes": 2, "steps": 40, "lr": 10, "loss_weights": {"focal_gamma": 0.5}}, "train", 0),
    ({"num_scenes": 2, "noise": {"sigma_delta": 1e308}}, "run", 4),
    ({"num_scenes": 2, "noise": {"centerness_bias": 1e308}}, "run", 0),
], ids=["sgd_overflow", "focal_gamma_below_1", "extent_noise_overflow",
        "centerness_noise_overflow"])
def test_overflowing_numbers_print_no_numpy_warning(doc, command, exit_code):
    # Each config overflows, or takes 0 ** negative, inside NumPy; _cli turns a
    # RuntimeWarning into an error and asserts one stderr line on failure.
    cfg = run_config_from_doc(doc)
    with tempfile.TemporaryDirectory() as work:
        scenes = os.path.join(work, "scenes")
        assert _cli(["gen", "--out", scenes], cfg, work) == 0
        assert _cli([command, scenes, "--out", os.path.join(work, "out")], cfg, work) == exit_code
