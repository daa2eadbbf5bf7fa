"""A small trainable detection head with hand-rolled backprop.

Each stage owns three two-layer perceptrons over the proposal feature:
class logits (foreground classes plus background), seven regression
outputs (six face distances through softplus so decoded sizes stay
positive, plus a raw heading), and a centerness logit. Losses follow
the usual detection recipe: softmax cross-entropy over all proposals
with negatives assigned to background (optionally focal-weighted),
smooth-L1 on the seven-vector over positives, and binary cross-entropy
of the centerness against its geometric target over positives.

Training runs the inference cascade: run_cascade with the current heads
moves the points, re-votes the features and assigns each stage's
positives at its own shrinking threshold. Training adds only the losses
on each stage's inputs and one SGD step per stage. No gradient flows
between stages; each head sees its inputs as constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .assignment import Assignment, CpaSchedule
from .cascade import Predictions, Proposals, run_cascade
from .config import check_types
from .errors import InvalidDeltasError, PredictorOutputError, TrainingDivergedError
from .synth import SyntheticScene, scene_proposals

# Not called here: training reaches them through run_cascade.
# perfbench/bench_trace.py patches these names on this module.
from .assignment import assign_targets  # noqa: F401
from .geometry import decode_box, update_point  # noqa: F401
from .voting import ia_voting  # noqa: F401


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class BranchParams:
    """One two-layer perceptron: tanh hidden layer, linear output."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def arrays(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2]


@dataclass
class StageParams:
    cls: BranchParams
    reg: BranchParams
    cent: BranchParams

    def branches(self) -> dict[str, BranchParams]:
        return {"cls": self.cls, "reg": self.reg, "cent": self.cent}


@dataclass
class HeadParams:
    """All trainable parameters: one StageParams per cascade stage."""

    stages: list[StageParams]
    feature_dim: int
    num_classes: int
    hidden: int

    @property
    def num_stages(self) -> int:
        return len(self.stages)


def init_head_params(
    feature_dim: int, num_classes: int, num_stages: int, hidden: int = 32, seed: int = 0
) -> HeadParams:
    rng = np.random.Generator(np.random.Philox(key=seed))

    def branch(n_out: int) -> BranchParams:
        return BranchParams(
            w1=rng.normal(0.0, 1.0 / math.sqrt(feature_dim), size=(feature_dim, hidden)),
            b1=np.zeros(hidden),
            w2=rng.normal(0.0, 1.0 / math.sqrt(hidden), size=(hidden, n_out)),
            b2=np.zeros(n_out),
        )

    stages = [
        StageParams(cls=branch(num_classes + 1), reg=branch(7), cent=branch(1))
        for _ in range(num_stages)
    ]
    return HeadParams(stages=stages, feature_dim=feature_dim,
                      num_classes=num_classes, hidden=hidden)


def _forward(bp: BranchParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Returns (output, hidden activation); the hidden is kept for backprop."""
    h = np.tanh(x @ bp.w1 + bp.b1)
    return h @ bp.w2 + bp.b2, h


def _backward(
    bp: BranchParams, x: np.ndarray, h: np.ndarray, g_out: np.ndarray
) -> list[np.ndarray]:
    """Gradients [dw1, db1, dw2, db2] given dL/d(output)."""
    g_w2 = h.T @ g_out
    g_b2 = g_out.sum(axis=0)
    g_h = g_out @ bp.w2.T
    g_pre = g_h * (1.0 - h * h)
    return [x.T @ g_pre, g_pre.sum(axis=0), g_w2, g_b2]


@dataclass(frozen=True, slots=True)
class StageOutputs:
    """Raw head outputs for a batch of proposals at one stage."""

    cls_logits: np.ndarray  # (n, C+1)
    reg_raw: np.ndarray  # (n, 7); first six pass through softplus downstream
    cent_logits: np.ndarray  # (n,)

    def predictions(self) -> Predictions:
        """Softmax probabilities, softplus'd face distances with the raw
        heading, and sigmoid centerness."""
        return Predictions(
            class_probs=_softmax(self.cls_logits),
            deltas=np.concatenate([_softplus(self.reg_raw[:, :6]), self.reg_raw[:, 6:]], axis=1),
            centerness=_sigmoid(self.cent_logits),
        )


@dataclass(frozen=True, slots=True)
class LossReport:
    """Loss values and positive count for one (step, stage) pair."""

    step: int
    stage: int
    classification_loss: float
    regression_loss: float
    centerness_loss: float
    positive_count: int

    @property
    def total(self) -> float:
        return self.classification_loss + self.regression_loss + self.centerness_loss


@dataclass(frozen=True, slots=True)
class LossWeights:
    """Relative weights of the three branches; unit by default."""

    cls: float = 1.0
    reg: float = 1.0
    cent: float = 1.0
    focal_gamma: float = 0.0

    def __post_init__(self) -> None:
        check_types(self)
        for f in fields(self):
            if getattr(self, f.name) < 0.0:
                raise ValueError(f"{f.name} must be >= 0, got {getattr(self, f.name)!r}")


def _smooth_l1(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    return np.where(ax < 1.0, 0.5 * x * x, ax - 0.5)


def compute_losses(
    outputs: StageOutputs,
    assignment: Assignment,
    weights: LossWeights = LossWeights(),
    *,
    step: int = 0,
    stage: int = 1,
):
    """Losses for one stage batch and dL/d(raw outputs): (report, (g_cls, g_reg, g_cent)).

    Classification covers every proposal (negatives target the trailing
    background class), regression and centerness cover positives only
    and are zero when there are none.
    """
    n = len(assignment.matched_gt)
    if outputs.cls_logits.shape[0] != n or outputs.reg_raw.shape[0] != n or len(
        outputs.cent_logits
    ) != n:
        raise ValueError(
            f"outputs cover {outputs.cls_logits.shape[0]} proposals, assignment covers {n}"
        )
    num_bg = outputs.cls_logits.shape[1] - 1

    # Classification: softmax cross-entropy, optional focal modulation.
    matched = assignment.matched_gt >= 0
    targets = np.where(matched, assignment.target_class, num_bg)
    if (targets < 0).any():
        raise ValueError("a positive proposal is matched to a box without a class id")
    shifted = outputs.cls_logits - outputs.cls_logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    probs = np.exp(log_probs)
    p_t = probs[np.arange(n), targets]
    log_p_t = log_probs[np.arange(n), targets]
    gamma = weights.focal_gamma
    # The focal modulator; at gamma 0 it is 1.0 on every row, plain cross-entropy.
    mod = (1.0 - p_t) ** gamma
    cls_loss = float(np.mean(-mod * log_p_t))

    pos = np.flatnonzero(matched)
    n_pos = len(pos)

    # Regression: smooth-L1 on (softplus'd distances, raw heading).
    if n_pos:
        raw = outputs.reg_raw[pos]
        pred = np.concatenate([_softplus(raw[:, :6]), raw[:, 6:7]], axis=1)
        diff = pred - assignment.target_deltas[pos]
        reg_loss = float(_smooth_l1(diff).sum() / n_pos)
    else:
        reg_loss = 0.0

    # Centerness: binary cross-entropy against the geometric target.
    if n_pos:
        c_logit = outputs.cent_logits[pos]
        c_targ = assignment.target_centerness[pos]
        cent_loss = float(
            np.mean(c_targ * _softplus(-c_logit) + (1.0 - c_targ) * _softplus(c_logit))
        )
    else:
        cent_loss = 0.0

    report = LossReport(
        step=step,
        stage=stage,
        classification_loss=weights.cls * cls_loss,
        regression_loss=weights.reg * reg_loss,
        centerness_loss=weights.cent * cent_loss,
        positive_count=n_pos,
    )

    g_cls = probs.copy()
    g_cls[np.arange(n), targets] -= 1.0
    if gamma > 0.0:
        # d/dl of -(1-p_t)^g log p_t splits into a scaled CE term plus a
        # term from the modulator's own dependence on p_t.
        # Rows at p_t = 1 skip the power, which is 0 ** negative below gamma 1.
        slope = np.power(1.0 - p_t, gamma - 1.0, out=np.zeros_like(p_t), where=p_t < 1.0)
        coef = gamma * slope * log_p_t * p_t
        onehot = np.zeros_like(probs)
        onehot[np.arange(n), targets] = 1.0
        g_cls = mod[:, None] * g_cls + coef[:, None] * (onehot - probs)
    g_cls *= weights.cls / n

    g_reg = np.zeros_like(outputs.reg_raw)
    if n_pos:
        d_sl1 = np.clip(diff, -1.0, 1.0)
        d_raw = d_sl1.copy()
        d_raw[:, :6] *= _sigmoid(raw[:, :6])  # softplus' = sigmoid
        g_reg[pos] = weights.reg * d_raw / n_pos

    g_cent = np.zeros_like(outputs.cent_logits)
    if n_pos:
        g_cent[pos] = weights.cent * (_sigmoid(c_logit) - c_targ) / n_pos

    return report, (g_cls, g_reg, g_cent)


def head_predictor(params: HeadParams, stage: int, record=None):
    """Proposals -> Predictions predictor for one stage's head.

    One batched forward over all of a stage's proposal features, then one
    output conversion. record, when given, receives each forward's raw
    StageOutputs and the three branches' hidden activations (cls, reg,
    cent), which training backpropagates through.
    """
    sp = params.stages[stage - 1]

    def predict(proposals: Proposals) -> Predictions:
        cls_out, cls_h = _forward(sp.cls, proposals.features)
        reg_out, reg_h = _forward(sp.reg, proposals.features)
        cent_out, cent_h = _forward(sp.cent, proposals.features)
        outputs = StageOutputs(cls_out, reg_out, cent_out[:, 0])
        if record is not None:
            record((outputs, (cls_h, reg_h, cent_h)))
        return outputs.predictions()

    return predict


def head_predictors(params: HeadParams, record=None) -> list:
    """One predictor per stage, for run_cascade; record as in head_predictor."""
    return [head_predictor(params, l, record) for l in range(1, params.num_stages + 1)]


def uniform_seed_scores(scene: SyntheticScene) -> np.ndarray:
    """Seeding scores for candidate selection: all ties.

    Scene points arrive in a seeded random permutation, so rank ties
    resolved by index give deterministic uniform coverage of surfaces
    and clutter. A learned seeding score is structurally unavailable
    here: every raw scene point lies on a face or in clutter, so
    assignment labels each selected candidate background and trains any
    ranking head to reject exactly the points it should keep.
    """
    return np.zeros(len(scene.points))


def _check_finite(report: LossReport, step: int) -> None:
    vals = (report.classification_loss, report.regression_loss, report.centerness_loss)
    if not all(math.isfinite(v) for v in vals):
        raise TrainingDivergedError(f"non-finite loss at step {step}, stage {report.stage}: {vals}")


def train_cascade(
    scenes: list[SyntheticScene],
    sched: CpaSchedule,
    steps: int,
    lr: float,
    seed: int,
    *,
    b: int = 64,
    hidden: int = 32,
    denoising_k: int = 4,
    weights: LossWeights = LossWeights(),
    weighting: str = "exp_neg_dist",
) -> tuple[HeadParams, list[LossReport]]:
    """SGD over the scenes one at a time, in round-robin order.

    Each scene's stage-1 proposals are seeded once: b uniform candidates
    plus a pinned denoising group (the denoising_k points nearest each
    ground-truth center). Step s runs the cascade on scene s % len(scenes)
    with the step's starting heads. Each stage then takes one SGD update
    from the gradient of its losses on its recorded inputs and assignment.
    A prediction the cascade rejects or a box it cannot decode raises
    TrainingDivergedError, as does a non-finite loss or an update that
    leaves a non-finite parameter.
    Returns the trained parameters and one LossReport per (step, stage).
    """
    if steps < 1:
        raise ValueError(f"need steps >= 1, got {steps}")
    if denoising_k < 1:
        raise ValueError(f"need denoising_k >= 1, got {denoising_k}")
    if not scenes:
        raise ValueError("need at least one training scene")
    feature_dim = scenes[0].features.shape[1]
    num_classes = scenes[0].config.num_classes
    for s in scenes:
        if s.features.shape[1] != feature_dim or s.config.num_classes != num_classes:
            raise ValueError("all training scenes must share feature_dim and num_classes")

    params = init_head_params(feature_dim, num_classes, sched.num_stages, hidden, seed)
    # The SGD update works in place, so these predictors follow the training.
    # Each records its forward, which the stage's backward pass reuses.
    forwards: list = []
    predictors = head_predictors(params, forwards.append)
    # Uniform seeding picks the same stage-1 proposals at every step.
    seeded = [scene_proposals(s, uniform_seed_scores(s), b, denoising_k=denoising_k)
              for s in scenes]
    history: list[LossReport] = []
    for step in range(steps):
        i = step % len(scenes)
        forwards.clear()
        try:
            trace = run_cascade(seeded[i], predictors, sched, scenes[i].gt_boxes,
                                weighting=weighting)
        except (PredictorOutputError, InvalidDeltasError) as exc:
            raise TrainingDivergedError(f"cascade failed at step {step}: {exc}") from exc
        for l, (sp, rec, (outputs, acts)) in enumerate(
                zip(params.stages, trace.stages, forwards), start=1):
            report, (g_cls, g_reg, g_cent) = compute_losses(
                outputs, rec.assignment, weights, step=step, stage=l
            )
            _check_finite(report, step)
            history.append(report)
            for (name, bp), h, g in zip(
                sp.branches().items(), acts, (g_cls, g_reg, g_cent[:, None])
            ):
                grads = _backward(bp, rec.proposals_in.features, h, g)
                # An overflow goes unwarned: the check after each array reports it.
                with np.errstate(over="ignore", invalid="ignore"):
                    for key, arr, ga in zip(("w1", "b1", "w2", "b2"), bp.arrays(), grads):
                        arr -= lr * ga
                        if not np.isfinite(arr).all():
                            raise TrainingDivergedError(
                                f"non-finite {name} {key} after the update at step {step}, "
                                f"stage {l}")
    return params, history
