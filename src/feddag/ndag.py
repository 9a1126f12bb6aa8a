"""Adversarial novel-domain generation: the per-client training loop.

Each mini-batch runs two moves of a teacher/student/generator game.  The
generator perturbs inputs to push student features away from teacher
features (discrepancy capped at m so the adversary cannot run off), while
still keeping the perturbed batch classifiable.  The student then trains on
the perturbed batch to classify it and to re-align its features with the
teacher.  The teacher trails the student by exponential moving average and
is what the client uploads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import nets
from .params import NonFiniteValues, ParamVector, SgdState, param_axpy, param_scale, sgd_step


# Feature rows with a smaller norm have no direction to compare.
DEGENERATE_NORM = 1e-12


class DivergenceError(RuntimeError):
    """Training produced non-finite losses or gradients."""


class FeatureCollapse(DivergenceError):
    """More than half of a batch mapped to (near-)zero feature vectors."""


@dataclass(frozen=True)
class NdagHyper:
    alpha: float = 0.3
    m: float = 0.1
    ema_decay: float = 0.999
    lr: float = 0.001
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 32

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.m <= 0.0:
            raise ValueError(f"cap m must be > 0, got {self.m}")
        if not 0.0 <= self.ema_decay <= 1.0:
            raise ValueError(f"ema_decay must be in [0, 1], got {self.ema_decay}")
        if self.lr <= 0.0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0.0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass(frozen=True)
class ClientModels:
    """Teacher/student/generator weights plus the optimizer buffers."""

    student: ParamVector
    generator: ParamVector
    teacher: ParamVector | None = None
    student_opt: SgdState = SgdState()
    gen_opt: SgdState = SgdState()


@dataclass(frozen=True)
class BatchTrace:
    batch: int
    l_cls_g: float | None
    l_dis: float | None
    l_cls_s: float
    l_sim: float | None


@dataclass(frozen=True)
class ClientRoundResult:
    models: ClientModels
    upload: ParamVector
    last_grad: ParamVector
    mean_train_loss: float
    trace: list[BatchTrace]
    degenerate_rows: int


def generate(
    gen_params: ParamVector,
    gen_arch: nets.GenArch,
    x_batch: np.ndarray,
    alpha: float,
    lo: float = 0.0,
    hi: float = 1.0,
) -> np.ndarray:
    """Perturbed batch clamp(x + alpha * G(x)); alpha=0 returns x clamped."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    delta = nets.gen_apply(gen_params, gen_arch, x_batch)
    return np.clip(np.asarray(x_batch, dtype=np.float64) + alpha * delta, lo, hi)


def _check_finite(name: str, value: float) -> float:
    if not np.isfinite(value):
        raise DivergenceError(f"{name} is non-finite")
    return float(value)


def _collapse_guard(valid: np.ndarray) -> int:
    bad = int(valid.size - valid.sum())
    if bad * 2 > valid.size:
        raise FeatureCollapse(
            f"{bad}/{valid.size} feature rows below the normalization floor"
        )
    return bad


def _cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy (max-shifted) and its logit gradient."""
    n = logits.shape[0]
    zmax = logits.max(axis=1, keepdims=True)
    ez = np.exp(logits - zmax)
    sez = ez.sum(axis=1, keepdims=True)
    logp = (logits - zmax) - np.log(sez)
    loss = -logp[np.arange(n), labels].mean()
    dz = ez / sez
    dz[np.arange(n), labels] -= 1.0
    return loss, dz * (1.0 / n)


def _feature_distance(t_feats: np.ndarray, feats: np.ndarray):
    """Row-wise || t/||t|| - f/||f|| ||^2 between (B, D) feature matrices.

    Rows where either side has norm < DEGENERATE_NORM are invalid: their
    distance is 0 and no gradient flows through them.  Returns (distances,
    valid, grad) where grad(g) is the gradient of sum(g * distances)
    w.r.t. feats.
    """
    nt = np.linalg.norm(t_feats, axis=1)
    nf = np.linalg.norm(feats, axis=1)
    valid = (nt >= DEGENERATE_NORM) & (nf >= DEGENERATE_NORM)
    safe_nf = np.where(valid, nf, 1.0)
    u = t_feats / np.where(valid, nt, 1.0)[:, None]
    v = feats / safe_nf[:, None]
    diff = u - v
    dist = np.where(valid, (diff * diff).sum(axis=1), 0.0)
    uv = (u * v).sum(axis=1)

    def grad(g):
        # d = 2 - 2 u.v on unit vectors, so dd/df = -2 (u - (u.v) v) / ||f||
        gv = np.where(valid, g, 0.0)[:, None]
        return gv * (-2.0) * (u - uv[:, None] * v) / safe_nf[:, None]

    return dist, valid, grad


def generator_grad(
    models: ClientModels,
    task_arch: nets.TaskArch,
    gen_arch: nets.GenArch,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    hyper: NdagHyper,
    teacher_feats: np.ndarray,
    lo: float = 0.0,
    hi: float = 1.0,
):
    """Generator objective mean L_cls - mean min(L_dis, m) and its gradients.

    The student is frozen.  Returns (l_cls, l_dis, degenerate_rows, grad,
    x_hat_grad): grad is the flat generator gradient in pack order and
    x_hat_grad the objective's gradient w.r.t. the perturbed batch, which
    reaches the generator through clip -> alpha -> tanh.
    """
    n = x_batch.shape[0]
    gen_layers = nets.split_layers(models.generator.values, gen_arch.layer_dims())
    stu_layers = nets.split_layers(models.student.values, task_arch.layer_dims())
    x = np.asarray(x_batch, dtype=np.float64)
    gen_acts, gen_masks, gen_out = nets.mlp_forward(gen_layers, x)
    delta = np.tanh(gen_out)
    pre = x + delta * hyper.alpha
    inside = (pre >= lo) & (pre <= hi)
    acts, masks, logits = nets.mlp_forward(stu_layers, np.clip(pre, lo, hi))
    ce, g_logits = _cross_entropy(logits, y_batch)
    dist, valid, dist_grad = _feature_distance(teacher_feats, acts[-1])
    bad = _collapse_guard(valid)
    weights = np.full(n, 1.0 / n)
    dis = np.minimum(dist, hyper.m) @ weights
    # The capped branch (dist >= m) carries exactly zero gradient.
    g_feats = dist_grad(-weights * (dist < hyper.m))
    x_hat_grad = nets.mlp_backward(stu_layers, acts, masks, g_logits, g_feats, frozen=True)
    g_out = x_hat_grad * inside * hyper.alpha * (1.0 - delta * delta)
    grad = nets.mlp_backward(gen_layers, gen_acts, gen_masks, g_out)
    return ce, dis, bad, grad, x_hat_grad


def generator_step(
    models: ClientModels,
    task_arch: nets.TaskArch,
    gen_arch: nets.GenArch,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    hyper: NdagHyper,
    teacher_feats: np.ndarray,
    lo: float = 0.0,
    hi: float = 1.0,
) -> tuple[ClientModels, float, float, int]:
    """One adversarial step on the generator.

    Minimizes mean L_cls - mean min(L_dis, m) through the frozen student, so
    the generator learns perturbations that are hard in feature space yet
    still classifiable.  Returns (models, l_cls, l_dis, degenerate_rows).
    """
    ce, dis, bad, grad, _ = generator_grad(
        models, task_arch, gen_arch, x_batch, y_batch, hyper, teacher_feats, lo, hi
    )
    try:
        new_gen, new_opt = sgd_step(
            models.generator,
            ParamVector(grad),
            hyper.lr,
            hyper.momentum,
            hyper.weight_decay,
            models.gen_opt,
        )
    except NonFiniteValues as exc:
        raise DivergenceError(f"generator step: {exc}") from exc
    l_cls = _check_finite("generator l_cls", float(ce))
    l_dis = _check_finite("l_dis", float(dis))
    return replace(models, generator=new_gen, gen_opt=new_opt), l_cls, l_dis, bad


def student_grad(
    models: ClientModels,
    task_arch: nets.TaskArch,
    gen_arch: nets.GenArch,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    hyper: NdagHyper,
    teacher_feats: np.ndarray,
    lo: float = 0.0,
    hi: float = 1.0,
):
    """Student objective mean L_cls + mean L_sim on the freshly perturbed batch.

    Returns (l_cls, l_sim, degenerate_rows, grad) with grad the flat student
    gradient in pack order.
    """
    n = x_batch.shape[0]
    x_hat = generate(models.generator, gen_arch, x_batch, hyper.alpha, lo, hi)
    stu_layers = nets.split_layers(models.student.values, task_arch.layer_dims())
    acts, masks, logits = nets.mlp_forward(stu_layers, x_hat)
    ce, g_logits = _cross_entropy(logits, y_batch)
    dist, valid, dist_grad = _feature_distance(teacher_feats, acts[-1])
    bad = _collapse_guard(valid)
    weights = np.full(n, 1.0 / n)
    grad = nets.mlp_backward(stu_layers, acts, masks, g_logits, dist_grad(weights))
    return ce, dist @ weights, bad, grad


def student_step(
    models: ClientModels,
    task_arch: nets.TaskArch,
    gen_arch: nets.GenArch,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    hyper: NdagHyper,
    teacher_feats: np.ndarray,
    lo: float = 0.0,
    hi: float = 1.0,
) -> tuple[ClientModels, ParamVector, float, float, int]:
    """One student step on the freshly perturbed batch.

    Minimizes mean L_cls + mean L_sim (uncapped discrepancy to the teacher).
    Returns (models, grad, l_cls, l_sim, degenerate_rows); grad is the flat
    student gradient, kept for sharpness probing at aggregation time.
    """
    ce, sim, bad, flat = student_grad(
        models, task_arch, gen_arch, x_batch, y_batch, hyper, teacher_feats, lo, hi
    )
    try:
        grad = ParamVector(flat)
        new_student, new_opt = sgd_step(
            models.student, grad, hyper.lr, hyper.momentum, hyper.weight_decay, models.student_opt
        )
    except NonFiniteValues as exc:
        raise DivergenceError(f"student step: {exc}") from exc
    l_cls = _check_finite("student l_cls", float(ce))
    l_sim = _check_finite("l_sim", float(sim))
    return replace(models, student=new_student, student_opt=new_opt), grad, l_cls, l_sim, bad


def plain_grad(models: ClientModels, task_arch: nets.TaskArch, x_batch, y_batch):
    """Mean L_cls of the student on the raw batch; returns (l_cls, grad)."""
    stu_layers = nets.split_layers(models.student.values, task_arch.layer_dims())
    acts, masks, logits = nets.mlp_forward(stu_layers, np.asarray(x_batch, dtype=np.float64))
    ce, g_logits = _cross_entropy(logits, y_batch)
    grad = nets.mlp_backward(stu_layers, acts, masks, g_logits)
    return ce, grad


def plain_step(
    models: ClientModels,
    task_arch: nets.TaskArch,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    hyper: NdagHyper,
) -> tuple[ClientModels, ParamVector, float]:
    """Classification-only student step on the raw batch (warmup, baselines)."""
    ce, flat = plain_grad(models, task_arch, x_batch, y_batch)
    try:
        grad = ParamVector(flat)
        new_student, new_opt = sgd_step(
            models.student, grad, hyper.lr, hyper.momentum, hyper.weight_decay, models.student_opt
        )
    except NonFiniteValues as exc:
        raise DivergenceError(f"plain step: {exc}") from exc
    l_cls = _check_finite("l_cls", float(ce))
    return replace(models, student=new_student, student_opt=new_opt), grad, l_cls


def ema_update(teacher: ParamVector, student: ParamVector, decay: float) -> ParamVector:
    """Teacher trails the student: T' = decay * T + (1 - decay) * omega.

    The direct convex form keeps the endpoints exact: decay 1 returns the
    teacher unchanged, decay 0 returns the student.
    """
    if not 0.0 <= decay <= 1.0:
        raise ValueError(f"decay must be in [0, 1], got {decay}")
    return param_axpy(decay, teacher, param_scale(1.0 - decay, student))


def client_round(
    models: ClientModels,
    task_arch: nets.TaskArch,
    gen_arch: nets.GenArch,
    xs: np.ndarray,
    ys: np.ndarray,
    hyper: NdagHyper,
    ndag_enabled: bool,
    rng: np.random.Generator,
    local_epochs: int = 1,
    lo: float = 0.0,
    hi: float = 1.0,
) -> ClientRoundResult:
    """One local round over shuffled mini-batches.

    With ndag_enabled the order per batch is: perturb, generator step,
    re-perturb, student step, EMA the teacher.  Teacher features are
    computed once per batch from the teacher as of the end of the previous
    batch (before this batch's EMA update) and shared by both steps, so
    with decay = 0 the similarity term stays at its zero-gradient minimum
    and training degenerates to plain classification.  Without
    ndag_enabled the student just trains on clean batches and is itself
    the upload.
    """
    n = xs.shape[0]
    if n == 0:
        raise ValueError("client_round needs a nonempty training set")
    if ys.shape != (n,):
        raise ValueError(f"target shape {ys.shape} does not match {n} inputs")
    if local_epochs < 1:
        raise ValueError(f"local_epochs must be >= 1, got {local_epochs}")
    if ndag_enabled and models.teacher is None:
        raise ValueError("ndag round requires an initialized teacher")

    trace: list[BatchTrace] = []
    cls_losses: list[float] = []
    last_grad: ParamVector | None = None
    degenerate = 0
    batch_idx = 0
    for _ in range(local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, hyper.batch_size):
            idx = order[start : start + hyper.batch_size]
            xb, yb = xs[idx], ys[idx]
            if ndag_enabled:
                t_feats, _ = nets.task_apply(models.teacher, task_arch, xb)
                models, l_cls_g, l_dis, bad_g = generator_step(
                    models, task_arch, gen_arch, xb, yb, hyper, t_feats, lo, hi
                )
                models, last_grad, l_cls_s, l_sim, bad_s = student_step(
                    models, task_arch, gen_arch, xb, yb, hyper, t_feats, lo, hi
                )
                models = replace(
                    models, teacher=ema_update(models.teacher, models.student, hyper.ema_decay)
                )
                degenerate += bad_g + bad_s
                trace.append(BatchTrace(batch_idx, l_cls_g, l_dis, l_cls_s, l_sim))
            else:
                models, last_grad, l_cls_s = plain_step(models, task_arch, xb, yb, hyper)
                trace.append(BatchTrace(batch_idx, None, None, l_cls_s, None))
            cls_losses.append(l_cls_s)
            batch_idx += 1

    upload = models.teacher if ndag_enabled else models.student
    return ClientRoundResult(
        models=models,
        upload=upload,
        last_grad=last_grad,
        mean_train_loss=float(np.mean(cls_losses)),
        trace=trace,
        degenerate_rows=degenerate,
    )
