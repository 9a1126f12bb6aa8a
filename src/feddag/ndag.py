"""Adversarial novel-domain generation: the clients' local training loop.

Each mini-batch runs two moves of a teacher/student/generator game.  The
generator perturbs inputs to push student features away from teacher
features (discrepancy capped at m so the adversary cannot run off), while
still keeping the perturbed batch classifiable.  The student then trains on
the perturbed batch to classify it and to re-align its features with the
teacher.  The teacher trails the student by exponential moving average and
is what the client uploads.

The clients of a round train in lockstep.  A round takes and returns their
weights as rows of stacked (C, P) arrays, and each batch step runs once for
a stack of clients whose batches have the same size, on (C, B, d)
activations, so numpy dispatches each op once per stack rather than once
per client.  Every stacked op is bitwise equal to its per-client form, so a
client's result does not depend on which clients share its stack.

Students and generators start each round from the global models, and their
momentum buffers start at zero.  The teacher rows are the only per-client
state that a caller carries from one round to the next.  A round allocates
each stack's gradient and momentum blocks once (params.SgdRows), and the
student and generator gradients are written straight into them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nets
from .params import DimensionMismatch, SgdRows, sgd_step


# Feature rows with a smaller norm have no direction to compare.
DEGENERATE_NORM = 1e-12


class DivergenceError(RuntimeError):
    """Training produced non-finite losses or gradients.

    client is the failing client's position in its stacked round (or among
    the scored uploads), once known; the message then starts with it.
    """

    def __init__(self, message: str, client: int | None = None):
        super().__init__(message if client is None else f"client {client}: {message}")
        self.client = client


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
        # Written so that NaN fails every bound.
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not self.m > 0.0:
            raise ValueError(f"m must be > 0, got {self.m}")
        if not 0.0 <= self.ema_decay <= 1.0:
            raise ValueError(f"ema_decay must be in [0, 1], got {self.ema_decay}")
        if not self.lr > 0.0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not self.weight_decay >= 0.0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass(frozen=True, slots=True)
class BatchTrace:
    batch: int
    l_cls_g: float | None
    l_dis: float | None
    l_cls_s: float
    l_sim: float | None

    def __reduce__(self):
        # The dataclass default walks fields() for every object; leg workers
        # pickle thousands of these.
        return BatchTrace, (self.batch, self.l_cls_g, self.l_dis, self.l_cls_s, self.l_sim)


@dataclass(frozen=True)
class RoundResult:
    """One local round of C clients; every array holds one row per client.

    generator and teacher are None when the round ran without NDAG.
    client_degenerate_rows counts each client's degenerate feature rows over
    its batches.
    """

    student: np.ndarray
    generator: np.ndarray | None
    teacher: np.ndarray | None
    last_grads: np.ndarray
    mean_train_losses: list[float]
    traces: list[list[BatchTrace]]
    client_degenerate_rows: tuple[int, ...]

    @property
    def degenerate_rows(self) -> int:
        """The round's degenerate feature rows, totalled over clients and batches."""
        return sum(self.client_degenerate_rows)

    @property
    def uploads(self) -> np.ndarray:
        """What the clients send: the teachers with NDAG, the students without."""
        return self.student if self.teacher is None else self.teacher


def generate(
    gen_params,
    gen_arch: nets.GenArch,
    x_batch: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """Perturbed batch clip(x + alpha * G(x), 0, 1); alpha=0 returns x clipped.

    The bounds are the data's range: both loaders normalize features to [0, 1].

    gen_params is a ParamVector, or stacked rows (C, G) with x (C, B, d).
    """
    delta = nets.gen_apply(gen_params, gen_arch, x_batch)
    return np.clip(np.asarray(x_batch, dtype=np.float64) + alpha * delta, 0.0, 1.0)


@dataclass
class ClientStack:
    """The weights of C clients as rows of stacked arrays, updated in place.

    generator and teacher are None when the round runs without NDAG.
    errors maps a row to the first check it failed in the current step.
    """

    student: SgdRows
    generator: SgdRows | None = None
    teacher: np.ndarray | None = None
    errors: dict[int, DivergenceError] = field(default_factory=dict)

    def take(self, positions: list[int]) -> ClientStack:
        """The given rows (ascending) as a stack of their own.

        Consecutive rows are views, so steps on them update this stack
        directly; other rows are copies that put() writes back.
        """
        rows = _rows(positions)
        return ClientStack(
            self.student.take(rows),
            None if self.generator is None else self.generator.take(rows),
            None if self.teacher is None else self.teacher[rows],
        )

    def put(self, positions: list[int], part: ClientStack) -> None:
        """Adopt a taken part's updates and failures.

        The student gradients come back too (they are the round's
        last_grads); the generator's are not read after the step.
        """
        rows = _rows(positions)
        if not isinstance(rows, slice):
            self.student.put(rows, part.student)
            if self.generator is not None:
                self.generator.put(rows, part.generator, grad=False)
                self.teacher[rows] = part.teacher
        for row, exc in part.errors.items():
            self.errors.setdefault(positions[row], exc)

    def check(self, ok: np.ndarray, message: str) -> None:
        """Record DivergenceError(message) for each row not ok, unless it failed earlier."""
        if not ok.all():
            for row in np.flatnonzero(~ok).tolist():
                self.errors.setdefault(row, DivergenceError(message))

    def raise_failure(self) -> None:
        """Raise the recorded error of the lowest failed row, tagged with that row."""
        if self.errors:
            row = min(self.errors)
            exc = self.errors[row]
            raise type(exc)(str(exc), row)


def _rows(positions: list[int]):
    """Index for ascending row positions: a slice when they are consecutive."""
    first, last = positions[0], positions[-1]
    if last - first + 1 == len(positions):
        return slice(first, last + 1)
    return np.array(positions)


def _collapse_guard(stack: ClientStack, valid: np.ndarray, finite: np.ndarray) -> np.ndarray:
    """Degenerate feature rows per client; fails clients where most are degenerate.

    A row whose teacher or student norm is non-finite diverged rather than
    collapsed: it fails its client with DivergenceError, which wins over the
    collapse check, and it is not counted as degenerate.
    """
    stack.check(finite.all(axis=1), "non-finite features")
    n = valid.shape[1]
    bad = n - (valid | ~finite).sum(axis=1)
    for row in np.flatnonzero(bad * 2 > n).tolist():
        stack.errors.setdefault(
            row, FeatureCollapse(f"{bad[row]}/{n} feature rows below the normalization floor")
        )
    return bad


def _row_dot(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """values[c] @ weights for every row c, each a plain 1-D dot."""
    return (values[:, None, :] @ weights[:, None])[:, 0, 0]


def _class_max(logits: np.ndarray) -> np.ndarray:
    """logits.max(axis=2), as a running np.maximum over the class columns.

    At a few classes this is K - 1 elementwise ops instead of a reduction
    over a short axis: 9 us against 157 us at (16, 179, 3).  The two differ
    only where numpy's reduction returns the other zero of a +0.0/-0.0 tie
    (seen from 9 classes on an AVX-512 host) or a default NaN in place of
    a row's own NaN bits.  No finite loss or gradient depends on either:
    the shifted logits exp to 1 either way, and a tie makes the
    log-sum-exp at least log 2.
    """
    top = logits[:, :, 0].copy()
    for k in range(1, logits.shape[2]):
        np.maximum(top, logits[:, :, k], out=top)
    return top


def _class_sum(ez: np.ndarray) -> np.ndarray:
    """ez.sum(axis=2, keepdims=True), bit for bit, as a running add below 8 classes.

    numpy adds fewer than 8 entries in order, so K - 1 elementwise adds give
    its bits: 12 us against 53 us for the reduction at (16, 179, 3).  From 8
    entries on it sums pairwise, in an order a running add does not follow.
    """
    if ez.shape[2] >= 8:
        return ez.sum(axis=2, keepdims=True)
    total = ez[:, :, 0].copy()
    for k in range(1, ez.shape[2]):
        total += ez[:, :, k]
    return total[:, :, None]


def _log_softmax_parts(logits: np.ndarray):
    """(logits - class max, its exp, the exp's class sum with a last axis of 1)."""
    shifted = logits - _class_max(logits)[:, :, None]
    ez = np.exp(shifted)
    return shifted, ez, _class_sum(ez)


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy (max-shifted) per client and its logit gradient.

    logits is (C, B, K) and labels (C, B), or (1, B) shared by all; the loss is (C,).
    """
    c, n, _ = logits.shape
    logp, dz, sez = _log_softmax_parts(logits)
    logp -= np.log(sez)
    picked = (np.arange(c)[:, None], np.arange(n), labels)
    # .mean(axis=1)'s own ufuncs, without its Python wrapper: the same bits.
    loss = -np.add.reduce(logp[picked], axis=1) / n
    dz /= sez
    dz[picked] -= 1.0
    dz *= 1.0 / n
    return loss, dz


def cross_entropy_loss(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """cross_entropy's loss alone, bit for bit, with no gradient built."""
    c, n, _ = logits.shape
    shifted, _, sez = _log_softmax_parts(logits)
    picked = shifted[np.arange(c)[:, None], np.arange(n), labels]
    return -np.add.reduce(picked - np.log(sez[:, :, 0]), axis=1) / n


def _feature_distance(t_feats: np.ndarray, feats: np.ndarray):
    """Row-wise || t/||t|| - f/||f|| ||^2 between (C, B, D) feature stacks.

    Rows where either side has norm < DEGENERATE_NORM are invalid: their
    distance is 0 and no gradient flows through them.  Returns (distances,
    valid, finite, grad), the first three (C, B): finite marks the rows where
    both norms are finite, and grad(g) is the gradient of sum(g * distances)
    w.r.t. feats.
    """
    # np.linalg.norm(x, axis=2)'s own ufuncs, without its Python wrapper: the same bits.
    nt = np.sqrt(np.add.reduce(t_feats * t_feats, axis=2))
    nf = np.sqrt(np.add.reduce(feats * feats, axis=2))
    valid = (nt >= DEGENERATE_NORM) & (nf >= DEGENERATE_NORM)
    finite = np.isfinite(nt + nf)
    safe_nf = np.where(valid, nf, 1.0)
    u = t_feats / np.where(valid, nt, 1.0)[:, :, None]
    v = feats / safe_nf[:, :, None]
    diff = u - v
    dist = np.where(valid, (diff * diff).sum(axis=2), 0.0)
    uv = (u * v).sum(axis=2)

    def grad(g):
        # d = 2 - 2 u.v on unit vectors, so dd/df = -2 (u - (u.v) v) / ||f||
        gv = np.where(valid, g, 0.0)[:, :, None]
        return gv * (-2.0) * (u - uv[:, :, None] * v) / safe_nf[:, :, None]

    return dist, valid, finite, grad


def generator_grad(
    stack: ClientStack,
    task_arch: nets.TaskArch,
    gen_arch: nets.GenArch,
    x: np.ndarray,
    y: np.ndarray,
    hyper: NdagHyper,
    teacher_feats: np.ndarray,
):
    """Generator objective mean L_cls - mean min(L_dis, m) per client, and its gradients.

    The students are frozen.  x is (C, B, d), y (C, B) and teacher_feats
    (C, B, F).  Returns (l_cls, l_dis, degenerate_rows, grad, x_hat_grad):
    the first three are (C,), grad is the flat generator gradient (C, G) in
    pack order and x_hat_grad the objective's gradient w.r.t. the perturbed
    batch, which reaches the generator through clip -> alpha -> tanh.
    Clients whose features collapse or are non-finite are recorded in stack.errors.
    """
    n = x.shape[1]
    gen_layers = nets.split_layers(stack.generator.params, gen_arch.layer_dims())
    stu_layers = nets.split_layers(stack.student.params, task_arch.layer_dims())
    gen_acts, gen_out = nets.mlp_forward(gen_layers, x)
    delta = np.tanh(gen_out)
    pre = x + delta * hyper.alpha
    inside = (pre >= 0.0) & (pre <= 1.0)
    acts, logits = nets.mlp_forward(stu_layers, np.clip(pre, 0.0, 1.0))
    ce, g_logits = cross_entropy(logits, y)
    dist, valid, finite, dist_grad = _feature_distance(teacher_feats, acts[-1])
    bad = _collapse_guard(stack, valid, finite)
    weights = np.full(n, 1.0 / n)
    dis = _row_dot(np.minimum(dist, hyper.m), weights)
    # The capped branch (dist >= m) carries exactly zero gradient.
    g_feats = dist_grad(-weights * (dist < hyper.m))
    x_hat_grad = nets.mlp_backward(stu_layers, acts, g_logits, g_feats)
    g_out = x_hat_grad * inside * hyper.alpha * (1.0 - delta * delta)
    grad = nets.mlp_backward(gen_layers, gen_acts, g_out, out=stack.generator.grad)
    return ce, dis, bad, grad, x_hat_grad


def generator_step(
    stack: ClientStack,
    task_arch: nets.TaskArch,
    gen_arch: nets.GenArch,
    x: np.ndarray,
    y: np.ndarray,
    hyper: NdagHyper,
    teacher_feats: np.ndarray,
):
    """One adversarial step on every client's generator, in place.

    Minimizes mean L_cls - mean min(L_dis, m) through the frozen student, so
    the generator learns perturbations that are hard in feature space yet
    still classifiable.  Returns per-client (l_cls, l_dis, degenerate_rows);
    clients that diverge are recorded in stack.errors.
    """
    ce, dis, bad, grad, _ = generator_grad(stack, task_arch, gen_arch, x, y, hyper, teacher_feats)
    ok = sgd_step(stack.generator, grad, hyper.lr, hyper.momentum, hyper.weight_decay)
    stack.check(ok, "generator step: non-finite parameters or gradient")
    stack.check(np.isfinite(ce), "generator l_cls is non-finite")
    stack.check(np.isfinite(dis), "l_dis is non-finite")
    return ce, dis, bad


def student_grad(
    stack: ClientStack,
    task_arch: nets.TaskArch,
    gen_arch: nets.GenArch,
    x: np.ndarray,
    y: np.ndarray,
    hyper: NdagHyper,
    teacher_feats: np.ndarray,
):
    """Student objective mean L_cls + mean L_sim on the freshly perturbed batch.

    Shapes as in generator_grad.  Returns (l_cls, l_sim, degenerate_rows,
    grad) with grad the flat student gradient (C, P) in pack order.
    """
    n = x.shape[1]
    x_hat = generate(stack.generator.params, gen_arch, x, hyper.alpha)
    stu_layers = nets.split_layers(stack.student.params, task_arch.layer_dims())
    acts, logits = nets.mlp_forward(stu_layers, x_hat)
    ce, g_logits = cross_entropy(logits, y)
    dist, valid, finite, dist_grad = _feature_distance(teacher_feats, acts[-1])
    bad = _collapse_guard(stack, valid, finite)
    weights = np.full(n, 1.0 / n)
    grad = nets.mlp_backward(stu_layers, acts, g_logits, dist_grad(weights), out=stack.student.grad)
    return ce, _row_dot(dist, weights), bad, grad


def student_step(
    stack: ClientStack,
    task_arch: nets.TaskArch,
    gen_arch: nets.GenArch,
    x: np.ndarray,
    y: np.ndarray,
    hyper: NdagHyper,
    teacher_feats: np.ndarray,
):
    """One step on every client's student, in place, on the freshly perturbed batch.

    Minimizes mean L_cls + mean L_sim (uncapped discrepancy to the teacher).
    Returns (l_cls, l_sim, degenerate_rows); the flat student gradient
    (C, P) stays in stack.student.grad.
    """
    ce, sim, bad, grad = student_grad(stack, task_arch, gen_arch, x, y, hyper, teacher_feats)
    ok = sgd_step(stack.student, grad, hyper.lr, hyper.momentum, hyper.weight_decay)
    stack.check(ok, "student step: non-finite parameters or gradient")
    stack.check(np.isfinite(ce), "student l_cls is non-finite")
    stack.check(np.isfinite(sim), "l_sim is non-finite")
    return ce, sim, bad


def plain_grad(stack: ClientStack, task_arch: nets.TaskArch, x: np.ndarray, y: np.ndarray):
    """Mean L_cls of each student on its raw batch; returns (l_cls, grad)."""
    stu_layers = nets.split_layers(stack.student.params, task_arch.layer_dims())
    acts, logits = nets.mlp_forward(stu_layers, x)
    ce, g_logits = cross_entropy(logits, y)
    grad = nets.mlp_backward(stu_layers, acts, g_logits, out=stack.student.grad)
    return ce, grad


def plain_step(
    stack: ClientStack,
    task_arch: nets.TaskArch,
    x: np.ndarray,
    y: np.ndarray,
    hyper: NdagHyper,
):
    """Classification-only student step on the raw batch (warmup, baselines); returns l_cls."""
    ce, grad = plain_grad(stack, task_arch, x, y)
    ok = sgd_step(stack.student, grad, hyper.lr, hyper.momentum, hyper.weight_decay)
    stack.check(ok, "plain step: non-finite parameters or gradient")
    stack.check(np.isfinite(ce), "l_cls is non-finite")
    return ce


def ema_update(teacher: np.ndarray, student: np.ndarray, decay: float) -> np.ndarray:
    """Teachers trail their students, in place: T' = decay * T + (1 - decay) * omega.

    teacher and student are stacked rows (C, P).  The direct convex form
    keeps the endpoints exact: decay 1 leaves a teacher unchanged, decay 0
    copies the student.  Returns the rows that stayed finite.
    """
    if teacher.shape != student.shape:
        raise DimensionMismatch(f"teacher shape {teacher.shape} != student {student.shape}")
    teacher *= decay
    teacher += (1.0 - decay) * student
    return np.isfinite(teacher).all(axis=1)


def _local_step(part, k, task_arch, gen_arch, x, y, hyper):
    """Batch step k for a stack of clients, in place; NDAG when it has generators.

    The student gradients land in part.student.grad.  Returns one
    BatchTrace per client (the NDAG losses None without NDAG) and each
    client's degenerate feature rows.
    """
    if part.generator is None:
        l_cls = plain_step(part, task_arch, x, y, hyper)
        return [BatchTrace(k, None, None, l, None) for l in l_cls.tolist()], [0] * len(l_cls)
    t_feats, _ = nets.task_apply(part.teacher, task_arch, x)
    l_cls_g, l_dis, bad_g = generator_step(part, task_arch, gen_arch, x, y, hyper, t_feats)
    l_cls_s, l_sim, bad_s = student_step(part, task_arch, gen_arch, x, y, hyper, t_feats)
    part.check(ema_update(part.teacher, part.student.params, hyper.ema_decay),
               "teacher is non-finite")
    losses = zip(l_cls_g.tolist(), l_dis.tolist(), l_cls_s.tolist(), l_sim.tolist())
    return [BatchTrace(k, *row) for row in losses], (bad_g + bad_s).tolist()


def client_round(
    student: np.ndarray,
    generator: np.ndarray | None,
    teacher: np.ndarray | None,
    task_arch: nets.TaskArch,
    gen_arch: nets.GenArch,
    xs: list[np.ndarray],
    ys: list[np.ndarray],
    hyper: NdagHyper,
    rngs: list[np.random.Generator],
    local_epochs: int = 1,
) -> RoundResult:
    """One local round over shuffled mini-batches for each client, in lockstep.

    student, generator and teacher hold one row per client (writable
    float64) and are trained in place; the result holds the same arrays,
    and its last_grads is the round's student gradient block, where each
    client's step writes directly (or through put() for rows that are not
    consecutive).
    NDAG runs when the generator and teacher rows are given, and plain
    classification when both are None.  Momentum buffers start at zero.

    Client c trains on (xs[c], ys[c]) and shuffles with rngs[c], drawing
    one permutation per local epoch, so it sees exactly the batches it
    would see alone.  It gathers its shuffled set once per epoch, and each
    step's batch is the next slice of that set.  At local step k the
    clients that still have a batch are grouped by batch size, and each
    group trains as one stack (a batch is never padded).

    With NDAG the order per batch is: perturb, generator step, re-perturb,
    student step, EMA the teacher.  Teacher features are computed once per
    batch from the teacher as of the end of the previous batch (before this
    batch's EMA update) and shared by both steps, so with decay = 0 the
    similarity term stays at its zero-gradient minimum and training
    degenerates to plain classification.  Without NDAG the student just
    trains on clean batches and is itself the upload.

    Every client runs each local step to its end.  If any failed, the
    DivergenceError of the lowest-position client among them is raised,
    with its position as the error's client.
    """
    n_clients = len(student)
    if not n_clients == len(xs) == len(ys) == len(rngs) >= 1:
        raise ValueError("client_round needs one student row, data set and rng per client")
    if (generator is None) != (teacher is None):
        raise ValueError("an ndag round needs both generator and teacher rows")
    if teacher is not None and (len(generator) != n_clients or len(teacher) != n_clients):
        raise DimensionMismatch("generator and teacher need one row per client")
    xs = [np.asarray(x, dtype=np.float64) for x in xs]
    sizes = [x.shape[0] for x in xs]
    for n, labels in zip(sizes, ys):
        if n == 0:
            raise ValueError("client_round needs a nonempty training set")
        if labels.shape != (n,):
            raise ValueError(f"target shape {labels.shape} does not match {n} inputs")

    stack = ClientStack(SgdRows(student))
    if teacher is not None:
        stack.generator = SgdRows(generator)
        stack.teacher = teacher
    batch = hyper.batch_size
    n_batches = [-(-n // batch) for n in sizes]
    orders = [[rng.permutation(n) for _ in range(local_epochs)] for rng, n in zip(rngs, sizes)]
    shuffled = [None] * n_clients  # each client's (x, y) in its current epoch's order
    spans = [None] * n_clients  # the rows of shuffled that make each client's current batch
    traces: list[list[BatchTrace]] = [[] for _ in range(n_clients)]
    degenerate = [0] * n_clients

    for k in range(local_epochs * max(n_batches)):
        groups: dict[int, list[int]] = {}
        for c, nb in enumerate(n_batches):
            epoch, j = divmod(k, nb)
            if epoch >= local_epochs:
                continue
            if j == 0:
                order = orders[c][epoch]
                shuffled[c] = xs[c][order], ys[c][order]
            start = j * batch
            stop = min(start + batch, sizes[c])
            spans[c] = slice(start, stop)
            groups.setdefault(stop - start, []).append(c)
        for size, clients in groups.items():
            part = stack.take(clients)
            xb = np.concatenate([shuffled[c][0][spans[c]] for c in clients])
            yb = np.concatenate([shuffled[c][1][spans[c]] for c in clients])
            xb = xb.reshape(len(clients), size, *xb.shape[1:])
            yb = yb.reshape(len(clients), size)
            batch_traces, bad = _local_step(part, k, task_arch, gen_arch, xb, yb, hyper)
            stack.put(clients, part)
            for c, t, rows in zip(clients, batch_traces, bad):
                traces[c].append(t)
                degenerate[c] += rows
        stack.raise_failure()

    return RoundResult(
        student=stack.student.params,
        generator=None if stack.generator is None else stack.generator.params,
        teacher=stack.teacher,
        last_grads=stack.student.grad,
        mean_train_losses=[float(np.mean([t.l_cls_s for t in rows])) for rows in traces],
        traces=traces,
        client_degenerate_rows=tuple(degenerate),
    )
