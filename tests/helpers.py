"""Shared test oracles: naive forwards, finite differences, reference loops.

Everything here is reimplemented from first principles (per-sample layer
loops, hand-rolled backprop, a standalone federated-averaging loop) so tests
cross-check the package against an independent code path instead of against
itself.  The only thing shared with the package is the flat parameter layout
(W row-major then b, layer by layer), which is the documented contract.
The exceptions are one_client and round_rows, which put clients into the
stacked form the package trains in, and run_round and run_federation, which
train a leg group of one leg, so tests drive the code every federation round
runs, and unequal_csv_bench, a bench fixture.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from feddag import data, ndag, protocol
from feddag.atomic import write_csv
from feddag.nets import TaskArch
from feddag.params import ParamVector, SgdRows


# ---------------------------------------------------------------- layouts


def layer_shapes_task(arch):
    widths = [arch.input_dim, *arch.hidden_dims, arch.feature_dim]
    pairs = list(zip(widths[:-1], widths[1:]))
    pairs.append((arch.feature_dim, arch.num_classes))
    return pairs


def layer_shapes_gen(arch):
    widths = [arch.input_dim, *arch.hidden_dims, arch.input_dim]
    return list(zip(widths[:-1], widths[1:]))


def param_count(arch):
    """Entries of arch's flat parameter vector: (fan_in + 1) * fan_out per layer."""
    return sum((din + 1) * dout for din, dout in arch.layer_dims())


def unpack(values, shapes):
    values = np.asarray(values, dtype=np.float64)
    out, pos = [], 0
    for din, dout in shapes:
        w = values[pos : pos + din * dout].reshape(din, dout)
        pos += din * dout
        b = values[pos : pos + dout]
        pos += dout
        out.append((w, b))
    assert pos == values.size, "flat vector does not match architecture"
    return out


def pack(layers):
    return np.concatenate([np.concatenate([w.reshape(-1), b]) for w, b in layers])


# ------------------------------------------------- naive per-sample forwards


def naive_task_forward(values, arch, X):
    """Per-sample, transposed-matvec re-evaluation of the task net."""
    layers = unpack(values, layer_shapes_task(arch))
    feats, logits = [], []
    for x in np.atleast_2d(np.asarray(X, dtype=np.float64)):
        a = x
        for w, b in layers[:-1]:
            a = np.maximum(w.T @ a + b, 0.0)
        wc, bc = layers[-1]
        feats.append(a)
        logits.append(wc.T @ a + bc)
    return np.array(feats), np.array(logits)


def naive_gen_forward(values, arch, X):
    layers = unpack(values, layer_shapes_gen(arch))
    outs = []
    for x in np.atleast_2d(np.asarray(X, dtype=np.float64)):
        a = x
        for w, b in layers[:-1]:
            a = np.maximum(w.T @ a + b, 0.0)
        wo, bo = layers[-1]
        outs.append(np.tanh(wo.T @ a + bo))
    return np.array(outs)


# ------------------------------------------------------ scalar loss oracles


def ce_mean_ref(logits, y):
    """Mean cross-entropy via logaddexp reduction (different route than exp/sum)."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(y)
    lse = np.logaddexp.reduce(z, axis=1)
    return float((lse - z[np.arange(z.shape[0]), y]).mean())


def nsd_rows_ref(F, H):
    """Row-wise squared distance between unit-normalized feature vectors."""
    out = []
    for f, h in zip(np.asarray(F, dtype=np.float64), np.asarray(H, dtype=np.float64)):
        d = f / np.linalg.norm(f) - h / np.linalg.norm(h)
        out.append(float(d @ d))
    return np.array(out)


def gen_objective_ref(phi, task_values, task_arch, gen_arch, X, y, t_feats, alpha, m):
    """Plain-numpy generator objective: mean CE - mean min(discrepancy, m)."""
    delta = naive_gen_forward(phi, gen_arch, X)
    xh = np.clip(np.asarray(X, dtype=np.float64) + alpha * delta, 0.0, 1.0)
    feats, logits = naive_task_forward(task_values, task_arch, xh)
    ce = ce_mean_ref(logits, y)
    d = nsd_rows_ref(t_feats, feats)
    return ce - float(np.minimum(d, m).mean())


def student_objective_ref(omega, task_arch, x_hat, y, t_feats):
    """Plain-numpy student objective: mean CE + mean discrepancy (uncapped)."""
    feats, logits = naive_task_forward(omega, task_arch, x_hat)
    return ce_mean_ref(logits, y) + float(nsd_rows_ref(t_feats, feats).mean())


# -------------------------------------------------------- finite differences


def composition_margins(task_values, task_arch, gen_values, gen_arch, X, y, t_feats, alpha, m):
    """Smallest distance to any non-differentiable kink of the two objectives.

    Central differences are only trustworthy when no relu pre-activation,
    clip boundary or cap crossing sits within the probe radius; fixtures that
    land too close get resampled rather than tested at a kink.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    mins = {"relu": np.inf, "clip": np.inf, "cap": np.inf, "norm": np.inf}
    gen_layers = unpack(gen_values, layer_shapes_gen(gen_arch))
    task_layers = unpack(task_values, layer_shapes_task(task_arch))
    for row, x in enumerate(X):
        a = x
        for w, b in gen_layers[:-1]:
            pre = w.T @ a + b
            mins["relu"] = min(mins["relu"], float(np.abs(pre).min()))
            a = np.maximum(pre, 0.0)
        wo, bo = gen_layers[-1]
        delta = np.tanh(wo.T @ a + bo)
        raw = x + alpha * delta
        mins["clip"] = min(
            mins["clip"], float(np.abs(raw).min()), float(np.abs(raw - 1.0).min())
        )
        a = np.clip(raw, 0.0, 1.0)
        for w, b in task_layers[:-1]:
            pre = w.T @ a + b
            mins["relu"] = min(mins["relu"], float(np.abs(pre).min()))
            a = np.maximum(pre, 0.0)
        na, nt = float(np.linalg.norm(a)), float(np.linalg.norm(t_feats[row]))
        mins["norm"] = min(mins["norm"], na, nt)
        if na > 0.0 and nt > 0.0:
            d = t_feats[row] / nt - a / na
            mins["cap"] = min(mins["cap"], float(abs(d @ d - m)))
        else:
            mins["cap"] = 0.0
    return mins


def fd_grad(fn, x, h=1e-5):
    """Central finite differences of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        g[i] = (fn(xp) - fn(xm)) / (2.0 * h)
    return g


def max_rel_err(analytic, numeric, floor=1e-6):
    """Worst-entry relative error with an absolute floor for near-zero entries."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float((np.abs(analytic - numeric) / denom).max())


# -------------------------------------------- bitwise mirror of plain training
# These reproduce the package's exact floating-point operation order for the
# classification-only path, so equality assertions can be bit-for-bit.


def mirror_plain_grad(values, arch, X, y):
    """Hand backprop of mean CE through the task net; returns (flat grad, loss)."""
    layers = unpack(values, layer_shapes_task(arch))
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    acts = [X]
    pres = []
    a = X
    for w, b in layers[:-1]:
        pre = a @ w + b
        pres.append(pre)
        a = np.where(pre > 0.0, pre, 0.0)
        acts.append(a)
    wc, bc = layers[-1]
    z = a @ wc + bc
    n = z.shape[0]
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    sez = ez.sum(axis=1, keepdims=True)
    logp = (z - zmax) - np.log(sez)
    loss = -logp[np.arange(n), y].mean()

    dz = ez / sez
    dz[np.arange(n), y] -= 1.0
    g = dz * (1.0 / n)
    grads = [(acts[-1].T @ g, g.sum(axis=0))]
    g = g @ wc.T
    for i in range(len(pres) - 1, -1, -1):
        g = g * (pres[i] > 0.0)
        grads.append((acts[i].T @ g, g.sum(axis=0)))
        if i > 0:
            g = g @ layers[i][0].T
    grads.reverse()
    return pack(grads), float(loss)


def mirror_sgd(p, g, buf, lr, momentum, wd):
    g = g + wd * p
    buf = g if buf is None else momentum * buf + g
    return p - lr * buf, buf


def reference_local_round(theta, arch, X, Y, lr, momentum, wd, batch_size, rng, epochs=1):
    """Standalone plain-SGD local training round (shuffled mini-batches)."""
    p = np.array(theta, dtype=np.float64)
    buf = None
    n = X.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            g, _ = mirror_plain_grad(p, arch, X[idx], Y[idx])
            p, buf = mirror_sgd(p, g, buf, lr, momentum, wd)
    return p


def reference_glorot_init(shapes, rng):
    chunks = []
    for din, dout in shapes:
        s = np.sqrt(6.0 / (din + dout))
        chunks.append(rng.uniform(-s, s, size=din * dout))
        chunks.append(np.zeros(dout))
    return np.concatenate(chunks)


def reference_fedavg(
    train_sets, arch, seed, rounds, lr=0.001, momentum=0.9, wd=5e-4, batch_size=32, epochs=1
):
    """Standalone federated averaging over (X, Y) client train sets.

    Stream tags (21 for init, 23 for per-round batching) mirror the package's
    documented seeding scheme so both sides train on identical batch orders.
    """
    shapes = layer_shapes_task(arch)
    theta = reference_glorot_init(shapes, np.random.default_rng([seed, 21]))
    for r in range(rounds):
        uploads = []
        for i, (X, Y) in enumerate(train_sets):
            rng = np.random.default_rng([seed, 23, r, i])
            uploads.append(
                reference_local_round(theta, arch, X, Y, lr, momentum, wd, batch_size, rng, epochs)
            )
        acc = np.zeros_like(theta)
        for u in uploads:
            acc += u
        theta = acc / len(uploads)
    return theta


# ------------------------------------------------------ one-client stacks


@dataclass(frozen=True)
class Models:
    """One client's weights: student, generator and, once NDAG starts, a teacher."""

    student: ParamVector
    generator: ParamVector
    teacher: ParamVector | None = None


def one_client(models, *arrays, ndag_enabled=True):
    """models as a ClientStack of one row, then each array with a client axis.

    The stacked ndag steps update the stack in place and record failures in
    stack.errors; stack.raise_failure() raises them as client_round would.
    The objectives take teacher features as an argument, so a fixture
    without a teacher gets its student in that row.
    """
    stack = ndag.ClientStack(SgdRows(np.array(models.student.values[None])))
    if ndag_enabled:
        teacher = models.student if models.teacher is None else models.teacher
        stack.generator = SgdRows(np.array(models.generator.values[None]))
        stack.teacher = np.array(teacher.values[None])
    return (stack, *(np.asarray(a)[None] for a in arrays))


def round_rows(clients, ndag_enabled=True):
    """(student, generator, teacher) rows of a list of Models for ndag.client_round.

    Without NDAG the generator and teacher rows are None.
    """
    student = np.stack([m.student.values for m in clients])
    if not ndag_enabled:
        return student, None, None
    generator = np.stack([m.generator.values for m in clients])
    return student, generator, np.stack([m.teacher.values for m in clients])


# ------------------------------------------------------------ batch traces


def assert_same_trace(a: ndag.BatchTrace, b: ndag.BatchTrace) -> None:
    """Every field of two BatchTraces equal bit for bit, a missing loss missing in both."""
    for f in dataclasses.fields(ndag.BatchTrace):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert (x is None) == (y is None), f.name
        if x is not None:
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name


def assert_same_traces(a: list[ndag.BatchTrace], b: list[ndag.BatchTrace]) -> None:
    """Two per-round trace lists equal round by round (see assert_same_trace)."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert_same_trace(x, y)


def client_trace(trace: ndag.BatchTrace, c: int) -> ndag.BatchTrace:
    """Client c's rows of a round's trace, as a stack of that client alone makes them."""
    return trace.rows(slice(c, c + 1))


# ------------------------------------------------------ one-leg federations


def run_round(server, sources, config, task_arch, gen_arch, target=None):
    """One communication round over the clients' source domains; mutates server.

    Returns the round's RoundMetrics, the one it appends to server.log.
    Every client's student starts from the global task model and, in
    adversarial rounds, its generator from the global generator, and the
    clients' local rounds run in lockstep (ndag.client_round): every client
    finishes local step k before any client starts step k + 1.  If training
    diverges, the ndag.DivergenceError names the lowest-index client among
    those that fail at the earliest failing local step; if scoring does,
    sha.ScoringDivergence names the lowest-index client it failed on.
    """
    protocol._group_round([protocol._Leg(server, sources, target)], config, task_arch, gen_arch)
    return server.log[-1]


def run_federation(sources, config, task_arch, gen_arch, target=None, collect_trace=False):
    """(server, round log, trace) of a federation over sources trained for config.rounds."""
    if len(sources) != config.n_clients:
        raise ValueError(f"{len(sources)} source domains for {config.n_clients} clients")
    server = protocol.init(config, task_arch, gen_arch, collect_trace)
    protocol._run_group([protocol._Leg(server, sources, target)], config, task_arch, gen_arch)
    return server, server.log, server.trace or []


# ------------------------------------------------------------- checkpoints

# The fields of a checkpoint document, as cli.save_checkpoint writes it.
CHECKPOINT_FIELDS = ("arch", "values", "role", "round")


def load_checkpoint(path: str):
    """Returns (params, arch, role, round) from a checkpoint document."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    missing = [f for f in CHECKPOINT_FIELDS if f not in doc]
    if missing:
        raise ValueError(f"checkpoint {path} missing fields: {missing}")
    desc = doc["arch"]
    if desc.get("kind") != "task":
        raise ValueError(f"checkpoint {path}: unknown arch kind {desc.get('kind')!r}")
    names = [f.name for f in dataclasses.fields(TaskArch)]
    missing = [name for name in names if name not in desc]
    if missing:
        raise ValueError(f"checkpoint {path}: arch missing keys: {missing}")
    fields = {name: desc[name] for name in names}
    fields["hidden_dims"] = tuple(fields["hidden_dims"])
    arch = TaskArch(**fields)
    params = ParamVector(np.asarray(doc["values"], dtype=np.float64))
    if len(params) != param_count(arch):
        raise ValueError(f"checkpoint {path}: {len(params)} values for {param_count(arch)} params")
    return params, arch, doc["role"], doc["round"]


def unequal_csv_bench(path, sizes=(40, 75, 110, 150)):
    """A CSV bench of one domain per entry of sizes, with that many samples, loaded back."""
    spec = data.BenchSpec(
        n_domains=len(sizes), n_classes=3, input_dim=6, samples_per_domain=max(sizes), seed=5
    )
    domains, labels, features = data.generate_table(spec)
    rng = np.random.default_rng(5)
    keep = np.sort(np.concatenate([
        rng.choice(np.flatnonzero(domains == d), n, replace=False)
        for d, n in enumerate(sizes)
    ]))
    header = ["domain", "label"] + [f"f{i}" for i in range(spec.input_dim)]
    write_csv(str(path), header, ([int(domains[i]), int(labels[i])]
                                  + [repr(float(v)) for v in features[i]] for i in keep))
    return data.load_csv(str(path), split_seed=5)
