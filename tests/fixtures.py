"""Constructed fixtures for the directional single-step properties.

A descent step on CE - dis moves the raw discrepancy by
lr * (||g_dis||^2 - g_dis . g_ce) + O(lr^2), so the ascent sign is only
guaranteed where the classification gradient is negligible next to the
discrepancy gradient.  That is the regime the adversary actually runs in:
by the time perturbed training starts, the student has already fit its
local data.  Rather than burn cycles training each fixture to saturation,
these fixtures plant well-separated class clusters and rescale the
classifier head to a large margin (~40 nats), which drives the
classification gradient to ~e^-40 while leaving the feature layers and the
discrepancy gradient untouched.
"""

import numpy as np

import autodiff as ad
import helpers
from feddag import ndag, nets

# three 5-bit codes with pairwise Hamming distance >= 3; a random coordinate
# permutation plus XOR mask preserves the distances while randomizing corners
BASE_CODES = np.array(
    [[0, 0, 0, 0, 0], [1, 1, 1, 0, 0], [0, 0, 1, 1, 1]], dtype=np.float64
)


def class_margins(logits, y):
    n = logits.shape[0]
    correct = logits[np.arange(n), y]
    masked = logits.copy()
    masked[np.arange(n), y] = -np.inf
    return correct - masked.max(axis=1)


def dis_grad_norm(models, task_arch, gen_arch, X, alpha):
    """Generator-gradient norm of the raw (uncapped) mean discrepancy."""
    t_feats, _ = nets.task_apply(models.teacher, task_arch, X)
    gen_layers = ad.layer_tensors(models.generator, gen_arch, trainable=True)
    stu_layers = ad.layer_tensors(models.student, task_arch, trainable=False)
    x = ad.Tensor(np.asarray(X, dtype=np.float64))
    x_hat = ad.clip(ad.add(x, ad.scale(ad.gen_graph(gen_layers, x), alpha)), 0.0, 1.0)
    feats, _ = ad.task_graph(stu_layers, x_hat)
    dist, valid = ad.normalized_sq_dist_rows(ad.Tensor(t_feats), feats)
    weights = valid.astype(np.float64) / max(int(valid.sum()), 1)
    ad.backward(ad.weighted_sum(dist, weights))
    return float(np.linalg.norm(ad.flat_grad(gen_layers).values))


def saturated_fixture(seed, task_arch, gen_arch, alpha=0.3, attempts=80):
    """Teacher-equals-student fixture with a margin-saturated classifier.

    Returns (models, X, y) with clustered separable data, non-degenerate
    features on both the clean and the perturbed batch, a classifier margin
    of ~40 nats at both, and a discrepancy gradient bounded away from zero
    (so the first-order uptick clears float noise).  Resamples otherwise.
    """
    for attempt in range(attempts):
        rng = np.random.default_rng([61, seed, attempt])
        perm = rng.permutation(task_arch.input_dim)
        mask = rng.integers(0, 2, size=task_arch.input_dim).astype(np.float64)
        corners = np.abs(BASE_CODES[:, perm] - mask)
        centers = 0.25 + 0.5 * corners + rng.uniform(-0.04, 0.04, size=corners.shape)
        n = int(rng.integers(2, 9))
        y = rng.integers(0, 3, size=n)
        if len(set(y.tolist())) < 2:
            continue
        X = np.clip(centers[y] + rng.normal(0.0, 0.03, size=(n, task_arch.input_dim)), 0.0, 1.0)
        stu = nets.init_params(task_arch, rng)
        gen = nets.init_params(gen_arch, rng)
        x_hat0 = ndag.generate(gen, gen_arch, X, alpha)
        F, _ = nets.task_apply(stu, task_arch, X)
        Fh, _ = nets.task_apply(stu, task_arch, x_hat0)
        if min(np.linalg.norm(F, axis=1).min(), np.linalg.norm(Fh, axis=1).min()) < 0.5:
            continue
        # nearest-feature-centroid head: logits_j = s * (2 f.mu_j - |mu_j|^2)
        mu = np.zeros((task_arch.num_classes, task_arch.feature_dim))
        for j in range(task_arch.num_classes):
            sel = y == j
            mu[j] = F[sel].mean(axis=0) if sel.any() else -10.0
        W3 = 2.0 * mu.T
        b3 = -np.einsum("jd,jd->j", mu, mu)
        gamma = min(
            class_margins(F @ W3 + b3, y).min(), class_margins(Fh @ W3 + b3, y).min()
        )
        if gamma < 1e-3:
            continue
        s = 40.0 / gamma
        vals = stu.values.copy()
        head = task_arch.param_count() - (task_arch.feature_dim + 1) * task_arch.num_classes
        n_w = task_arch.feature_dim * task_arch.num_classes
        vals[head : head + n_w] = (s * W3).ravel()
        vals[head + n_w :] = s * b3
        stu = type(stu)(vals)
        models = helpers.Models(student=stu, generator=gen, teacher=stu)
        if dis_grad_norm(models, task_arch, gen_arch, X, alpha) < 1e-4:
            continue
        return models, X, y
    raise RuntimeError(f"no saturated fixture found for seed {seed}")
