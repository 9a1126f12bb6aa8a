"""Synthetic multi-domain classification benchmark.

Every domain shares the same class anchors but sees them through its own
invertible affine style map (seeded rotation, per-coordinate scaling and a
bias), then adds isotropic noise.  style_strength = 0 makes all domains
identical; larger values push them apart, which is exactly the knob the
domain-shift sweeps turn.  Features are min-max normalized to [0, 1] per
domain, mirroring per-site preprocessing of real federated data.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass

import numpy as np

from .atomic import write_csv

# Internal generation constants: class anchors at unit scale, noise high
# enough that held-out accuracy stays well below ceiling, rotation wide
# enough that the cross-domain gap dominates the in-domain variance.
ANCHOR_SD = 1.0
NOISE_SD = 1.2
ROTATION_MAX_ANGLE = 1.4
MIN_DOMAIN_SAMPLES = 10
INT64_IDS = range(-(2**63), 2**63)  # domain and label ids are stored as int64

_ANCHOR_TAG = 11
_STYLE_TAG = 12
_NOISE_TAG = 13
_LABEL_TAG = 14
_SPLIT_TAG = 15


@dataclass(frozen=True)
class BenchSpec:
    n_domains: int = 5
    n_classes: int = 3
    input_dim: int = 16
    samples_per_domain: int = 600
    style_strength: float = 1.0
    label_noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_domains < 2:
            raise ValueError(f"n_domains must be >= 2, got {self.n_domains}")
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.input_dim < 2:
            raise ValueError(f"input_dim must be >= 2, got {self.input_dim}")
        if self.samples_per_domain < 10 * self.n_classes:
            raise ValueError(
                f"samples_per_domain must be >= 10 * n_classes, got {self.samples_per_domain}"
            )
        # Written so that NaN fails every float bound.
        if not 0.0 <= self.style_strength < float("inf"):
            raise ValueError(f"style_strength must be finite and >= 0, got {self.style_strength}")
        if not 0.0 <= self.label_noise < 0.5:
            raise ValueError(f"label_noise must be in [0, 0.5), got {self.label_noise}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class DomainDataset:
    domain: int
    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray

    def __post_init__(self):
        for xs, ys in ((self.train_x, self.train_y), (self.val_x, self.val_y)):
            if xs.ndim != 2 or ys.shape != (xs.shape[0],) or xs.shape[0] == 0:
                raise ValueError("malformed or empty split")


def _class_counts(total: int, n_classes: int) -> list[int]:
    base, extra = divmod(total, n_classes)
    return [base + (1 if c < extra else 0) for c in range(n_classes)]


def _style_map(rng: np.random.Generator, dim: int, strength: float):
    """Invertible affine map: Givens rotations, coordinate scales, bias.

    All randomness is drawn unconditionally so the map at strength 0 is the
    identity while consuming the same rng stream as any other strength.
    """
    pairs = [(int(a), int(b)) for a, b in rng.integers(0, dim, size=(dim, 2)) if a != b]
    angles = rng.uniform(-ROTATION_MAX_ANGLE, ROTATION_MAX_ANGLE, size=dim) * strength
    rot = np.eye(dim)
    for (i, j), theta in zip(pairs, angles):
        g = np.eye(dim)
        c, s = np.cos(theta), np.sin(theta)
        g[i, i] = c
        g[j, j] = c
        g[i, j] = -s
        g[j, i] = s
        rot = g @ rot
    scale = 1.0 + strength * rng.uniform(-0.5, 0.5, size=dim)
    bias = strength * rng.uniform(-0.5, 0.5, size=dim)
    return lambda x: scale * (rot @ x) + bias


def _generate_domain(spec: BenchSpec, domain: int, anchors: np.ndarray):
    style = _style_map(
        np.random.default_rng([spec.seed, _STYLE_TAG, domain]), spec.input_dim, spec.style_strength
    )
    noise_rng = np.random.default_rng([spec.seed, _NOISE_TAG, domain])
    label_rng = np.random.default_rng([spec.seed, _LABEL_TAG, domain])
    counts = _class_counts(spec.samples_per_domain, spec.n_classes)
    # One noise draw per class fills its rows in the order the per-row draws would.
    xs = np.concatenate([
        style(anchors[c]) + noise_rng.normal(0.0, NOISE_SD, size=(count, spec.input_dim))
        for c, count in enumerate(counts)
    ])
    ys = np.repeat(np.arange(spec.n_classes, dtype=np.int64), counts)
    if spec.label_noise > 0.0:
        for row, c in enumerate(ys.tolist()):
            if label_rng.random() < spec.label_noise:
                ys[row] = (c + label_rng.integers(1, spec.n_classes)) % spec.n_classes
    lo = xs.min(axis=0)
    hi = xs.max(axis=0)
    span = np.where(hi - lo < 1e-12, 1.0, hi - lo)
    return (xs - lo) / span, ys


def generate_table(spec: BenchSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All samples in canonical order: (domains, labels, features)."""
    anchors = np.random.default_rng([spec.seed, _ANCHOR_TAG]).normal(
        0.0, ANCHOR_SD, size=(spec.n_classes, spec.input_dim)
    )
    all_x, all_y, all_d = [], [], []
    for domain in range(spec.n_domains):
        xs, ys = _generate_domain(spec, domain, anchors)
        all_x.append(xs)
        all_y.append(ys)
        all_d.append(np.full(len(ys), domain, dtype=np.int64))
    return np.concatenate(all_d), np.concatenate(all_y), np.concatenate(all_x)


def split_domain(
    domain: int, xs: np.ndarray, ys: np.ndarray, split_seed: int
) -> DomainDataset:
    """Stratified 9:1 train/val split, deterministic in (split_seed, domain)."""
    # Seed entries must be non-negative; the modulus leaves every id >= 0 as it is.
    rng = np.random.default_rng([split_seed, _SPLIT_TAG, domain % 2**64])
    val_idx: list[int] = []
    for c in sorted(set(ys.tolist())):
        members = np.flatnonzero(ys == c)
        n_val = max(1, round(0.1 * members.size))
        if n_val >= members.size:
            raise ValueError(f"class {c} in domain {domain} too small to split")
        picked = rng.permutation(members.size)[:n_val]
        val_idx.extend(members[picked])
    val_mask = np.zeros(len(ys), dtype=bool)
    val_mask[val_idx] = True
    return DomainDataset(
        domain=domain,
        train_x=xs[~val_mask],
        train_y=ys[~val_mask],
        val_x=xs[val_mask],
        val_y=ys[val_mask],
    )


def make_benchmark(spec: BenchSpec) -> list[DomainDataset]:
    domains, labels, features = generate_table(spec)
    out = []
    for d in range(spec.n_domains):
        mask = domains == d
        out.append(split_domain(d, features[mask], labels[mask], spec.seed))
    return out


def export_csv(spec: BenchSpec, path: str) -> None:
    """Write the benchmark as one flat CSV: domain,label,f0..f<dim-1>."""
    domains, labels, features = generate_table(spec)
    header = ["domain", "label"] + [f"f{i}" for i in range(spec.input_dim)]
    rows = zip(domains, labels, features)
    write_csv(path, header, ([int(d), int(y)] + [repr(float(v)) for v in x] for d, y, x in rows))


def load_csv(path: str, split_seed: int) -> list[DomainDataset]:
    """Load a flat domain,label,features CSV and split it like make_benchmark.

    Features are min-max normalized per coordinate over the whole file, so
    re-loading an exported benchmark reproduces it bit for bit (exported
    features already span [0, 1] per domain).  Rows stream into flat typed
    buffers, so no Python float outlives its row.
    """
    domains, labels, values = array("q"), array("q"), array("d")
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if len(header) < 3 or header[:2] != ["domain", "label"]:
            raise ValueError(f"{path}: header must start with domain,label")
        dim = len(header) - 2
        if header[2:] != [f"f{i}" for i in range(dim)]:
            raise ValueError(f"{path}: feature columns must be f0..f{dim - 1}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != dim + 2:
                raise ValueError(f"{path}:{lineno}: expected {dim + 2} fields")
            try:
                ids = int(row[0]), int(row[1])
                if ids[0] not in INT64_IDS or ids[1] not in INT64_IDS:
                    raise ValueError(f"domain or label outside int64: {row[0]},{row[1]}")
                values.extend(map(float, row[2:]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            domains.append(ids[0])
            labels.append(ids[1])
    if not domains:
        raise ValueError(f"{path}: no data rows")
    features = np.frombuffer(values, dtype=np.float64).reshape(-1, dim)
    labels_arr = np.frombuffer(labels, dtype=np.int64)
    domains_arr = np.frombuffer(domains, dtype=np.int64)
    if not np.all(np.isfinite(features)):
        raise ValueError(f"{path}: non-finite feature values")
    present = sorted(set(labels))
    if present != list(range(len(present))):
        raise ValueError(f"{path}: labels must be contiguous 0..C-1, got {present}")
    domain_ids = sorted(set(domains))
    if len(domain_ids) < 2:
        raise ValueError(f"{path}: need at least 2 domains, got {len(domain_ids)}")
    lo = features.min(axis=0)
    hi = features.max(axis=0)
    if np.any(hi - lo < 1e-12):
        raise ValueError(f"{path}: constant feature column")
    features -= lo
    features /= hi - lo
    out = []
    for d in domain_ids:
        mask = domains_arr == d
        if mask.sum() < MIN_DOMAIN_SAMPLES:
            raise ValueError(f"{path}: domain {d} has fewer than {MIN_DOMAIN_SAMPLES} samples")
        out.append(split_domain(d, features[mask], labels_arr[mask], split_seed))
    return out
