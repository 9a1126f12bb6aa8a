"""Lockstep client rounds: a stacked round equals each client trained alone.

ndag.client_round trains all clients of a round together: at each local
step the clients that have a batch of the same size train as one stack,
however many rows it holds.  These tests run the same clients as one
stacked round and as stacks of one, and demand identical bits.
"""

from __future__ import annotations

import numpy as np
import pytest

import helpers
from feddag import ndag, nets

# Wide enough that no client's random features collapse.
TASK_ARCH = nets.TaskArch(5, (16,), 12, 3)
GEN_ARCH = nets.GenArch(5, (8,))


def make_clients(sizes, seed):
    """Distinct models and data per client, so mixed-up rows would show."""
    rng = np.random.default_rng([515, seed])
    models, xs, ys = [], [], []
    for n in sizes:
        models.append(
            helpers.Models(
                student=nets.init_params(TASK_ARCH, rng),
                generator=nets.init_params(GEN_ARCH, rng),
                teacher=nets.init_params(TASK_ARCH, rng),
            )
        )
        xs.append(rng.uniform(0.05, 0.95, size=(n, TASK_ARCH.input_dim)))
        ys.append(rng.integers(0, TASK_ARCH.num_classes, size=n))
    return models, xs, ys


def rngs(count, seed):
    return [np.random.default_rng([seed, c]) for c in range(count)]


def train(models, xs, ys, hyper, ndag_enabled, streams, local_epochs=1):
    rows = helpers.round_rows(models, ndag_enabled)
    return ndag.client_round(*rows, TASK_ARCH, GEN_ARCH, xs, ys, hyper, streams, local_epochs)


def together_and_alone(models, xs, ys, hyper, ndag_enabled, local_epochs, seed):
    """One round of all clients together, and each client's round alone."""
    together = train(models, xs, ys, hyper, ndag_enabled, rngs(len(xs), seed), local_epochs)
    alone = [
        train([models[c]], [xs[c]], [ys[c]], hyper, ndag_enabled, [rng], local_epochs)
        for c, rng in enumerate(rngs(len(xs), seed))
    ]
    return together, alone


def stacked_and_alone(sizes, hyper, ndag_enabled, local_epochs, seed=0):
    models, xs, ys = make_clients(sizes, seed)
    return together_and_alone(models, xs, ys, hyper, ndag_enabled, local_epochs, seed)


def assert_same_client(a: ndag.RoundResult, c: int, b: ndag.RoundResult, d: int = 0):
    """Client c of round a equals client d of round b, bit for bit."""
    for role in ("student", "generator", "teacher", "uploads", "last_grads"):
        rows_a, rows_b = getattr(a, role), getattr(b, role)
        assert (rows_a is None) == (rows_b is None), role
        if rows_a is not None:
            assert np.array_equal(rows_a[c], rows_b[d]), role
    assert a.traces[c] == b.traces[d]
    assert a.mean_train_losses[c] == b.mean_train_losses[d]
    assert a.client_degenerate_rows[c] == b.client_degenerate_rows[d]


def assert_same_round(together: ndag.RoundResult, alone: list[ndag.RoundResult]):
    assert len(together.student) == len(alone)
    for c, result in enumerate(alone):
        assert_same_client(together, c, result)
    assert together.degenerate_rows == sum(result.degenerate_rows for result in alone)


@pytest.mark.parametrize("local_epochs", [1, 2])
@pytest.mark.parametrize("ndag_enabled", [True, False])
def test_unequal_clients_match_stacks_of_one(ndag_enabled, local_epochs):
    # Batch 4: 3, 2, 6, 2 and 2 batches, ragged last batches of 1, 3, 1 and
    # 3 rows, so the groups change from step to step and are not contiguous.
    sizes = [9, 8, 23, 5, 7]
    hyper = ndag.NdagHyper(batch_size=4, lr=0.05, ema_decay=0.9)
    together, alone = stacked_and_alone(sizes, hyper, ndag_enabled, local_epochs)
    for c, n in enumerate(sizes):
        assert len(together.traces[c]) == local_epochs * -(-n // 4)
    assert_same_round(together, alone)


@pytest.mark.parametrize("ndag_enabled", [True, False])
def test_large_group_trains_as_one_stack(monkeypatch, ndag_enabled):
    # Ten clients with full batches of 32 rows make a 320-row group, which
    # trains as one stack of ten, as do the ragged 8-row batches after it.
    shapes = []
    step = "generator_step" if ndag_enabled else "plain_step"
    original = getattr(ndag, step)

    def recording(stack, *args, **kwargs):
        shapes.append(stack.student.params.shape[0])
        return original(stack, *args, **kwargs)

    monkeypatch.setattr(ndag, step, recording)
    hyper = ndag.NdagHyper(batch_size=32, lr=0.05, ema_decay=0.9)
    together, alone = stacked_and_alone([40] * 10, hyper, ndag_enabled, 1, seed=3)
    assert shapes[:2] == [10, 10]
    assert_same_round(together, alone)


@pytest.mark.parametrize("ndag_enabled", [True, False])
def test_batches_are_slices_of_each_epochs_permutation(monkeypatch, ndag_enabled):
    # Stacked and lone rounds share the batch assembly, so the tests above
    # would not see a wrong gather; this one checks every batch against the
    # permutations each client's rng draws, one per local epoch.
    sizes, batch, local_epochs = [5, 9, 4], 4, 2
    calls = []
    original = ndag._local_step

    def recording(part, k, task_arch, gen_arch, x, y, hyper):
        calls.append((k, x.copy(), y.copy()))
        return original(part, k, task_arch, gen_arch, x, y, hyper)

    monkeypatch.setattr(ndag, "_local_step", recording)
    models, xs, ys = make_clients(sizes, 11)
    hyper = ndag.NdagHyper(batch_size=batch, lr=0.05, ema_decay=0.9)
    train(models, xs, ys, hyper, ndag_enabled, rngs(len(sizes), 11), local_epochs)

    perms = [[rng.permutation(n) for _ in range(local_epochs)]
             for rng, n in zip(rngs(len(sizes), 11), sizes)]
    expected = []
    for k in range(local_epochs * max(-(-n // batch) for n in sizes)):
        groups = {}
        for c, n in enumerate(sizes):
            epoch, j = divmod(k, -(-n // batch))
            if epoch < local_epochs:
                idx = perms[c][epoch][j * batch : (j + 1) * batch]
                groups.setdefault(len(idx), []).append((xs[c][idx], ys[c][idx]))
        expected += [(k, group) for group in groups.values()]
    assert len(calls) == len(expected)
    for (k, xb, yb), (step, group) in zip(calls, expected):
        assert k == step
        assert xb.shape == (len(group), len(group[0][1]), TASK_ARCH.input_dim)
        for row, (x, y) in enumerate(group):
            assert xb[row].tobytes() == x.tobytes()
            assert yb[row].tolist() == y.tolist()


def test_stack_of_one_matches_a_round_without_peers():
    """A client's result does not depend on who else trains in the round."""
    hyper = ndag.NdagHyper(batch_size=4, lr=0.05, ema_decay=0.9)
    models, xs, ys = make_clients([9, 9, 9], 7)
    full = train(models, xs, ys, hyper, True, rngs(3, 7))
    pair = train(models[1:], xs[1:], ys[1:], hyper, True, rngs(3, 7)[1:])
    for c in range(2):
        assert_same_client(full, c + 1, pair, c)


def test_degenerate_rows_are_totalled_over_the_round():
    # The teachers keep their zero biases (decay 1), so an all-zero input
    # gives a zero teacher-feature row in every batch it lands in: one
    # degenerate row for the generator step and one for the student step.
    # Every batch has at least 3 rows, so that row never collapses a batch.
    sizes = [8, 11, 7, 12]
    hyper = ndag.NdagHyper(batch_size=4, lr=0.05, ema_decay=1.0)
    models, xs, ys = make_clients(sizes, 9)
    for x in xs:
        x[0] = 0.0
    together, alone = together_and_alone(models, xs, ys, hyper, True, 2, 9)
    assert type(together.degenerate_rows) is int
    assert together.degenerate_rows == 2 * 2 * len(sizes)
    assert together.client_degenerate_rows == (2 * 2,) * len(sizes)
    assert_same_round(together, alone)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestDivergenceAttribution:
    """The lowest client among those failing at the earliest failing step."""

    HYPER = ndag.NdagHyper(batch_size=4)

    def break_rows(self, xs, client, batch, seed):
        """Put NaN into the given local batch of client (first epoch)."""
        order = rngs(len(xs), seed)[client].permutation(len(xs[client]))
        xs[client][order[batch * 4 : (batch + 1) * 4]] = np.nan

    def failing_client(self, xs, ys, models, seed, ndag_enabled=False):
        with pytest.raises(ndag.DivergenceError) as info:
            train(models, xs, ys, self.HYPER, ndag_enabled, rngs(len(xs), seed))
        return info.value.client

    def test_lowest_client_at_the_same_step(self):
        models, xs, ys = make_clients([12, 12, 12, 12], 1)
        self.break_rows(xs, 3, 1, 1)
        self.break_rows(xs, 1, 1, 1)
        assert self.failing_client(xs, ys, models, 1) == 1

    def test_earlier_step_beats_lower_index(self):
        models, xs, ys = make_clients([12, 12, 12], 2)
        self.break_rows(xs, 0, 2, 2)
        self.break_rows(xs, 2, 0, 2)
        assert self.failing_client(xs, ys, models, 2) == 2

    def test_across_stacks_of_different_batch_sizes(self):
        # At step 1 clients 0 and 2 have full batches and client 1 a ragged
        # one of 2 rows, so client 2 is the second row of one stack and
        # client 1 the only row of another.
        models, xs, ys = make_clients([12, 6, 12], 4)
        self.break_rows(xs, 2, 1, 4)
        self.break_rows(xs, 1, 1, 4)
        assert self.failing_client(xs, ys, models, 4) == 1

    def test_ndag_round(self):
        models, xs, ys = make_clients([8, 8, 8], 5)
        xs[2] += np.inf
        xs[1] += np.inf
        assert self.failing_client(xs, ys, models, 5, ndag_enabled=True) == 1
