"""Lockstep client rounds: a stacked round equals each client trained alone.

ndag.client_round trains all clients of a round together, grouping the
clients that have a batch of the same size at each local step into stacks
of at most ndag.MAX_STACK_ROWS rows.  These tests run the same clients as
one stacked round and as stacks of one, and demand identical bits.
"""

from __future__ import annotations

import numpy as np
import pytest

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
            ndag.ClientModels(
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


def stacked_and_alone(sizes, hyper, ndag_enabled, local_epochs, seed=0):
    models, xs, ys = make_clients(sizes, seed)
    args = (TASK_ARCH, GEN_ARCH)
    together = ndag.client_round(
        models, *args, xs, ys, hyper, ndag_enabled, rngs(len(sizes), seed), local_epochs
    )
    alone = [
        ndag.client_round(
            [models[c]], *args, [xs[c]], [ys[c]], hyper, ndag_enabled, [rng], local_epochs
        )[0]
        for c, rng in enumerate(rngs(len(sizes), seed))
    ]
    return together, alone


def assert_same_result(a: ndag.ClientRoundResult, b: ndag.ClientRoundResult):
    for role in ("student", "generator", "teacher"):
        assert np.array_equal(getattr(a.models, role).values, getattr(b.models, role).values), role
    for opt in ("student_opt", "gen_opt"):
        buf_a, buf_b = getattr(a.models, opt).momentum_buf, getattr(b.models, opt).momentum_buf
        assert (buf_a is None) == (buf_b is None), opt
        if buf_a is not None:
            assert np.array_equal(buf_a, buf_b), opt
    assert np.array_equal(a.upload.values, b.upload.values)
    assert np.array_equal(a.last_grad.values, b.last_grad.values)
    assert a.trace == b.trace
    assert a.mean_train_loss == b.mean_train_loss
    assert a.degenerate_rows == b.degenerate_rows


@pytest.mark.parametrize("local_epochs", [1, 2])
@pytest.mark.parametrize("ndag_enabled", [True, False])
def test_unequal_clients_match_stacks_of_one(ndag_enabled, local_epochs):
    # Batch 4: 3, 2, 6, 2 and 2 batches, ragged last batches of 1, 3, 1 and
    # 3 rows, so the groups change from step to step and are not contiguous.
    sizes = [9, 8, 23, 5, 7]
    hyper = ndag.NdagHyper(batch_size=4, lr=0.05, ema_decay=0.9)
    together, alone = stacked_and_alone(sizes, hyper, ndag_enabled, local_epochs)
    for c, n in enumerate(sizes):
        assert len(together[c].trace) == local_epochs * -(-n // 4)
        assert_same_result(together[c], alone[c])


@pytest.mark.parametrize("ndag_enabled", [True, False])
def test_group_over_the_row_cap_splits_into_stacks(monkeypatch, ndag_enabled):
    # Ten clients with full batches of 32 rows make a 320-row group: one
    # stack of 8 clients and one of 2, then the ragged 8-row batches of all
    # ten fit one stack.
    assert ndag.MAX_STACK_ROWS == 256
    shapes = []
    step = "generator_step" if ndag_enabled else "plain_step"
    original = getattr(ndag, step)

    def recording(stack, *args, **kwargs):
        shapes.append(stack.student.params.shape[0])
        return original(stack, *args, **kwargs)

    monkeypatch.setattr(ndag, step, recording)
    hyper = ndag.NdagHyper(batch_size=32, lr=0.05, ema_decay=0.9)
    together, alone = stacked_and_alone([40] * 10, hyper, ndag_enabled, 1, seed=3)
    assert shapes[:3] == [8, 2, 10]
    for a, b in zip(together, alone):
        assert_same_result(a, b)


def test_stack_of_one_matches_a_round_without_peers():
    """A client's result does not depend on who else trains in the round."""
    hyper = ndag.NdagHyper(batch_size=4, lr=0.05, ema_decay=0.9)
    models, xs, ys = make_clients([9, 9, 9], 7)
    full = ndag.client_round(models, TASK_ARCH, GEN_ARCH, xs, ys, hyper, True, rngs(3, 7))
    pair = ndag.client_round(
        models[1:], TASK_ARCH, GEN_ARCH, xs[1:], ys[1:], hyper, True, rngs(3, 7)[1:]
    )
    for a, b in zip(full[1:], pair):
        assert_same_result(a, b)


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
            ndag.client_round(
                models, TASK_ARCH, GEN_ARCH, xs, ys, self.HYPER, ndag_enabled,
                rngs(len(xs), seed),
            )
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
