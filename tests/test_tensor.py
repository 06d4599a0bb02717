"""Tape autodiff: gradients vs finite differences and tape semantics.

The tape keeps only composition; every differentiable op is built with
`from_op`. `tape_sum`, `tape_add` and `tape_mul` (conftest) are test-local
ops built that way, standing in for the package's hand-written ops.
"""

import threading

import numpy as np
import numpy.testing as npt
import pytest

from dllrnn.errors import ContractError
from dllrnn.model import ParamStore
from dllrnn.tensor import Tape, Tensor, active_tape
from conftest import fd_grad, rel_err, tape_add, tape_grad, tape_mul, tape_sum


def test_tensor_basics():
    t = Tensor([[1.0, 2.0]], requires_grad=True)
    assert t.shape == (1, 2)
    assert t.dtype == np.float64
    assert t.is_leaf and t.grad is None
    assert Tensor(np.zeros(3, np.float32)).dtype == np.float32
    assert Tensor(np.arange(3)).dtype == np.float64  # ints promoted to float
    assert Tensor(2.5).item() == 2.5
    with pytest.raises(ContractError):
        Tensor([1.0, 2.0]).item()


def test_backward_simple_gradients():
    # d sum(x) / dx = 1; d sum(x*x) / dx = 2x
    x0 = np.array([1.0, -2.0, 3.0])
    npt.assert_array_equal(tape_grad(tape_sum, x0), np.ones(3))
    npt.assert_allclose(tape_grad(lambda x: tape_sum(tape_mul(x, x)), x0), 2 * x0)


def test_backward_requires_scalar_root():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        y = tape_mul(x, x)
        with pytest.raises(ContractError):
            tape.backward(y)


def test_backward_accumulates_until_zeroed():
    # leaf gradients add up across sweeps, as fit's per-example tapes rely on
    store = ParamStore([("x", [1.0, 2.0])])
    x = store["x"]
    with Tape() as tape:
        root = tape_sum(tape_mul(x, x))
        tape.backward(root)
        first = x.grad.copy()
        tape.backward(root)
    with Tape() as tape:
        tape.backward(tape_sum(tape_mul(x, x)))
    npt.assert_array_equal(x.grad, 3 * first)
    store.zero_grad()
    npt.assert_array_equal(x.grad, 0.0)
    assert np.shares_memory(x.grad, store.grad)


def test_backward_linearity_over_roots():
    # backward on a+b equals separate sweeps through a then b
    x0 = np.array([0.5, -1.5, 2.0])
    c = Tensor(np.array([2.0, -1.0, 0.5]))

    def square(x):
        return tape_sum(tape_mul(x, x))

    def cube(x):
        return tape_sum(tape_mul(tape_mul(x, x), tape_add(x, c)))

    def combined(x):
        # one non-leaf x*x feeds both terms, so its two gradients must add up
        y = tape_mul(x, x)
        return tape_add(tape_sum(y), tape_sum(tape_mul(y, tape_add(x, c))))

    ga = tape_grad(square, x0)
    gb = tape_grad(cube, x0)
    npt.assert_allclose(tape_grad(combined, x0), ga + gb, rtol=1e-12)


def test_no_op_mutates_inputs():
    rng = np.random.default_rng(3)
    a = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    a0, b0 = a.data.copy(), b.data.copy()
    with Tape() as tape:
        out = tape_sum(tape_mul(tape_add(a, b), tape_mul(a, b)))
        tape.backward(out)
    npt.assert_array_equal(a.data, a0)
    npt.assert_array_equal(b.data, b0)


def test_untracked_ops_record_nothing():
    plain = Tensor(np.ones(3))  # requires_grad=False
    with Tape() as tape:
        out = tape_mul(plain, plain)
        assert len(tape) == 0
        assert not out.requires_grad and out.is_leaf
    assert active_tape() is None


def test_tape_is_thread_confined():
    results = {}

    def worker():
        results["tape"] = active_tape()
        x = Tensor(np.ones(2), requires_grad=True)
        results["out"] = tape_mul(x, x)

    with Tape() as tape:
        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert results["tape"] is None          # our tape is not visible there
        assert len(tape) == 0                   # and recorded nothing from it
    assert not results["out"].requires_grad


def _random_expression(rng, x):
    """A small randomized mul/add chain ending in a scalar, for the FD sweep."""
    y = x
    for kind in rng.choice(["mul", "add", "mul_self"], size=3):
        other = Tensor(rng.standard_normal(x.shape))
        if kind == "mul":
            y = tape_mul(y, other)
        elif kind == "add":
            y = tape_add(y, other)
        else:
            y = tape_mul(y, tape_add(y, other))
    return tape_add(tape_sum(y), tape_sum(tape_mul(y, y)))


def test_randomized_gradients_match_fd_100_trials():
    for trial in range(100):
        rng = np.random.default_rng(100 + trial)
        shape = tuple(rng.integers(1, 7, size=2))
        x0 = rng.standard_normal(shape)
        rng_state = rng.bit_generator.state

        def scalar(v):
            r = np.random.default_rng()
            r.bit_generator.state = rng_state
            with Tape():
                return _random_expression(r, Tensor(v)).item()

        r = np.random.default_rng()
        r.bit_generator.state = rng_state
        got = tape_grad(lambda t: _random_expression(r, t), x0)
        want = fd_grad(scalar, x0)
        assert rel_err(got, want) < 1e-4, f"trial {trial}: {rel_err(got, want)}"
