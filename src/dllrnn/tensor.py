"""Dense tensors with reverse-mode differentiation on a linear tape.

A :class:`Tape` records every differentiable operation executed while it is
active (``with Tape() as tape: ...``). Calling ``tape.backward(root)`` on a
scalar output replays the records in reverse and accumulates ``d root / d
leaf`` into the ``grad`` of every leaf tensor created with
``requires_grad=True``. Gradients of intermediate results are kept only for
the duration of the sweep; leaf gradients add up across sweeps until their
``grad`` is reset to None (``ParamStore.zero_grad``), which is how a training
step sums its examples' gradients.

Tapes are thread-confined: the active-tape stack is thread-local, so
independent tapes may run on separate threads without sharing state.

The tape keeps only composition. Differentiable work is recorded through
:func:`from_op`, which takes an output array, its input tensors and a
hand-written backward. Training records two such ops per example, on one
tape per example: the network with its overlap-add and output rescale
(``model.model_forward``) and the PCM loss (``losses.pcm_loss``).

Precision follows the data: float32 is the training default, float64 is used
by the finite-difference verification suites. Operations never mutate their
inputs.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import ContractError

_state = threading.local()


def _tape_stack():
    stack = getattr(_state, "tapes", None)
    if stack is None:
        stack = []
        _state.tapes = stack
    return stack


def active_tape():
    """The innermost active Tape on this thread, or None."""
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tensor:
    """n-dimensional real array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad", "is_leaf")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.is_leaf = True

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of operations for one reverse sweep."""

    def __init__(self):
        self._entries = []

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack().pop()
        if popped is not self:  # pragma: no cover - misuse guard
            raise ContractError("tape context exited out of order")
        return False

    def __len__(self):
        return len(self._entries)

    def _record(self, out, inputs, backward):
        self._entries.append((out, inputs, backward))

    def backward(self, root):
        """Accumulate d(root)/d(leaf) into every requires_grad leaf."""
        if not isinstance(root, Tensor) or root.data.size != 1:
            shape = getattr(root, "shape", None)
            raise ContractError(f"backward root must be a scalar tensor, got shape {shape}")
        pending = {id(root): np.ones_like(root.data)}
        for out, inputs, backward in reversed(self._entries):
            gout = pending.pop(id(out), None)
            if gout is None:
                continue
            for tensor, grad in zip(inputs, backward(gout)):
                if grad is None or not tensor.requires_grad:
                    continue
                grad = np.asarray(grad, dtype=tensor.data.dtype)
                if tensor.is_leaf:
                    if tensor.grad is None:
                        tensor.grad = np.zeros_like(tensor.data)
                    tensor.grad += grad
                else:
                    acc = pending.get(id(tensor))
                    if acc is None:
                        pending[id(tensor)] = grad.copy()
                    else:
                        acc += grad


def from_op(data, inputs, backward):
    """Create the output of a differentiable op and record it if needed.

    ``backward(grad_out)`` must return one gradient array (or None) per
    entry of ``inputs``, already reduced to each input's shape.
    """
    tape = active_tape()
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=track)
    if track:
        out.is_leaf = False
        tape._record(out, tuple(inputs), backward)
    return out

