"""Minimal reverse-mode tape for the array ops the network needs.

Each op's forward records a closure ``backward(g)`` for its output Var
with :meth:`Tape.record_for`.  ``Tape.backward`` seeds the output gradient
and replays the closures in reverse order, accumulating into each
:class:`Var`'s :class:`Grad`, and drops each closure once it has run.  The
tape calls a closure with its output's gradient, and skips it when that
output got none; it never clears the output's gradient.  Running a forward
pass with ``tape=None`` records nothing (eval / frozen mode).

A backward closure captures the :class:`Grad` of every Var it hands a
gradient to, and the arrays its backward reads; never an activation Var.
So a closure keeps exactly those arrays alive, and every other activation
is freed with the forward's last reference to it.

A closure hands :meth:`Grad.add` either an array the accumulator may
adopt (one it allocated itself and no longer uses, or the buffer of an
accumulator it has released) or a view; it never hands over a buffer that
another accumulator or the caller still holds.  A caller may also hand an
activation's buffer to the op that reads it last, once nothing else reads
that activation: the op then keeps its backward buffer there and hands it
on as the activation's gradient, as GeM does with the map ``MinkLoc``
pools.
"""

from __future__ import annotations

import numpy as np

from .errors import TapeConsumed


class Grad:
    """Gradient accumulator of one Var: the Var's shape and the sum so far."""

    __slots__ = ("shape", "grad")

    def __init__(self, shape: tuple):
        self.shape = shape
        self.grad = None

    def add(self, g):
        """Accumulate ``g`` into ``grad``.

        A first gradient that is a writeable float64 array of this shape
        owning its memory is adopted as ``grad`` without a copy: the
        backward op that allocated it gives it up.  A view, a broadcast, a
        scalar or another dtype is copied.
        """
        if self.grad is not None:
            self.grad += g
        elif (isinstance(g, np.ndarray) and g.base is None
              and g.dtype == np.float64 and g.shape == self.shape
              and g.flags.writeable):
            self.grad = g
        else:
            self.grad = np.array(np.broadcast_to(g, self.shape), dtype=np.float64)


class Var:
    """An ndarray value that owns a :class:`Grad` of its shape."""

    __slots__ = ("_value", "acc")

    def __init__(self, value):
        self.acc = Grad(())
        self.value = np.asarray(value, dtype=np.float64)

    @property
    def value(self):
        return self._value

    @value.setter
    def value(self, value):
        # a reassigned value keeps the accumulator at its current shape
        self._value = value
        self.acc.shape = np.shape(value)

    @property
    def grad(self):
        return self.acc.grad

    @grad.setter
    def grad(self, g):
        self.acc.grad = g

    @property
    def shape(self):
        return self._value.shape

    def add_grad(self, g):
        """Accumulate ``g`` into ``grad``, as :meth:`Grad.add` does."""
        self.acc.add(g)

    def zero_grad(self):
        self.acc.grad = None

    def __repr__(self):
        return f"Var(shape={self._value.shape})"


class Tape:
    """Ordered record of backward closures for one forward pass."""

    def __init__(self):
        self._ops = []
        self._consumed = False

    def record(self, backward_fn):
        self._ops.append(backward_fn)

    def record_for(self, out: Var, backward_fn):
        """Record ``backward_fn(g)`` to run with ``out``'s gradient ``g``,
        or not at all when ``out`` got no gradient.  Only ``out``'s
        :class:`Grad` is kept, so its value is freed with the forward's last
        reference.  ``g`` stays in place: several closures may read one
        Var's gradient, as the transposed conv and the lateral add do."""
        acc = out.acc

        def backward():
            if acc.grad is not None:
                backward_fn(acc.grad)

        self.record(backward)

    def __len__(self):
        return len(self._ops)

    def backward(self, out: Var, seed=1.0):
        """Seed ``out.grad`` with a copy of ``seed`` and replay recorded ops
        in reverse order.

        Each closure is dropped once it has run, so the activations and
        gradients that only it holds are freed as the backward unwinds.
        """
        if self._consumed:
            raise TapeConsumed("backward() already ran on this tape")
        self._consumed = True
        out.add_grad(np.array(seed, dtype=np.float64))
        while self._ops:
            self._ops.pop()()
