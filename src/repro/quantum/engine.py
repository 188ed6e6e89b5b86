"""Compiled circuit execution engine: one block/kernel substrate, two views.

The generic interpreter in :mod:`repro.quantum.autodiff` applies every gate
through :func:`repro.quantum.state.apply_gate` — a reshape/moveaxis/einsum
round-trip that treats a CNOT the same as an arbitrary dense two-qubit
matrix.  This module lowers a :class:`~repro.quantum.circuit.Circuit` into a
reusable plan once, then executes the plan many times.

**Adjoint architecture.**  There is exactly one lowered representation — a
scheduled list of *stacked* instructions — and two plan classes that view it:

* :class:`StackedPlan` runs ``p`` structurally identical weight-bindings of
  the circuit as a single ``(p * batch, 2**n)`` statevector pass (the
  patched layers' fast path).
* :class:`CompiledPlan` is the per-instance view: the degenerate ``p = 1``
  stack.  Same instructions, same kernels, same backward — only the
  entry-point shapes differ (flat weights, plain ``(batch, 2**n)`` state).
  :func:`compiled_plan` and :func:`stacked_plan` share the lowered program,
  so a circuit used both ways is lowered exactly once.

The substrate gives both views the same machinery:

* **Fusion + scheduling.**  Runs of single-qubit gates on one wire collapse
  into a 2x2 matrix (the SEL ``Rot = RZ.RY.RZ`` triple becomes one
  instruction); a commutation-aware peephole pass merges dense runs on
  adjacent wires into 4x4 kron blocks and composes each CNOT ring into a
  single index gather.
* **Specialized kernels.**  Diagonal gates (RZ, CZ, CRZ, Z) multiply
  precomputed basis-index masks by phases; permutation gates (CNOT, X,
  SWAP) are index gathers; dense blocks dispatch by wire geometry to
  batched GEMMs, with short strides (``right`` in {2, 4, 8}) lowered onto
  ``kron(mat, I_right)`` GEMMs over the flattened tail.  The kernel
  *implementations* live behind the :class:`~repro.quantum.backends
  .KernelBackend` vocabulary: plans are backend-agnostic, and ``run`` /
  ``backward_step`` bind the active backend's kernels at run time — the
  single-threaded NumPy set by default, the row-sharding
  :class:`~repro.quantum.backends.ThreadedBackend` (or any registered
  alternative) on request.
* **Checkpointed, transition-matrix backward.**  Instructions are *pure*
  (never mutate their input state), so the forward pass records every
  post-block state by reference; the adjoint backward walks only the
  cotangent and reads the ket side from the checkpoints.  Per dense block
  the backward computes one *transition matrix*
  ``M[a, c] = sum conj(lambda)_a psi_c`` and contracts every member's
  effective generator ``G_eff = S G S^dagger`` against it — one contraction
  per fused block instead of one generator insertion per parameter.  From
  ``dU/dtheta = S (-i/2 G) P = -i/2 (S G S^dagger) U`` the adjoint identity
  ``dL/dtheta = Im(<lambda| G_eff |psi>)`` holds at the post-block state,
  so fusion preserves exact gradients.
* **Bulk binding.**  Weight-only fused runs sharing a gate signature bind
  through one vectorized gate construction and one batched-matmul sweep
  per signature (:class:`_SStaticGroup`).
* **Product-state prep.**  On |0...0> (no amplitude embedding) each wire's
  leading single-qubit run — everything before the first multi-wire op on
  that wire, e.g. an angle embedding plus the first SEL ``Rot`` — only
  builds a product state.  All of them lower into one head
  :class:`_SProductPrep`: bind computes one 2-vector per wire, apply
  takes a tree Kronecker product of them into the state (no zero state,
  no per-row dense passes), and the adjoint contracts the cotangent down
  to one 2-vector per wire (no checkpoint).  Amplitude-embedded circuits
  and input runs later in the circuit stay :class:`_SDense` blocks.

:func:`repro.quantum.autodiff.execute` / ``backward`` drive the ``p = 1``
view; ``execute_stacked`` / ``backward_stacked`` drive the multi-bind view.
The op-by-op interpreter (``naive_execute`` / ``naive_backward``) remains
the reference both are property-tested against.
"""

from __future__ import annotations

import numpy as np

from . import gates as G
from .backends import resolve_backend
from .circuit import Circuit, Operation

__all__ = [
    "CompiledPlan",
    "StackedPlan",
    "compile_circuit",
    "compiled_plan",
    "circuit_signature",
    "compile_stacked",
    "stacked_plan",
]

_SINGLE_QUBIT = {"RX", "RY", "RZ", "H", "X", "Y", "Z"}


def _dagger(mat: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(mat, -1, -2))


def circuit_signature(circuit: Circuit) -> tuple:
    """A structural fingerprint; plans are reused while it is unchanged."""
    return (
        circuit.n_wires,
        tuple(circuit.ops),
        circuit.state_prep,
        circuit.measurement,
        circuit.n_weights,
        circuit.n_inputs,
    )


def _wire_bit(n_wires: int, wire: int) -> np.ndarray:
    indices = np.arange(2**n_wires)
    return ((indices >> (n_wires - 1 - wire)) & 1).astype(bool)


def _validate_wires(op: Operation, n_wires: int) -> None:
    if len(set(op.wires)) != len(op.wires):
        raise ValueError(f"duplicate wires in {op.wires}")
    if any(not 0 <= w < n_wires for w in op.wires):
        raise ValueError(f"wires {op.wires} out of range for {n_wires}-qubit state")


# ---------------------------------------------------------------------------
# Dense-block kernels
# ---------------------------------------------------------------------------
#
# The state is logically (p, batch, dim) with the patch axis outermost (p = 1
# for the per-instance view); weight-bound gate matrices are (p, d, d) and
# broadcast along that axis, so every patch sees its own angles while each
# numpy operation still covers the whole stack.  Input-bound matrices stay
# per-row, (p * batch, d, d).


def _kron_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker product of ``(..., 2, 2)`` stacks -> ``(..., 4, 4)``."""
    out = np.einsum("...ab,...cd->...acbd", a, b)
    return out.reshape(out.shape[:-4] + (4, 4))


# ---------------------------------------------------------------------------
# One-qubit vector kernels (the product-state prep)
# ---------------------------------------------------------------------------
#
# The prep holds one 2-vector per wire, ``(k, 2)`` with ``k`` in {1, p,
# p * batch}: constant, per-patch or per-row.  Every kernel here is plain
# elementwise arithmetic, so a row's result never depends on how many rows
# share the call (no BLAS kernel choice by row count).


def _matvec(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """A constant 2x2 ``mat`` applied to every row of a ``(k, 2)`` stack."""
    return vec[:, :1] * mat[:, 0] + vec[:, 1:] * mat[:, 1]


def _rotate(name: str, theta: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """``exp(-i theta/2 P) vec = cos(theta/2) vec - i sin(theta/2) P vec``."""
    half = theta / 2
    pvec = _matvec(G.generator(name, vec.dtype), vec)
    return np.cos(half)[:, None] * vec - 1j * np.sin(half)[:, None] * pvec


def _rows(arr: np.ndarray, rows: int, batch: int) -> np.ndarray:
    """Lift a constant ``(1, ...)`` or per-patch ``(p, ...)`` stack to rows.

    Lifting copies values exactly, so a row computes the same bits whether
    its patch-level factors were lifted early or late.
    """
    if arr.shape[0] == rows:
        return arr
    return np.repeat(arr, rows if arr.shape[0] == 1 else batch, axis=0)


def _kron_vecs(a: np.ndarray, b: np.ndarray, rows: int, batch: int):
    """Row-wise Kronecker product of ``(k, da)`` and ``(k', db)`` stacks."""
    if a.shape[0] != b.shape[0] and 1 not in (a.shape[0], b.shape[0]):
        a, b = _rows(a, rows, batch), _rows(b, rows, batch)
    out = a[:, :, None] * b[:, None, :]
    return out.reshape(out.shape[0], -1)


class StackedGradContext:
    """Accumulators and scratch threaded through an adjoint walk.

    The cotangent ping-pongs between two preallocated buffers: each
    backward step reads the current ``lam`` array and writes its successor
    into the buffer ``lam`` does not occupy, so the walk allocates no
    full-state arrays after setup.  ``backend`` is the kernel set every
    backward step dispatches through — normally the backend the forward
    pass ran on, so one execution uses one kernel set end to end.
    """

    __slots__ = ("p", "batch", "grad_weights", "grad_inputs", "backend",
                 "_scratch")

    def __init__(self, p, batch, grad_weights, grad_inputs, state_shape,
                 dtype=np.complex128, backend=None):
        self.p = p
        self.batch = batch
        self.grad_weights = grad_weights  # (p, n_weights)
        self.grad_inputs = grad_inputs  # (p * batch, n_inputs) or None
        self.backend = resolve_backend(backend)
        self._scratch = (
            np.empty(state_shape, dtype=dtype),
            np.empty(state_shape, dtype=dtype),
        )

    def out_for(self, lam):
        """The scratch buffer ``lam`` does not currently occupy."""
        return self._scratch[1] if lam is self._scratch[0] else self._scratch[0]


# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------


class _SProductPrep:
    """The leading single-qubit layer on |0...0>, built as a product state.

    ``runs`` holds, per wire, the single-qubit run that precedes the first
    multi-wire op on that wire (empty for wires that start with one).  On
    |0...0> these runs only ever build a product state, so binding computes
    one 2-vector ``u_w = U_w|0>`` per wire — the gates act on the vector
    directly — and applying takes a pairwise (tree) Kronecker product of
    the ``u_w`` into the ``(p * batch, 2**n)`` state.  The incoming state
    is ignored: this instruction *is* the state preparation.

    The adjoint needs no full-state checkpoint.  Contracting the cotangent
    with every other wire's conjugated vector gives a reduced cotangent
    ``mu_w`` per row; a member ``j`` of wire ``w``'s run then gets
    ``Im <beta_j| G_j |u_j>``, with ``u_j`` the run's state after gate
    ``j`` and ``beta_j`` = ``mu_w`` pulled back through the gates after
    ``j`` — the ``Im <lambda| G_eff |psi>`` identity :class:`_SDense`
    uses, for a rank-one transition matrix.
    """

    __slots__ = ("n_wires", "runs", "touched")

    def __init__(self, n_wires, runs):
        self.n_wires = n_wires
        self.runs = runs  # one tuple of Operations per wire
        self.touched = frozenset(range(n_wires))

    def bind(self, inputs, weights, p, batch, with_grads, group_data, cdtype):
        """Per wire: the final vector and, with grads, the member trail.

        A vector stays constant ``(1, 2)`` until a weight-sourced gate makes
        it per-patch ``(p, 2)`` and an input-sourced one per-row
        ``(p * batch, 2)``; each trail entry is ``(op, theta, ket)`` with
        ``ket`` the vector after ``op``.
        """
        rows = p * batch
        ket0 = np.zeros((1, 2), dtype=cdtype)
        ket0[0, 0] = 1.0
        vecs, trails = [], []
        for run in self.runs:
            vec, trail = ket0, []
            for op in run:
                theta = None
                if op.source is None:
                    vec = _matvec(G.fixed_gate(op.name, cdtype), vec)
                else:
                    kind, index = op.source
                    if kind == "weight":
                        theta = weights[:, index]
                        if vec.shape[0] == rows != p:
                            theta = np.repeat(theta, batch)
                    else:
                        theta = inputs[:, index]
                        vec = _rows(vec, rows, batch)
                    vec = _rotate(op.name, theta, vec)
                trail.append((op, theta, vec))
            vecs.append(vec)
            trails.append(tuple(trail) if with_grads else ())
        return vecs, trails

    def apply(self, state, data, p, batch, backend):
        rows = p * batch
        layer = list(data[0])
        while len(layer) > 1:
            paired = [
                _kron_vecs(layer[i], layer[i + 1], rows, batch)
                for i in range(0, len(layer) - 1, 2)
            ]
            layer = paired + layer[len(paired) * 2:]
        (state,) = layer
        state = _rows(state, rows, batch)
        # One wire, already per-row: never hand out the bound vector.
        return state.copy() if state is data[0][0] else state

    def needs_state(self, data):
        return False

    def backward_step(self, lam, data, checkpoint, ctx):
        vecs, trails = data
        needed = [
            k for k, trail in enumerate(trails)
            if any(op.source is not None for op, __, ___ in trail)
        ]
        if not needed:
            return lam
        rows, batch = lam.shape[0], ctx.batch
        conj = [np.conj(_rows(vec, rows, batch)) for vec in vecs]
        # envs[k]: the conjugated product of the wires after k,
        # (rows, 2**(n - 1 - k)).
        envs = {}
        acc = np.ones((rows, 1), dtype=lam.dtype)
        for k in range(self.n_wires - 1, needed[0] - 1, -1):
            envs[k] = acc
            if k > needed[0]:
                acc = _kron_vecs(conj[k], acc, rows, batch)
        # Sweep the wires before k out of the cotangent, one at a time.
        swept = lam
        for k in range(needed[-1] + 1):
            split = swept.reshape(rows, 2, -1)
            if k in needed:
                mu = (split * envs[k][:, None, :]).sum(axis=2)
                self._run_grads(trails[k], mu, ctx)
            if k < needed[-1]:
                swept = (split[:, 0] * conj[k][:, :1]
                         + split[:, 1] * conj[k][:, 1:])
        # The cotangent at |0...0> feeds nothing (there is no embedding to
        # chain through), so the walk ends here without pulling it back.
        return lam

    @staticmethod
    def _run_grads(trail, mu, ctx):
        """Walk one wire's run backwards from its reduced cotangent ``mu``."""
        p, batch = ctx.p, ctx.batch
        rows = mu.shape[0]
        first = min(
            j for j, (op, __, ___) in enumerate(trail) if op.source is not None
        )
        beta = mu
        for j in range(len(trail) - 1, first - 1, -1):
            op, theta, ket = trail[j]
            if op.source is None:
                undo = _dagger(G.fixed_gate(op.name, beta.dtype))
                beta = _matvec(undo, beta)
                continue
            gket = _matvec(
                G.generator(op.name, beta.dtype), _rows(ket, rows, batch)
            )
            per = (np.conj(beta[:, 0]) * gket[:, 0]
                   + np.conj(beta[:, 1]) * gket[:, 1]).imag
            kind, index = op.source
            if kind == "weight":
                ctx.grad_weights[:, index] += per.reshape(p, batch).sum(axis=1)
            else:
                ctx.grad_inputs[:, index] += per
            if j > first:
                beta = _rotate(op.name, -_rows(theta, rows, batch), beta)


class _SDense:
    """A dense block: one fused run, or two merged on adjacent wires.

    ``slots`` holds one entry per wire of the block (1 or 2): the member
    operations of that wire's fused run plus its static-group coordinates
    (or None for dynamic runs, bound per instruction).  A pair block applies
    the kron of its two fused 2x2s as a single 4x4 pass; per-member
    gradients contract the member's 2x2 effective generator against the
    partial trace of the block's 4x4 transition matrix, so merging never
    changes any gradient.
    """

    __slots__ = ("wires", "left", "right", "d", "slots", "touched")

    def __init__(self, wires, left, right, slots):
        self.wires = wires
        self.left = left
        self.right = right
        self.d = 2 ** len(wires)
        self.slots = slots  # tuple of (members, group, row) per wire
        self.touched = frozenset(wires)

    def _bind_slot(
        self, slot, inputs, weights, batch, with_grads, group_data, cdtype
    ):
        members, group, row = slot
        if group is not None:
            fused, geffs = group_data[group]
            matrix = fused[:, row]
            grads = ()
            if with_grads:
                grads = tuple(
                    (op.source, geffs[j][:, row])
                    for j, op in enumerate(members)
                    if op.source is not None
                )
            return matrix, grads, True
        # Dynamic run: at least one member is input-sourced -> per-row mats.
        rows = inputs.shape[0]
        mats = []
        for op in members:
            if op.source is None:
                mats.append(G.fixed_gate(op.name, cdtype))
            else:
                kind, index = op.source
                if kind == "weight":
                    theta = np.repeat(weights[:, index], batch)
                else:
                    theta = inputs[:, index]
                mats.append(G.PARAMETRIC_GATES[op.name](theta, cdtype))
        suffix = None
        geff_by_pos = {}
        for j in range(len(mats) - 1, -1, -1):
            op = members[j]
            if with_grads and op.source is not None:
                gen = G.generator(op.name, cdtype)
                geff = gen if suffix is None else suffix @ gen @ _dagger(suffix)
                if geff.ndim == 2:
                    geff = np.broadcast_to(geff, (rows, 2, 2))
                geff_by_pos[j] = geff
            suffix = mats[j] if suffix is None else np.matmul(suffix, mats[j])
        if suffix.ndim == 2:  # every member fixed: broadcast to per-row
            suffix = np.broadcast_to(suffix, (rows, 2, 2))
        grads = tuple(
            (members[j].source, geff_by_pos[j]) for j in sorted(geff_by_pos)
        )
        return suffix, grads, False

    def bind(self, inputs, weights, p, batch, with_grads, group_data, cdtype):
        bound = [
            self._bind_slot(
                slot, inputs, weights, batch, with_grads, group_data, cdtype
            )
            for slot in self.slots
        ]
        if len(bound) == 1:
            matrix, grads, per_patch = bound[0]
            grads = tuple((source, 0, geff) for source, geff in grads)
            return matrix, grads, per_patch
        (m1, g1, pp1), (m2, g2, pp2) = bound
        if pp1 != pp2:  # mixed static/dynamic pair: expand static to per-row
            if pp1:
                m1 = np.repeat(m1, batch, axis=0)
                g1 = tuple((s, np.repeat(g, batch, axis=0)) for s, g in g1)
            else:
                m2 = np.repeat(m2, batch, axis=0)
                g2 = tuple((s, np.repeat(g, batch, axis=0)) for s, g in g2)
        matrix = _kron_rows(m1, m2)
        grads = tuple((source, 0, geff) for source, geff in g1) + tuple(
            (source, 1, geff) for source, geff in g2
        )
        return matrix, grads, pp1 and pp2

    def apply(self, state, data, p, batch, backend):
        matrix, __, per_patch = data
        return backend.apply_dense(
            state, matrix, p, batch, self.left, self.d, self.right, per_patch
        )

    def needs_state(self, data):
        return bool(data[1])

    def backward_step(self, lam, data, checkpoint, ctx):
        matrix, grads, per_patch = data
        p, batch = ctx.p, ctx.batch
        if grads:
            # One transition matrix per block serves every member gradient;
            # it stays per-patch unless some member needs per-sample values
            # (input-sourced params scatter into per-row input gradients).
            # The ket side comes straight from the forward checkpoint.
            need_rows = not per_patch or any(
                source[0] == "input" for source, __, ___ in grads
            )
            m_block = ctx.backend.transition_matrix(
                checkpoint, lam, p, batch, self.left, self.d, self.right,
                per_patch=not need_rows,
            )
            if self.d == 4:
                m5 = m_block.reshape(m_block.shape[0], 2, 2, 2, 2)
                traces = (
                    np.einsum("paece->pac", m5),
                    np.einsum("paeaf->pef", m5),
                )
            else:
                traces = (m_block,)
            for source, slot, geff in grads:
                kind, index = source
                per = np.einsum("pac,pac->p", geff, traces[slot]).imag
                if kind == "weight":
                    if need_rows:
                        per = per.reshape(p, batch).sum(axis=1)
                    ctx.grad_weights[:, index] += per
                else:
                    ctx.grad_inputs[:, index] += per
        return ctx.backend.apply_dense(
            lam, _dagger(matrix), p, batch, self.left, self.d, self.right,
            per_patch, out=ctx.out_for(lam),
        )


class _SDiagRZ:
    """Lone RZ: per-patch (or per-row) phase multiply on a bit mask."""

    __slots__ = ("bit", "gdiag", "source", "touched")

    def __init__(self, bit, source, wires):
        self.bit = bit
        self.gdiag = 1.0 - 2.0 * bit
        self.source = source
        self.touched = frozenset(wires)

    def bind(self, inputs, weights, p, batch, with_grads, group_data, cdtype):
        kind, index = self.source
        if kind == "weight":
            half = np.exp(-0.5j * weights[:, index])  # (p,)
        else:
            half = np.exp(-0.5j * inputs[:, index])  # (p * batch,)
        half = half.astype(cdtype, copy=False)
        return np.where(self.bit[None, :], np.conj(half)[:, None], half[:, None])

    def apply(self, state, data, p, batch, backend):
        return backend.diag_phase(state, data, p, batch)

    def needs_state(self, data):
        return True

    def backward_step(self, lam, data, checkpoint, ctx):
        psi = checkpoint
        im = lam.real * psi.imag - lam.imag * psi.real
        per = im @ self.gdiag  # (p * batch,)
        kind, index = self.source
        if kind == "weight":
            ctx.grad_weights[:, index] += per.reshape(ctx.p, ctx.batch).sum(axis=1)
        else:
            ctx.grad_inputs[:, index] += per
        return ctx.backend.diag_phase(
            lam, np.conj(data), ctx.p, ctx.batch, out=ctx.out_for(lam)
        )


class _SDiagCRZ:
    """CRZ: phase multiplies on the |10> / |11> index sets."""

    __slots__ = ("idx10", "idx11", "source", "touched")

    def __init__(self, idx10, idx11, source, wires):
        self.idx10 = idx10
        self.idx11 = idx11
        self.source = source
        self.touched = frozenset(wires)

    def bind(self, inputs, weights, p, batch, with_grads, group_data, cdtype):
        kind, index = self.source
        if kind == "weight":
            theta = np.repeat(weights[:, index], batch)
        else:
            theta = inputs[:, index]
        return np.exp(-0.5j * theta).astype(cdtype, copy=False)[:, None]

    def apply(self, state, data, p, batch, backend):
        return backend.crz_phase(state, self.idx10, self.idx11, data)

    def needs_state(self, data):
        return True

    def backward_step(self, lam, data, checkpoint, ctx):
        psi = checkpoint
        per = (
            (np.conj(lam[:, self.idx10]) * psi[:, self.idx10]).imag.sum(axis=1)
            - (np.conj(lam[:, self.idx11]) * psi[:, self.idx11]).imag.sum(axis=1)
        )
        kind, index = self.source
        if kind == "weight":
            ctx.grad_weights[:, index] += per.reshape(ctx.p, ctx.batch).sum(axis=1)
        else:
            ctx.grad_inputs[:, index] += per
        return ctx.backend.crz_phase(
            lam, self.idx10, self.idx11, np.conj(data), out=ctx.out_for(lam)
        )


class _SDiagSign:
    """Self-inverse diagonal sign flip (CZ, Z) on a precomputed index set."""

    __slots__ = ("idx", "touched")

    def __init__(self, idx, wires):
        self.idx = idx
        self.touched = frozenset(wires)

    def bind(self, inputs, weights, p, batch, with_grads, group_data, cdtype):
        return None

    def apply(self, state, data, p, batch, backend):
        return backend.diag_sign(state, self.idx)

    def needs_state(self, data):
        return False

    def backward_step(self, lam, data, checkpoint, ctx):
        return ctx.backend.diag_sign(lam, self.idx, out=ctx.out_for(lam))


class _SPermutation:
    """Basis-index gather (CNOT, X, SWAP); consecutive permutations are
    composed at compile time, so it carries an explicit inverse for the
    backward walk."""

    __slots__ = ("perm", "inv", "touched")

    def __init__(self, perm, wires):
        self.perm = perm
        self.inv = np.argsort(perm)
        self.touched = frozenset(wires)

    def compose(self, later: "_SPermutation") -> "_SPermutation":
        """This permutation followed by ``later`` as one gather."""
        return _SPermutation(
            self.perm[later.perm], self.touched | later.touched
        )

    def bind(self, inputs, weights, p, batch, with_grads, group_data, cdtype):
        return None

    def apply(self, state, data, p, batch, backend):
        return backend.gather(state, self.perm)

    def needs_state(self, data):
        return False

    def backward_step(self, lam, data, checkpoint, ctx):
        return ctx.backend.gather(lam, self.inv, out=ctx.out_for(lam))


class _SStaticGroup:
    """Bulk binding of weight-only fused runs against ``(p, n_weights)``.

    One vectorized gate construction per member position over a
    ``(p, count)`` angle table, one batched-matmul sweep for fused matrices
    and effective generators — all ``(p, count, 2, 2)``.
    """

    __slots__ = ("length", "positions", "count")

    def __init__(self, runs):
        self.count = len(runs)
        self.length = len(runs[0])
        positions = []
        for j in range(self.length):
            op = runs[0][j]
            if op.source is None:
                positions.append((op.name, G.FIXED_GATES[op.name], None))
            else:
                widx = np.array([run[j].source[1] for run in runs], dtype=np.intp)
                positions.append((op.name, None, widx))
        self.positions = positions

    def bind(self, weights, p, with_grads, cdtype):
        mats = np.empty((p, self.count, self.length, 2, 2), dtype=cdtype)
        for j, (name, const, widx) in enumerate(self.positions):
            if widx is None:
                mats[:, :, j] = const
            else:
                mats[:, :, j] = G.PARAMETRIC_GATES[name](weights[:, widx])
        suffix = None
        geffs: list[np.ndarray | None] = [None] * self.length
        for j in range(self.length - 1, -1, -1):
            name, const, widx = self.positions[j]
            if with_grads and widx is not None:
                gen = G.generator(name, cdtype)
                if suffix is None:
                    geffs[j] = np.broadcast_to(gen, (p, self.count, 2, 2))
                else:
                    geffs[j] = suffix @ gen @ _dagger(suffix)
            layer = np.ascontiguousarray(mats[:, :, j])
            suffix = layer if suffix is None else np.matmul(suffix, layer)
        return suffix, geffs


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


class StackedPlan:
    """A lowered multi-bind program: p instances of one circuit per pass."""

    __slots__ = ("n_wires", "signature", "instructions", "groups")

    def __init__(self, n_wires, signature, instructions, groups):
        self.n_wires = n_wires
        self.signature = signature
        self.instructions = instructions
        self.groups = groups

    @property
    def n_instructions(self) -> int:
        return len(self.instructions)

    def bind(self, inputs, weights, p, batch, with_grads,
             cdtype=np.complex128) -> list:
        """Resolve against ``(p, n_weights)`` weights (and flat inputs).

        ``cdtype`` is the complex dtype of every bound matrix/phase — it
        must match the stacked state the plan will run on.
        """
        cdtype = np.dtype(cdtype)
        group_data = [g.bind(weights, p, with_grads, cdtype) for g in self.groups]
        return [
            instr.bind(inputs, weights, p, batch, with_grads, group_data, cdtype)
            for instr in self.instructions
        ]

    def run(self, state, bound: list, p: int, batch: int, record=None,
            backend=None):
        """Execute the bound program on a ``(p * batch, 2**n)`` state.

        ``state`` is the amplitude-embedded initial state, or None for a
        circuit on |0...0>, whose head :class:`_SProductPrep` builds it.
        Instructions are *pure* — each apply returns a fresh array and
        never mutates its input.  When ``record`` is a list, the
        post-instruction state is appended (by reference, no copies) for
        every instruction whose backward needs it; the adjoint walk then
        reads the ket side from these checkpoints instead of un-applying
        it, halving the dense work of the backward pass.

        ``backend`` selects the kernel set the instructions dispatch
        through (:mod:`repro.quantum.backends`); None follows the active
        backend policy.  The plan itself is backend-agnostic — the same
        lowered program runs on any registered backend.
        """
        backend = resolve_backend(backend)
        for instr, data in zip(self.instructions, bound):
            state = instr.apply(state, data, p, batch, backend)
            if record is not None:
                record.append(state if instr.needs_state(data) else None)
        return state

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"{type(self).__name__}(wires={self.n_wires}, "
            f"instructions={len(self.instructions)}, groups={len(self.groups)})"
        )


class CompiledPlan(StackedPlan):
    """The per-instance plan: a degenerate ``p = 1`` view of the stack.

    Same instructions, same kernels, same checkpointed transition-matrix
    backward — only the entry-point shapes differ: ``bind`` takes a flat
    ``(n_weights,)`` vector and ``run`` a plain ``(batch, 2**n)`` state
    (or None, for a circuit its product-state prep starts).
    :func:`compiled_plan` shares the lowered instruction list with
    :func:`stacked_plan`, so a circuit used both ways is lowered once.
    """

    __slots__ = ()

    def bind(self, inputs, weights, with_grads, cdtype=np.complex128) -> list:
        """Resolve the plan against a flat ``(n_weights,)`` vector.

        Returns one opaque data blob per instruction, exactly as the
        stacked bind does for ``p = 1``.
        """
        batch = 1 if inputs is None else inputs.shape[0]
        return StackedPlan.bind(
            self, inputs, np.asarray(weights)[None, :], 1, batch,
            with_grads, cdtype,
        )

    def run(self, state, bound: list, batch: int, record=None,
            backend=None) -> np.ndarray:
        """Execute the bound program on a ``(batch, 2**n)`` state."""
        return StackedPlan.run(
            self, state, bound, 1, batch, record=record, backend=backend,
        )


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def _schedule_stacked(instructions: list) -> list:
    """Commutation-aware peephole pass over the lowered instruction list.

    Instructions on disjoint wires commute, which licenses three rewrites
    that shrink the SEL hot loop (where Rot runs interleave with the CNOT
    ring) without changing any output or gradient:

    * a single-wire dense block merges with an earlier adjacent-wire single
      reachable across disjoint instructions, forming one 4x4 kron block;
    * an unmerged dense block slides before a trailing stretch of
      disjoint-wire permutations, clustering the permutations together;
    * consecutive permutations compose into a single index gather (one
      gather per CNOT ring instead of one per CNOT).
    """
    out: list = []

    def merge_pair(target: int, instr: _SDense) -> None:
        prev = out[target]
        low, high = sorted((prev, instr), key=lambda s: s.wires[0])
        out[target] = _SDense(
            (low.wires[0], high.wires[0]),
            low.left,
            high.right,
            (low.slots[0], high.slots[0]),
        )

    for instr in instructions:
        if isinstance(instr, _SDense) and len(instr.wires) == 1:
            wire = instr.wires[0]
            target = None
            for j in range(len(out) - 1, -1, -1):
                prev = out[j]
                if (
                    isinstance(prev, _SDense)
                    and len(prev.wires) == 1
                    and abs(prev.wires[0] - wire) == 1
                ):
                    target = j
                    break
                if wire in prev.touched:
                    break
            if target is not None:
                merge_pair(target, instr)
                continue
            # No partner: slide before trailing disjoint permutations so the
            # ring gathers end up adjacent (and later singles can reach us).
            insert_at = len(out)
            while (
                insert_at > 0
                and isinstance(out[insert_at - 1], _SPermutation)
                and wire not in out[insert_at - 1].touched
            ):
                insert_at -= 1
            out.insert(insert_at, instr)
            continue
        if isinstance(instr, _SPermutation) and out and isinstance(
            out[-1], _SPermutation
        ):
            out[-1] = out[-1].compose(instr)
            continue
        out.append(instr)
    return out


def _lower_two_qubit(op: Operation, n_wires: int):
    indices = np.arange(2**n_wires)
    shifts = [n_wires - 1 - w for w in op.wires]
    bits = [(indices >> s) & 1 for s in shifts]
    if op.name == "CNOT":
        control, target = bits[0], shifts[1]
        return _SPermutation(indices ^ (control << target), op.wires)
    if op.name == "CZ":
        return _SDiagSign(np.nonzero(bits[0] & bits[1])[0], op.wires)
    if op.name == "SWAP":
        diff = bits[0] ^ bits[1]
        return _SPermutation(
            indices ^ (diff << shifts[0]) ^ (diff << shifts[1]), op.wires
        )
    if op.name == "CRZ":
        both = bits[0].astype(bool)
        target = bits[1].astype(bool)
        idx10 = np.nonzero(both & ~target)[0]
        idx11 = np.nonzero(both & target)[0]
        return _SDiagCRZ(idx10, idx11, op.source, op.wires)
    raise ValueError(f"cannot lower two-qubit gate {op.name!r}")  # pragma: no cover


def compile_stacked(circuit: Circuit) -> StackedPlan:
    """Lower a circuit into a :class:`StackedPlan` (no caching)."""
    n = circuit.n_wires
    instructions: list = []
    open_runs: dict[int, list[Operation]] = {}
    group_index: dict[tuple, int] = {}
    group_runs: list[list[tuple[Operation, ...]]] = []
    # On |0...0>, each wire's first flushed run is its leading layer: it
    # commutes with everything lowered so far (which never touched the
    # wire), so it moves into the product-state prep at the head.
    head: dict[int, tuple[Operation, ...]] | None = (
        {} if circuit.state_prep is None else None
    )

    def flush(wire: int) -> None:
        members = open_runs.pop(wire, None)
        if head is not None and wire not in head:
            head[wire] = tuple(members or ())
            return
        if not members:
            return
        members = tuple(members)
        if len(members) == 1:
            op = members[0]
            if op.name == "RZ":
                instructions.append(
                    _SDiagRZ(_wire_bit(n, wire), op.source, (wire,))
                )
                return
            if op.name == "Z":
                instructions.append(
                    _SDiagSign(np.nonzero(_wire_bit(n, wire))[0], (wire,))
                )
                return
            if op.name == "X":
                indices = np.arange(2**n)
                instructions.append(
                    _SPermutation(indices ^ (1 << (n - 1 - wire)), (wire,))
                )
                return
        static = all(
            op.source is None or op.source[0] == "weight" for op in members
        )
        group = row = None
        if static:
            sig = tuple(
                (op.name, None if op.source is None else op.source[0])
                for op in members
            )
            group = group_index.setdefault(sig, len(group_runs))
            if group == len(group_runs):
                group_runs.append([])
            row = len(group_runs[group])
            group_runs[group].append(members)
        left, right = 2**wire, 2 ** (n - 1 - wire)
        instructions.append(
            _SDense((wire,), left, right, ((members, group, row),))
        )

    for op in circuit.ops:
        _validate_wires(op, n)
        if len(op.wires) == 1 and op.name in _SINGLE_QUBIT:
            open_runs.setdefault(op.wires[0], []).append(op)
        else:
            for wire in op.wires:
                flush(wire)
            instructions.append(_lower_two_qubit(op, n))
    for wire in sorted(open_runs):
        flush(wire)
    if head is not None:
        runs = tuple(head.get(wire, ()) for wire in range(n))
        instructions.insert(0, _SProductPrep(n, runs))

    instructions = _schedule_stacked(instructions)
    groups = [_SStaticGroup(runs) for runs in group_runs]
    return StackedPlan(n, circuit_signature(circuit), instructions, groups)


def compile_circuit(circuit: Circuit) -> CompiledPlan:
    """Lower a circuit into a :class:`CompiledPlan` (no caching).

    The per-instance plan is the same lowered program as the stacked one,
    re-wrapped in the ``p = 1`` entry points.
    """
    plan = compile_stacked(circuit)
    return CompiledPlan(
        plan.n_wires, plan.signature, plan.instructions, plan.groups
    )


# Structural plan caches: patched layers build p identical sub-circuits,
# which all share one lowered program; the per-instance cache re-wraps the
# stacked program, so a circuit used both ways is lowered exactly once.
# Keyed by the full signature, so they can never hand back a stale program;
# bounded in practice by the handful of circuit shapes a model uses.
_SPLAN_CACHE: dict[tuple, StackedPlan] = {}
_PLAN_CACHE: dict[tuple, CompiledPlan] = {}


def stacked_plan(circuit: Circuit) -> StackedPlan:
    """The circuit's cached stacked plan, recompiled when structure changes."""
    cached = getattr(circuit, "_stacked_plan", None)
    signature = circuit_signature(circuit)
    if cached is not None and cached.signature == signature:
        return cached
    plan = _SPLAN_CACHE.get(signature)
    if plan is None:
        plan = compile_stacked(circuit)
        _SPLAN_CACHE[signature] = plan
    circuit._stacked_plan = plan
    return plan


def compiled_plan(circuit: Circuit) -> CompiledPlan:
    """The circuit's cached plan, recompiled only if its structure changed."""
    cached = getattr(circuit, "_compiled_plan", None)
    signature = circuit_signature(circuit)
    if cached is not None and cached.signature == signature:
        return cached
    plan = _PLAN_CACHE.get(signature)
    if plan is None:
        stacked = stacked_plan(circuit)
        plan = CompiledPlan(
            stacked.n_wires, stacked.signature, stacked.instructions,
            stacked.groups,
        )
        _PLAN_CACHE[signature] = plan
    circuit._compiled_plan = plan
    return plan
