"""Reverse-mode automatic differentiation over dense float64 arrays.

Values live in :class:`Tensor` objects backed by numpy. While a
:class:`Tape` is active (``with Tape() as tape:``) every operation is
recorded in execution order; ``tape.backward(root, params)`` replays the
record in reverse and returns a gradient for every parameter of
``params``. Outside an active tape the same operations simply compute
values, which keeps evaluation-time code cheap.

Gradients are dense arrays, except that the backward of :func:`rows`
returns a :class:`RowGrad`: the unique gathered row ids and one value
row per id, so a gather from a [V, d] table costs in proportion to the
rows it touched, not to V. ``backward`` has one accumulation rule: each
gradient part is added into its node's gradient as it arrives, a dense
part as ``acc + part`` and a row part scattered into ``acc[ids]``. A
scatter writes in place only into a buffer that a scatter of this pass
made. Any other buffer is first copied as ``acc + 0.0``: a buffer an
op's backward handed over may be shared with another parent, and the
copy turns -0.0 into 0.0 as adding a zero row would, so the result is
bit-identical to summing one dense ``np.add.at`` table per gather in
arrival order. A node's gradient is released as soon as its own
backward has run, so a pass holds only the gradients still waiting to
be consumed.

Tapes nest: operations are recorded on the innermost active tape only.
Values produced under one tape are treated as constants when used under
another.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DeterminismError, DomainError, ShapeError

# softplus(x) = x for x above this cutoff; exp(30) already dwarfs 1.0
_SOFTPLUS_CUTOFF = 30.0


class Tensor:
    """A float64 array."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


class ParameterStore:
    """Named parameter tensors, kept in insertion order."""

    def __init__(self):
        self._slots: dict[str, Tensor] = {}

    def add(self, name: str, data) -> Tensor:
        if name in self._slots:
            raise ContractError(f"parameter {name!r} already registered")
        t = Tensor(np.array(data, dtype=np.float64))
        self._slots[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._slots[name]

    def __contains__(self, name: str) -> bool:
        return name in self._slots

    def __len__(self):
        return len(self._slots)

    def names(self):
        return list(self._slots)

    def items(self):
        return self._slots.items()

    def copy_values(self) -> dict[str, np.ndarray]:
        return {k: t.data.copy() for k, t in self._slots.items()}


class RowGrad:
    """Row-sparse gradient of a table: ``values[k]`` is the gradient of
    row ``ids[k]``; every other row's gradient is zero. ``ids`` ascend strictly."""

    __slots__ = ("ids", "values")

    def __init__(self, ids: np.ndarray, values: np.ndarray):
        self.ids = ids
        self.values = values

    @property
    def nbytes(self) -> int:
        return self.ids.nbytes + self.values.nbytes


class _Node:
    __slots__ = ("tensor", "parents", "bwd", "kind")

    def __init__(self, tensor, parents, bwd, kind):
        self.tensor = tensor
        self.parents = parents
        self.bwd = bwd
        self.kind = kind


_TAPES: list[Tape] = []  # active tapes, innermost last


class Tape:
    """Append-only record of operations for one forward pass."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self._pos: dict[int, int] = {}

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPES.pop()
        return False

    def _ensure(self, t: Tensor) -> int:
        pos = self._pos.get(id(t))
        if pos is None:
            pos = len(self.nodes)
            self.nodes.append(_Node(t, (), None, "leaf"))
            self._pos[id(t)] = pos
        return pos

    def record(self, out: Tensor, parents, bwd, kind: str) -> None:
        parent_pos = tuple(self._ensure(p) for p in parents)
        self._pos[id(out)] = len(self.nodes)
        self.nodes.append(_Node(out, parent_pos, bwd, kind))

    def backward(self, root: Tensor, params: ParameterStore) -> dict[str, np.ndarray]:
        """Gradients of the scalar ``root`` for every parameter of ``params``.

        Returns a dict mapping each name of ``params``, in store order, to
        a gradient array of the parameter's shape; a parameter that
        ``root`` does not depend on, or that was never used on this tape,
        gets zeros.
        """
        pos = self._pos.get(id(root))
        if pos is None:
            raise ContractError("backward root was not computed on this tape")
        if root.data.shape != ():
            raise ContractError(
                f"backward root must be a scalar, got shape {root.data.shape}"
            )
        grads: list[np.ndarray | None] = [None] * len(self.nodes)
        owned = [False] * len(self.nodes)  # grads[i] made by a scatter: private, no -0.0
        grads[pos] = np.ones((), dtype=np.float64)
        for i in range(pos, -1, -1):
            node = self.nodes[i]
            g = grads[i]
            if node.bwd is None or g is None:
                continue
            grads[i] = None  # read by nothing after its own backward: free it now
            for p, part in zip(node.parents, node.bwd(g)):
                if part is None:
                    continue
                acc = grads[p]
                if type(part) is RowGrad:
                    if acc is None:
                        acc = np.zeros_like(self.nodes[p].tensor.data)
                    elif not owned[p]:
                        acc = acc + 0.0
                    acc[part.ids] += part.values
                    grads[p], owned[p] = acc, True
                else:
                    grads[p], owned[p] = part if acc is None else acc + part, False
        out: dict[str, np.ndarray] = {}
        for name, t in params.items():
            i = self._pos.get(id(t))
            g = None if i is None else grads[i]
            out[name] = np.zeros_like(t.data) if g is None else np.asarray(g, dtype=np.float64)
        return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    """Wrap an array or scalar as a leaf that is not a parameter."""
    return _as_tensor(x)


def _emit(kind, data, parents, bwd) -> Tensor:
    out = Tensor(data)
    if _TAPES:
        _TAPES[-1].record(out, parents, bwd, kind)
    return out


def _broadcasts_to(shape: tuple, target: tuple) -> bool:
    try:
        return np.broadcast_shapes(shape, target) == target
    except ValueError:
        return False


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    g = np.asarray(grad)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _emit("add", data, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data - b.data

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _emit("sub", data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def bwd(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _emit("mul", data, (a, b), bwd)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data / b.data

    def bwd(g):
        return (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        )

    return _emit("div", data, (a, b), bwd)


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _emit("neg", -a.data, (a,), lambda g: (-g,))


# ---------------------------------------------------------------------------
# linear algebra and structure


def matmul(a, b, bias=None) -> Tensor:
    """``a @ b`` of two matrices, plus ``bias`` (broadcast to the product's
    shape) if given.

    The bias is added into the product in place, so ``matmul(a, b, bias)``
    equals ``add(matmul(a, b), bias)`` bit for bit, gradients included,
    with one array and one tape node fewer.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: operands must be 2-d, got {a.shape} and {b.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    data = a.data @ b.data
    if bias is not None:
        bias = _as_tensor(bias)
        if not _broadcasts_to(bias.data.shape, data.shape):
            raise ShapeError(f"matmul: bias {bias.shape} does not broadcast to {data.shape}")
        data += bias.data

    def bwd(g):
        grads = g @ b.data.T, a.data.T @ g
        return grads if bias is None else grads + (_unbroadcast(g, bias.data.shape),)

    return _emit("matmul", data, (a, b) if bias is None else (a, b, bias), bwd)


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: expected a matrix, got shape {a.shape}")
    return _emit("transpose", a.data.T, (a,), lambda g: (g.T,))


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.data.shape
    return _emit("reshape", a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def rows(table, ids) -> Tensor:
    """Gather rows ``table[ids]``; repeated ids accumulate gradient.

    The gradient is a :class:`RowGrad` over the sorted unique ids; the
    row of a repeated id sums its occurrences in the order they occur.
    """
    table = _as_tensor(table)
    idx = np.asarray(ids, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ShapeError(
            f"rows: index out of range for table with {table.data.shape[0]} rows"
        )
    data = table.data[idx]

    def bwd(g):
        flat = idx.reshape(-1)
        order = np.argsort(flat, kind="stable")  # equal ids keep occurrence order
        ids = flat[order]
        g = np.reshape(g, (flat.size,) + table.data.shape[1:])[order]
        first = np.ones(ids.size, dtype=bool)
        np.not_equal(ids[1:], ids[:-1], out=first[1:])
        if first.all():
            return (RowGrad(ids, g),)
        values = np.zeros((np.count_nonzero(first),) + g.shape[1:])
        np.add.at(values, np.cumsum(first) - 1, g)
        return (RowGrad(ids[first], values),)

    return _emit("rows", data, (table,), bwd)


def gather_rc(a, row_idx, col_idx) -> Tensor:
    """Pick ``a[row_idx[k], col_idx[k]]`` for each k, as a vector."""
    a = _as_tensor(a)
    ri = np.asarray(row_idx, dtype=np.intp)
    ci = np.asarray(col_idx, dtype=np.intp)
    data = a.data[ri, ci]

    def bwd(g):
        z = np.zeros_like(a.data)
        np.add.at(z, (ri, ci), g)
        return (z,)

    return _emit("gather_rc", data, (a,), bwd)


def stack(tensors) -> Tensor:
    """Stack same-shaped tensors along a new leading axis."""
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("stack: empty sequence")
    data = np.stack([t.data for t in ts])

    def bwd(g):
        return tuple(g[i] for i in range(len(ts)))

    return _emit("stack", data, tuple(ts), bwd)


def total(a) -> Tensor:
    """Sum of all entries, as a scalar."""
    a = _as_tensor(a)
    shape = a.data.shape
    return _emit("total", a.data.sum(), (a,), lambda g: (np.full(shape, g),))


def sum_rows(a) -> Tensor:
    """Per-row sum of a matrix: [m, k] -> [m]."""
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"sum_rows: expected a matrix, got shape {a.shape}")
    return _emit("sum_rows", a.data.sum(axis=1), (a,), lambda g: (np.repeat(g[:, None], a.data.shape[1], axis=1),))


# ---------------------------------------------------------------------------
# reductions in log space


def logsumexp_rows(a, shift=None) -> Tensor:
    """Stable per-row log-sum-exp: [m, k] -> [m].

    ``shift`` is a constant array (broadcast to [m, k]) added to ``a``
    inside the reduction: the result equals
    ``logsumexp_rows(add(a, constant(shift)))`` bit for bit, gradients
    included, without keeping the shifted matrix on the tape.
    """
    a = _as_tensor(a)
    if a.data.ndim != 2 or a.data.shape[1] == 0:
        raise ShapeError(f"logsumexp_rows: expected a matrix with columns, got shape {a.shape}")
    vals = a.data
    if shift is not None:
        shift = np.asarray(shift, dtype=np.float64)
        if not _broadcasts_to(shift.shape, vals.shape):
            raise ShapeError(f"logsumexp_rows: shift {shift.shape} does not broadcast to {a.shape}")
        vals = vals + shift
    hi = vals.max(axis=1, keepdims=True)
    shifted = vals - hi
    np.exp(shifted, out=shifted)
    z = shifted.sum(axis=1, keepdims=True)
    data = (hi + np.log(z))[:, 0]

    def bwd(g):
        out = g[:, None] * shifted
        out /= z
        return (out,)

    return _emit("logsumexp_rows", data, (a,), bwd)


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def tanh(x) -> Tensor:
    x = _as_tensor(x)
    y = np.tanh(x.data)
    return _emit("tanh", y, (x,), lambda g: (g * (1.0 - y * y),))


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) is in (0, 1], so neither branch can overflow
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    y = _sigmoid_values(x.data)
    return _emit("sigmoid", y, (x,), lambda g: (g * y * (1.0 - y),))


def _softplus_values(x: np.ndarray) -> np.ndarray:
    """ln(1 + e^x), returning x itself above the overflow cutoff."""
    clipped = np.minimum(x, _SOFTPLUS_CUTOFF)
    return np.where(x > _SOFTPLUS_CUTOFF, x, np.log1p(np.exp(clipped)))


def softplus(x) -> Tensor:
    """ln(1 + e^x), returning x itself above the overflow cutoff."""
    x = _as_tensor(x)
    y = _softplus_values(x.data)
    s = _sigmoid_values(x.data)
    return _emit("softplus", y, (x,), lambda g: (g * s,))


def log(x) -> Tensor:
    x = _as_tensor(x)
    if np.any(x.data <= 0.0):
        raise DomainError("log: input has non-positive entries")
    return _emit("log", np.log(x.data), (x,), lambda g: (g / x.data,))


# ---------------------------------------------------------------------------
# finite-difference verification


@dataclass
class GradCheckReport:
    """Outcome of comparing analytic gradients to central differences."""

    max_rel_err: float
    worst_param: str | None
    per_param: dict[str, float] = field(default_factory=dict)


def _rel_err(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1e-6)


def gradient_check(loss_builder, params: ParameterStore, step: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradients of a scalar loss to central differences.

    ``loss_builder`` must rebuild the loss from the current parameter
    values with no internal randomness; determinism is verified by
    evaluating it twice before any perturbation.
    """
    with Tape() as tape:
        loss = loss_builder()
    if loss.data.shape != ():
        raise ContractError(f"loss must be scalar, got shape {loss.data.shape}")
    first = float(loss.data)
    second = float(loss_builder().data)
    if first != second:
        raise DeterminismError(
            f"loss builder is not deterministic: {first!r} != {second!r}"
        )
    analytic = tape.backward(loss, params=params)

    per_param: dict[str, float] = {}
    worst = None
    worst_err = 0.0
    for name, tensor in params.items():
        flat = tensor.data.reshape(-1)
        ana = analytic[name].reshape(-1)
        err = 0.0
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            f_plus = float(loss_builder().data)
            flat[k] = orig - step
            f_minus = float(loss_builder().data)
            flat[k] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            err = max(err, _rel_err(float(ana[k]), numeric))
        per_param[name] = err
        if err >= worst_err and flat.size > 0:
            worst_err = err
            worst = name
    if not per_param:
        return GradCheckReport(0.0, None, {})
    return GradCheckReport(worst_err, worst, per_param)
