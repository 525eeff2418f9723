"""Reverse-mode automatic differentiation over dense float64 arrays.

Values live in :class:`Tensor` objects backed by numpy. While a
:class:`Tape` is active (``with Tape() as tape:``) every operation is
recorded in execution order as one node: its output, its input tensors
and its backward; parameters and constants get no node of their own.
``tape.backward(root, params)`` replays the nodes in reverse, keying
gradients by tensor identity, and returns a gradient for every parameter
of ``params``. Outside an active tape the same operations simply compute
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
        self.tensor, self.parents, self.bwd, self.kind = tensor, parents, bwd, kind


_TAPES: list[Tape] = []  # active tapes, innermost last


class Tape:
    """Append-only record of operations for one forward pass."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPES.pop()
        return False

    def record(self, out: Tensor, parents, bwd, kind: str) -> None:
        self.nodes.append(_Node(out, parents, bwd, kind))

    def backward(self, root: Tensor, params: ParameterStore) -> dict[str, np.ndarray]:
        """Gradients of the scalar ``root`` for every parameter of ``params``.

        Returns a dict mapping each name of ``params``, in store order, to
        a gradient array of the parameter's shape; a parameter that
        ``root`` does not depend on, or that was never used on this tape,
        gets zeros.
        """
        if not any(node.tensor is root for node in reversed(self.nodes)):
            raise ContractError("backward root was not computed on this tape")
        if root.data.shape != ():
            raise ContractError(
                f"backward root must be a scalar, got shape {root.data.shape}"
            )
        # Keyed by id(tensor), stable because the nodes keep every tensor they
        # name alive; nodes recorded after the root never receive a gradient.
        grads: dict[int, np.ndarray] = {id(root): np.ones((), dtype=np.float64)}
        owned: set[int] = set()  # ids whose gradient a scatter made: private, no -0.0
        for node in reversed(self.nodes):
            g = grads.pop(id(node.tensor), None)  # read by nothing after its own backward
            if g is None:
                continue
            for p, part in zip(node.parents, node.bwd(g)):
                if part is None:
                    continue
                acc = grads.get(id(p))
                if type(part) is RowGrad:
                    if acc is None:
                        acc = np.zeros_like(p.data)
                    elif id(p) not in owned:
                        acc = acc + 0.0
                    acc[part.ids] += part.values
                    owned.add(id(p))
                else:
                    acc = part if acc is None else acc + part
                    owned.discard(id(p))
                grads[id(p)] = acc
        out: dict[str, np.ndarray] = {}
        for name, t in params.items():
            g = grads.get(id(t))
            out[name] = np.zeros_like(t.data) if g is None else np.asarray(g, dtype=np.float64)
        return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    """Wrap an array or scalar as a tensor that is not a parameter."""
    return _as_tensor(x)


def _emit(kind, data, parents, bwd) -> Tensor:
    out = Tensor(data)
    if _TAPES:
        _TAPES[-1].record(out, parents, bwd, kind)
    return out


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


def linear(x, weight, bias=None) -> Tensor:
    """The affine map ``x @ weight.T`` of x [m, k] by weight [n, k], plus
    ``bias`` (broadcast to [m, n]) if given.

    The bias is added into the product in place, so ``linear(x, w, bias)``
    equals ``add(linear(x, w), bias)`` bit for bit, gradients included,
    with one array and one tape node fewer.
    """
    x, weight = _as_tensor(x), _as_tensor(weight)
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise ShapeError(f"linear: operands must be 2-d, got {x.shape} and {weight.shape}")
    if x.data.shape[1] != weight.data.shape[1]:
        raise ShapeError(f"linear: incompatible shapes {x.shape} and {weight.shape}")
    data = x.data @ weight.data.T
    if bias is not None:
        bias = _as_tensor(bias)
        try:  # numpy refuses a bias that would grow the product
            data += bias.data
        except ValueError:
            raise ShapeError(f"linear: bias {bias.shape} does not broadcast to {data.shape}") from None

    def bwd(g):
        # (x.T @ g).T, not g.T @ x, which BLAS may round differently
        grads = g @ weight.data, (x.data.T @ g).T
        return grads if bias is None else grads + (_unbroadcast(g, bias.data.shape),)

    # recorded as "matmul", the op kind the benchmark's per-op metrics name
    return _emit("matmul", data, (x, weight) if bias is None else (x, weight, bias), bwd)


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
        # one flat add.at over (row, entry) cells: faster than a row-wise one, same order
        n, width = np.count_nonzero(first), int(np.prod(g.shape[1:]))
        cells = (np.cumsum(first)[:, None] - 1) * width + np.arange(width)
        values = np.zeros(n * width)
        np.add.at(values, cells.reshape(-1), g.reshape(-1))
        return (RowGrad(ids[first], values.reshape((n,) + g.shape[1:])),)

    return _emit("rows", data, (table,), bwd)


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


def segment_mean(a, lengths) -> Tensor:
    """Mean row of each run of ``lengths[b]`` consecutive rows, the runs tiling
    the matrix ``a`` in order: [T, k] -> [B, k]. An empty run raises
    ``ShapeError``, where ``np.add.reduceat`` would return the next row."""
    a, n = _as_tensor(a), np.asarray(lengths, dtype=np.intp)
    ends = n.cumsum()  # the method: a third of np.cumsum's cost on one sentence
    if n.size and n.min() < 1:
        raise ShapeError("segment_mean: empty run")
    if a.data.ndim != 2 or (ends[-1] if n.size else 0) != len(a.data):
        raise ShapeError(f"segment_mean: runs of {n.sum()} rows for a matrix of shape {a.shape}")
    col = n[:, None]
    data = np.add.reduceat(a.data, ends - n, axis=0) / col
    return _emit("segment_mean", data, (a,), lambda g: (np.repeat(g / col, n, axis=0),))


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
        try:  # the sum must keep a's shape: numpy refuses to grow ``out``
            vals = np.add(vals, shift, out=np.empty_like(vals))
        except ValueError:
            raise ShapeError(f"logsumexp_rows: shift {shift.shape} does not broadcast to {a.shape}") from None
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
