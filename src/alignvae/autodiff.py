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
returns a :class:`RowGrad`: the gathered ids, repeats and order kept,
and the upstream gradient row of each, so a gather from a [V, d] table
costs in proportion to the rows it read, not to V. ``backward`` keeps
each tensor's gradient parts in arrival order and adds them up when the
tensor's own backward is about to run, or, for a parameter, at the end:
a dense part as ``acc + part``, and a row part by one flat ``np.add.at``
into a buffer that this sum made (a shared dense part is copied first),
each gathered row added in the order the gather read it. So a pass holds
only the parts still waiting to be consumed. With ``row_grads=True``, as
the optimizer asks, a parameter reached only by gathers that read at most
half its rows, repeats counted, comes back as one compact
:class:`RowGrad` over its sorted unique ids, with the bytes of the dense
table's rows: the same loop sums its parts into a [U, ...] buffer, each
id read as its slot among the U unique ids; every other gradient is dense.

Tapes nest: operations are recorded on the innermost active tape only.
Values produced under one tape are treated as constants when used under
another.
"""

from __future__ import annotations

import math
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
    """Row-sparse gradient of a table: the sum over k of ``values[k]`` added
    into row ``ids[k]``; ids may repeat, and rows no id names get zero."""

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

    def backward(self, root: Tensor, params: ParameterStore,
                 row_grads: bool = False) -> dict[str, np.ndarray | RowGrad]:
        """Gradients of the scalar ``root`` for every parameter of ``params``.

        Returns a dict mapping each name of ``params``, in store order, to
        a gradient array of the parameter's shape; a parameter that
        ``root`` does not depend on, or that was never used on this tape,
        gets zeros. With ``row_grads``, a parameter reached only by
        gathers that read at most half its rows, repeats counted, gets one
        :class:`RowGrad` over its sorted unique ids instead, whose rows
        are those of the dense table.
        """
        if not any(node.tensor is root for node in reversed(self.nodes)):
            raise ContractError("backward root was not computed on this tape")
        if root.data.shape != ():
            raise ContractError(
                f"backward root must be a scalar, got shape {root.data.shape}"
            )
        # Keyed by id(tensor), stable because the nodes keep every tensor they
        # name alive; nodes recorded after the root never receive a gradient.
        parts: dict[int, list] = {id(root): [np.ones((), dtype=np.float64)]}
        for node in reversed(self.nodes):
            if id(node.tensor) not in parts:
                continue
            # its parts are read by nothing else, so they go before its backward runs
            g = _sum_parts(parts.pop(id(node.tensor)), node.tensor.data.shape)
            for p, part in zip(node.parents, node.bwd(g)):
                parts.setdefault(id(p), []).append(part)
        return {name: _sum_parts(parts.get(id(t), []), t.data.shape, row_grads)
                for name, t in params.items()}


def _sum_parts(parts: list, shape: tuple, compact: bool = False) -> np.ndarray | RowGrad:
    """The sum of one tensor's gradient parts, in arrival order; zeros if none.

    With ``compact``, row parts only, whose ids, repeats counted, number at
    most half the table's rows, come back as one compact ``RowGrad``.
    """
    if (compact and parts and all(type(part) is RowGrad for part in parts)
            and 2 * sum(len(part.ids) for part in parts) <= shape[0]):
        ids, slots = np.unique(np.concatenate([part.ids for part in parts]), return_inverse=True)
        cuts = np.cumsum([len(part.ids) for part in parts[:-1]])
        slotted = [RowGrad(s, part.values) for s, part in zip(np.split(slots, cuts), parts)]
        return RowGrad(ids, _sum_parts(slotted, (len(ids), *shape[1:])))
    acc, made = None, False  # made: acc is a buffer this sum made, private and in C order
    for part in parts:
        if type(part) is RowGrad:
            if not made:
                acc = np.zeros(shape) if acc is None else acc.copy()  # linear's weight gradient is F-ordered
                made = True
            _scatter(acc, part.ids, part.values)
        else:
            acc, made = (part if acc is None else acc + part), False
    return np.zeros(shape) if acc is None else np.asarray(acc, dtype=np.float64)


def _scatter(acc: np.ndarray, ids: np.ndarray, values: np.ndarray) -> None:
    """Add ``values[k]`` into row ``ids[k]`` of the C-ordered ``acc``, k in order."""
    # one flat add.at over (row, entry) cells: faster than a row-wise one
    width = math.prod(acc.shape[1:])
    cells = ids[:, None] * width + np.arange(width)
    np.add.at(acc.reshape(-1), cells.reshape(-1), values.reshape(-1))


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

    The gradient is a :class:`RowGrad` of the ids as gathered, flattened,
    and the upstream gradient row of each.
    """
    table = _as_tensor(table)
    idx = np.asarray(ids, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ShapeError(
            f"rows: index out of range for table with {table.data.shape[0]} rows"
        )
    data = table.data[idx]

    def bwd(g):
        return (RowGrad(idx.reshape(-1), np.reshape(g, (idx.size,) + table.data.shape[1:])),)

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
    # exp(-|x|) is in (0, 1], so the divide cannot overflow
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, t) / (1.0 + t)


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    y = _sigmoid_values(x.data)
    return _emit("sigmoid", y, (x,), lambda g: (g * y * (1.0 - y),))


def _softplus_values(x: np.ndarray) -> np.ndarray:
    """ln(1 + e^x), returning x itself above the overflow cutoff."""
    clipped = np.minimum(x, _SOFTPLUS_CUTOFF)
    return np.where(x > _SOFTPLUS_CUTOFF, x, np.log1p(np.exp(clipped)))


def softplus(x) -> Tensor:
    """ln(1 + e^x), x itself above the overflow cutoff; backward computes the sigmoid."""
    x = _as_tensor(x)
    y = _softplus_values(x.data)
    return _emit("softplus", y, (x,), lambda g: (g * _sigmoid_values(x.data),))


# ---------------------------------------------------------------------------
# divergences


def gaussian_kl(u, s, mu, sigma) -> Tensor:
    """Per-row KL[N(u, s^2) || N(mu, sigma^2)] between diagonal Gaussians, in
    the closed form of Kingma & Welling (2014): u, s [m, k] -> [m], with mu
    and sigma broadcast to [m, k]. A non-positive scale raises ``DomainError``."""
    u, s, mu, sigma = (_as_tensor(t) for t in (u, s, mu, sigma))
    try:
        fits = u.data.ndim == 2 and s.shape == u.shape == np.broadcast_shapes(u.shape, mu.shape, sigma.shape)
    except ValueError:
        fits = False
    if not fits:
        raise ShapeError(f"gaussian_kl: means and scales {u.shape}, {s.shape}, {mu.shape} "
                         f"and {sigma.shape} do not broadcast to one [m, k] matrix")
    if np.any(s.data <= 0.0) or np.any(sigma.data <= 0.0):
        raise DomainError("gaussian_kl: scales must be positive")
    diff = u.data - mu.data
    var = sigma.data * sigma.data
    quad = (s.data * s.data + diff * diff) / (2.0 * var)
    data = ((np.log(sigma.data) - np.log(s.data)) + (quad - 0.5)).sum(axis=1)

    def bwd(g):
        g = g[:, None]
        du = g * diff / var
        dsigma = g * (1.0 / sigma.data - 2.0 * quad / sigma.data)
        return (du, g * (s.data / var - 1.0 / s.data), _unbroadcast(-du, mu.data.shape),
                _unbroadcast(dsigma, sigma.data.shape))

    return _emit("gaussian_kl", data, (u, s, mu, sigma), bwd)


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
