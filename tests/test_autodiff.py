import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignvae import autodiff as ad
from alignvae.autodiff import (
    GradCheckReport,
    ParameterStore,
    Tape,
    gradient_check,
)
from alignvae.errors import (
    ContractError,
    DeterminismError,
    DomainError,
    ShapeError,
)
from conftest import dense_of



class TestLinear:
    def test_identity(self):
        out = ad.linear(ad.constant(np.eye(2)), ad.constant([[3.0, 4.0]]), ad.constant([0.0]))
        np.testing.assert_array_equal(out.data, [[3.0], [4.0]])

    def test_direct_formula(self):
        out = ad.linear(ad.constant([[1.0, 2.0]]), ad.constant([[1.0, 1.0]]), ad.constant([5.0]))
        np.testing.assert_array_equal(out.data, [[8.0]])

    def test_shape_mismatch_names_operands(self):
        with pytest.raises(ShapeError, match=r"linear: incompatible shapes \(2, 3\) and \(1, 2\)"):
            ad.linear(ad.constant(np.ones((2, 3))), ad.constant(np.ones((1, 2))),
                      ad.constant(np.ones(1)))
        with pytest.raises(ShapeError, match=r"bias"):
            ad.linear(ad.constant(np.ones((1, 3))), ad.constant(np.ones((1, 3))),
                      ad.constant(np.ones(3)))

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(0)
        store = ParameterStore()
        w = store.add("w", rng.uniform(-2, 2, size=(3, 4)))
        x = store.add("x", rng.uniform(-2, 2, size=(1, 4)))
        b = store.add("b", rng.uniform(-2, 2, size=(3, 1)))

        def loss():
            return ad.total(ad.linear(w, x, b))

        report = gradient_check(loss, store, step=1e-5)
        assert report.max_rel_err <= 1e-6

    @pytest.mark.parametrize("shapes", [((5, 3), (4, 3)), ((1, 7), (6, 7)), ((9, 2), (1, 2))])
    def test_bytes_of_the_transpose_then_matmul_pair(self, shapes):
        """Value and every gradient part are those of ``x @ w.T + b``, the
        product the former transpose and matmul nodes computed."""
        rng = np.random.default_rng(6)
        store = ParameterStore()
        x = store.add("x", rng.standard_normal(shapes[0]))
        w = store.add("w", rng.standard_normal(shapes[1]))
        b = store.add("b", rng.standard_normal(shapes[1][0]))
        g = rng.standard_normal((shapes[0][0], shapes[1][0]))
        with Tape() as tape:
            out = ad.linear(x, w, b)
            loss = ad.total(ad.mul(out, ad.constant(g)))
        grads = tape.backward(loss, params=store)
        xd, wd = x.data, w.data
        assert out.data.tobytes() == (xd @ wd.T + b.data).tobytes()
        assert grads["x"].tobytes() == (g @ wd).tobytes()
        assert grads["w"].tobytes() == (xd.T @ g).T.tobytes()
        assert grads["b"].tobytes() == g.sum(0).tobytes()


class TestNonlinearities:
    def test_analytic_points(self):
        assert ad.softplus(ad.constant(0.0)).item() == pytest.approx(math.log(2), abs=1e-12)
        assert ad.tanh(ad.constant(0.0)).item() == 0.0
        assert ad.sigmoid(ad.constant(0.0)).item() == 0.5

    def test_sigmoid_one_divide_is_the_two_branch_form(self):
        # where(x >= 0, 1, t) / (1 + t) does per element what the two branches did
        special = np.array([0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300])
        rng = np.random.default_rng(5)
        for x in (special, rng.standard_normal((100, 384)), 40.0 * rng.standard_normal((100, 384))):
            t = np.exp(-np.abs(x))
            two_branch = np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))
            assert ad._sigmoid_values(x).tobytes() == two_branch.tobytes()

    def test_softplus_no_overflow(self):
        # ln(1 + e^1000) = 1000 + ln(1 + e^-1000), which is 1000.0 at double precision
        assert ad.softplus(ad.constant(1000.0)).item() == 1000.0
        assert ad.softplus(ad.constant(31.0)).item() == 31.0

    # across the cutoff at +-30, and so far below it that the sigmoid is
    # subnormal (-740) or underflows to 0 (-745.5, -1000)
    SOFTPLUS_INPUTS = np.array([-1000.0, -745.5, -740.0, -40.0, -30.5, -30.0, -29.5, -1.0, 0.0,
                                1.0, 29.5, 30.0, 30.5, 40.0, 1000.0])

    def test_softplus_gradient_is_the_sigmoid_of_its_input(self):
        store = ParameterStore()
        x = store.add("x", self.SOFTPLUS_INPUTS)
        g = np.linspace(-2.0, 2.0, x.data.size)  # the upstream gradient softplus receives
        with Tape() as tape:
            root = ad.total(ad.mul(ad.softplus(x), ad.constant(g)))
        (node,) = [node for node in tape.nodes if node.kind == "softplus"]
        # its backward holds the input, not an array the forward computed for it
        assert [c.cell_contents for c in node.bwd.__closure__] == [x]
        grad = tape.backward(root, store)["x"]
        assert grad.tobytes() == (g * ad._sigmoid_values(self.SOFTPLUS_INPUTS)).tobytes()

    def test_softplus_off_the_tape_computes_no_sigmoid(self, monkeypatch):
        def refuse(x):
            raise AssertionError("sigmoid computed with no tape")

        monkeypatch.setattr(ad, "_sigmoid_values", refuse)
        out = ad.softplus(self.SOFTPLUS_INPUTS)
        assert out.data.tobytes() == ad._softplus_values(self.SOFTPLUS_INPUTS).tobytes()

    @pytest.mark.parametrize("kind", ["tanh", "sigmoid", "softplus"])
    def test_gradients(self, kind):
        rng = np.random.default_rng(3)
        store = ParameterStore()
        p = store.add("x", rng.uniform(-2, 2, size=7))

        def loss():
            return ad.total(getattr(ad, kind)(p))

        assert gradient_check(loss, store).max_rel_err <= 1e-6


def kl_args(prior_per_row, m=3, k=4):
    """u, s [m, k] and mu, sigma [m, k] if ``prior_per_row``, else [k]."""
    rng = np.random.default_rng(21)
    prior = (m, k) if prior_per_row else (k,)
    return (rng.standard_normal((m, k)), rng.uniform(0.2, 3.0, (m, k)),
            rng.standard_normal(prior), rng.uniform(0.2, 3.0, prior))


class TestGaussianKL:
    @pytest.mark.parametrize("prior_per_row", [False, True])
    def test_bytes_of_the_generic_op_chain(self, prior_per_row):
        """The values of the 13-node chain of generic ops it replaced:
        log, sub, mul, add, div and sum_rows, in that chain's order."""
        u, s, mu, sigma = kl_args(prior_per_row, m=5, k=7)
        t1 = np.log(sigma) - np.log(s)
        diff = u - mu
        quad = (s * s + diff * diff) / (np.float64(2.0) * (sigma * sigma))
        chain = (t1 + (quad - np.float64(0.5))).sum(axis=1)
        assert ad.gaussian_kl(u, s, mu, sigma).data.tobytes() == chain.tobytes()

    def test_standard_normal_closed_form(self):
        got = ad.gaussian_kl([[0.0], [1.0], [0.0]], [[1.0], [1.0], [2.0]], [0.0], [1.0]).data
        np.testing.assert_allclose(got, [0.0, 0.5, 1.5 - math.log(2.0)], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("prior_per_row", [False, True])
    def test_gradients_of_all_four_inputs(self, prior_per_row):
        store = ParameterStore()
        u, s, mu, sigma = (store.add(name, value) for name, value
                           in zip(("u", "s", "mu", "sigma"), kl_args(prior_per_row)))
        row_weights = ad.constant([0.5, -1.5, 2.0])  # a distinct gradient per row

        def loss():
            return ad.total(ad.mul(ad.gaussian_kl(u, s, mu, sigma), row_weights))

        report = gradient_check(loss, store)
        assert set(report.per_param) == {"u", "s", "mu", "sigma"}
        assert report.max_rel_err <= 1e-6

    @pytest.mark.parametrize("name", ["s", "sigma"])
    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_scale(self, name, bad):
        args = dict(zip(("u", "s", "mu", "sigma"), kl_args(False)))
        args[name][-1] = bad
        with pytest.raises(DomainError, match="scales must be positive"):
            ad.gaussian_kl(**args)

    @pytest.mark.parametrize("shapes", [
        ((4,), (4,), (4,), (4,)),  # u must be a matrix
        ((3, 4), (4,), (4,), (4,)),  # s must have u's shape
        ((3, 4), (3, 4), (2, 4), (4,)),  # mu does not broadcast
        ((3, 4), (3, 4), (4,), (2, 3, 4)),  # sigma would grow the result
    ])
    def test_shapes_that_do_not_fit(self, shapes):
        with pytest.raises(ShapeError, match="do not broadcast to one"):
            ad.gaussian_kl(*(np.ones(shape) for shape in shapes))


def _logsumexp(v):
    """``logsumexp_rows`` of one row, as a float."""
    return ad.logsumexp_rows(ad.constant(np.reshape(v, (1, -1)))).data[0]


class TestLogsumexpRow:
    def test_single_element_exact(self):
        assert _logsumexp([-7.25]) == -7.25

    def test_two_zeros(self):
        assert _logsumexp([0.0, 0.0]) == pytest.approx(math.log(2), abs=1e-15)

    def test_no_overflow(self):
        out = _logsumexp([1000.0, 1000.0])
        assert out == pytest.approx(1000.0 + math.log(2), abs=1e-12)

    def test_empty(self):
        with pytest.raises(ShapeError):
            ad.logsumexp_rows(ad.constant(np.zeros((1, 0))))

    def test_bounds_property(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            v = rng.uniform(-2, 2, size=rng.integers(1, 12))
            out = _logsumexp(v)
            assert out >= v.max() - 1e-12
            assert out <= v.max() + math.log(len(v)) + 1e-12


class TestBackward:
    def test_square(self):
        store = ParameterStore()
        x = store.add("x", 3.0)
        with Tape() as tape:
            y = ad.mul(x, x)
        grads = tape.backward(y, params=store)
        assert grads["x"] == pytest.approx(6.0, abs=1e-12)

    def test_nested_tape_records_on_the_innermost_only(self):
        # the product made under the inner tape reaches the outer sum as a constant
        store = ParameterStore()
        p = store.add("p", 1.5)
        with Tape() as outer:
            a = ad.mul(p, 2.0)
            with Tape() as inner:
                b = ad.mul(p, 3.0)
            loss = ad.total(ad.add(a, b))
        assert [node.kind for node in outer.nodes] == ["mul", "add", "total"]
        assert [node.kind for node in inner.nodes] == ["mul"]
        assert outer.backward(loss, params=store)["p"] == 2.0
        assert inner.backward(b, params=store)["p"] == 3.0

    def test_cross_entropy_identity(self):
        # loss = logsumexp(v) - v[j] has gradient softmax(v) - onehot(j)
        rng = np.random.default_rng(6)
        v = rng.uniform(-2, 2, size=5)
        j = 2
        store = ParameterStore()
        vt = store.add("v", v)
        with Tape() as tape:
            vrow = ad.reshape(vt, (1, v.size))
            picked = ad.rows(ad.reshape(vrow, (-1,)), [j])
            loss = ad.sub(ad.total(ad.logsumexp_rows(vrow)), ad.total(picked))
        grads = tape.backward(loss, params=store)
        expected = np.exp(v - v.max())
        expected /= expected.sum()
        expected[j] -= 1.0
        np.testing.assert_allclose(grads["v"], expected, atol=1e-12)

    def test_two_layer_network_vs_central_differences(self):
        rng = np.random.default_rng(7)
        store = ParameterStore()
        w1 = store.add("w1", rng.uniform(-2, 2, size=(5, 4)))
        b1 = store.add("b1", rng.uniform(-2, 2, size=5))
        w2 = store.add("w2", rng.uniform(-2, 2, size=(3, 5)))
        b2 = store.add("b2", rng.uniform(-2, 2, size=3))
        x = rng.uniform(-2, 2, size=(1, 4))

        def loss():
            hidden = ad.tanh(ad.linear(ad.constant(x), w1, b1))
            out = ad.sigmoid(ad.linear(hidden, w2, b2))
            return ad.total(ad.mul(out, out))

        assert gradient_check(loss, store).max_rel_err <= 1e-4

    def test_non_scalar_root_rejected(self):
        store = ParameterStore()
        x = store.add("x", np.ones(3))
        with Tape() as tape:
            y = ad.mul(x, x)
        with pytest.raises(ContractError):
            tape.backward(y, params=store)

    def test_root_from_other_tape_rejected(self):
        with Tape():
            y = ad.total(ad.constant(np.ones(2)))
        with Tape() as other:
            with pytest.raises(ContractError):
                other.backward(y, params=ParameterStore())

    def test_parameter_root_rejected(self):
        store = ParameterStore()
        x = store.add("x", 2.0)
        with Tape() as tape:
            ad.mul(x, x)
        with pytest.raises(ContractError, match="backward root was not computed on this tape"):
            tape.backward(x, params=store)

    def test_one_node_per_op(self):
        store = ParameterStore()
        w = store.add("w", np.array([1.0, 2.0]))
        c = ad.constant(np.array([3.0, 4.0]))
        with Tape() as tape:
            a = ad.mul(w, c)
            y = ad.total(ad.mul(ad.add(a, w), 2.0))
        assert [node.kind for node in tape.nodes] == ["mul", "add", "mul", "total"]
        assert tape.nodes[0].tensor is a
        assert tape.nodes[0].parents[0] is w and tape.nodes[0].parents[1] is c
        assert tape.nodes[-1].tensor is y
        np.testing.assert_array_equal(tape.backward(y, params=store)["w"], [8.0, 10.0])

    def test_outer_tape_tensor_is_a_constant_inside(self):
        store = ParameterStore()
        x = store.add("x", 3.0)
        with Tape() as outer:
            h = ad.mul(x, x)
            with Tape() as inner:
                y = ad.mul(h, x)
            z = ad.add(h, y)
        assert len(inner.nodes) == 1 and len(outer.nodes) == 2
        assert inner.backward(y, params=store)["x"] == 9.0  # d(h*x)/dx with h fixed
        assert outer.backward(z, params=store)["x"] == 6.0  # d(x*x)/dx with y fixed

    def test_unreachable_parameters_get_zeros(self):
        store = ParameterStore()
        used = store.add("used", 2.0)
        unused = store.add("unused", np.ones((2, 2)))
        with Tape() as tape:
            y = ad.mul(used, used)
        grads = tape.backward(y, params=store)
        np.testing.assert_array_equal(grads["unused"], np.zeros((2, 2)))
        assert grads["used"] == pytest.approx(4.0)

    def test_returns_store_names_in_store_order(self):
        store = ParameterStore()
        b = store.add("b", np.array([1.0, 2.0]))
        store.add("unused", np.ones(3))
        a = store.add("a", 3.0)
        late = store.add("late", 5.0)
        elsewhere = ParameterStore().add("other", 4.0)  # on the tape, not in the store
        with Tape() as tape:
            y = ad.add(ad.mul(ad.total(b), a), ad.mul(elsewhere, a))
        with Tape():
            ad.mul(late, late)
        grads = tape.backward(y, params=store)
        assert list(grads) == store.names() == ["b", "unused", "a", "late"]
        np.testing.assert_array_equal(grads["b"], [3.0, 3.0])
        assert grads["a"] == pytest.approx(7.0)
        np.testing.assert_array_equal(grads["unused"], np.zeros(3))
        assert grads["late"].shape == () and grads["late"] == 0.0

    def test_reuse_accumulates_by_summation(self):
        store = ParameterStore()
        x = store.add("x", np.array([1.5, -0.5]))
        with Tape() as tape:
            # x used three times: total(x*x) + total(x)
            y = ad.add(ad.total(ad.mul(x, x)), ad.total(x))
        grads = tape.backward(y, params=store)
        np.testing.assert_allclose(grads["x"], 2 * x.data + 1.0, atol=1e-12)

    def test_consumed_gradients_are_released(self):
        # a chain of 30 elementwise ops: holding every node's gradient to the
        # end of the pass would need 30 arrays at once, releasing each once
        # its own backward has run needs a few
        import tracemalloc

        store = ParameterStore()
        x = store.add("x", np.random.default_rng(0).uniform(-1, 1, size=(200, 250)))
        with Tape() as tape:
            h = x
            for _ in range(30):
                h = ad.tanh(h)
            y = ad.total(h)
        one = x.data.nbytes
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            grads = tape.backward(y, params=store)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert grads["x"].shape == x.data.shape
        assert peak <= 6 * one, f"backward peak {peak / one:.1f} arrays"


class TestGradientCheck:
    def test_linear_regression_tight(self):
        rng = np.random.default_rng(8)
        features = rng.uniform(-1, 1, size=(12, 3))
        targets = rng.uniform(-1, 1, size=(12, 1))
        store = ParameterStore()
        w = store.add("w", rng.uniform(-1, 1, size=(1, 3)))
        b = store.add("b", 0.0)

        def loss():
            pred = ad.add(ad.linear(ad.constant(features), w), b)
            err = ad.sub(pred, ad.constant(targets))
            return ad.total(ad.mul(err, err))

        report = gradient_check(loss, store, step=1e-5)
        assert report.max_rel_err <= 1e-8

    def test_zero_parameter_loss_empty_report(self):
        store = ParameterStore()
        report = gradient_check(lambda: ad.total(ad.constant([1.0, 2.0])), store)
        assert report == GradCheckReport(0.0, None, {})

    def test_nondeterministic_loss_rejected(self):
        store = ParameterStore()
        store.add("w", 1.0)
        state = {"calls": 0}

        def loss():
            state["calls"] += 1
            return ad.constant(float(state["calls"]))

        with pytest.raises(DeterminismError):
            gradient_check(loss, store)


class TestStructuralOps:
    def test_rows_gather_and_scatter(self):
        store = ParameterStore()
        table = store.add("table", np.arange(12.0).reshape(4, 3))
        idx = np.array([1, 1, 3])
        with Tape() as tape:
            out = ad.total(ad.rows(table, idx))
        grads = tape.backward(out, params=store)
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        expected[3] = 1.0
        np.testing.assert_array_equal(grads["table"], expected)

    def test_rows_out_of_range(self):
        with pytest.raises(ShapeError):
            ad.rows(ad.constant(np.ones((2, 2))), [2])

    @pytest.mark.parametrize(
        "builder",
        [
            lambda p: ad.total(ad.mul(p, p)),
            lambda p: ad.total(ad.logsumexp_rows(p)),
            lambda p: ad.total(ad.rows(ad.reshape(p, (-1,)), np.array([0 * 3 + 1, 3 * 3 + 2]))),
            lambda p: ad.total(ad.reshape(ad.mul(p, p), (3, 4))),
            lambda p: ad.total(ad.stack([ad.rows(p, [0]), ad.rows(p, [2])])),
            lambda p: ad.total(ad.neg(ad.sub(p, ad.constant(0.5)))),
            lambda p: ad.total(ad.mul(ad.rows(p, np.array([2, 0, 2, 2])),
                                      ad.tanh(ad.rows(p, np.array([1, 2, 3, 2]))))),
        ],
    )
    def test_structural_gradients(self, builder):
        rng = np.random.default_rng(9)
        store = ParameterStore()
        p = store.add("p", rng.uniform(-2, 2, size=(4, 3)))
        assert gradient_check(lambda: builder(p), store).max_rel_err <= 1e-4

    def test_linear_shape_errors(self):
        with pytest.raises(ShapeError):
            ad.linear(ad.constant(np.ones((2, 3))), ad.constant(np.ones((3, 2))))

    @pytest.mark.parametrize(
        "a_shape, b_shape",
        [((3,), (4, 3)), ((5, 3), (3,)), ((3,), (3,)), ((), (2, 1)), ((2, 1), ()),
         ((2, 2, 3), (4, 3))],
    )
    def test_linear_takes_matrices_only(self, a_shape, b_shape):
        with pytest.raises(ShapeError, match="must be 2-d"):
            ad.linear(ad.constant(np.ones(a_shape)), ad.constant(np.ones(b_shape)))


def _add_use_grad(ref, use, table_shape):
    """``ref`` (None before the first use) plus the gradient one use hands
    the table, as the reference backward adds it: a gather by ``np.add.at``
    of its rows into a copy of the running sum, another use densely."""
    kind, arg, coef = use
    if kind == "rows":
        out = np.zeros(table_shape) if ref is None else ref.copy()
        np.add.at(out, arg, coef)
        return out
    dense = (arg.T @ coef).T if kind == "linear" else coef  # else elementwise
    return dense if ref is None else ref + dense


def _sparse_case(table_shape, uses, via_nonleaf, seed):
    """Backward of sum_k total(use_k(base) * coef_k) for one table, and the
    reference: each use's gradient added into the running sum in the order
    backward visits them (last use first). The ``row_grads`` backward must
    give the same bytes, as one ``RowGrad`` if only gathers used the table
    and they read at most half its rows, repeats counted."""
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    table = store.add("T", rng.standard_normal(table_shape))
    scale = rng.standard_normal(table_shape)
    filled = []
    for kind, arg in uses:
        if kind == "rows":
            shape = (len(arg),) + table_shape[1:]
        elif kind == "linear":
            arg = rng.standard_normal((3,) + table_shape[1:])
            shape = (3, table_shape[0])
        else:
            shape = table_shape
        coef = rng.standard_normal(shape)
        coef[rng.random(shape) < 0.2] = -0.0  # signed zeros must sum as in dense
        filled.append((kind, arg, coef))
    with Tape() as tape:
        base = ad.mul(table, ad.constant(scale)) if via_nonleaf else table
        loss = None
        for kind, arg, coef in filled:
            if kind == "rows":
                out = ad.rows(base, arg)
            elif kind == "linear":
                out = ad.linear(ad.constant(arg), base)
            else:
                out = base
            term = ad.total(ad.mul(out, ad.constant(coef)))
            loss = term if loss is None else ad.add(loss, term)
    got = tape.backward(loss, params=store)["T"]
    # the optimizer's form: compact rows if only gathers reached the table,
    # reading at most half its rows
    rowwise = tape.backward(loss, params=store, row_grads=True)["T"]
    gathered = sum(len(arg) for kind, arg in uses if kind == "rows")
    only_rows = (not via_nonleaf and all(kind == "rows" for kind, _ in uses)
                 and 2 * gathered <= table_shape[0])
    assert (type(rowwise) is ad.RowGrad) == only_rows
    assert dense_of(rowwise, table_shape).tobytes() == got.tobytes()
    ref = None
    for use in reversed(filled):
        ref = _add_use_grad(ref, use, table_shape)
    if via_nonleaf:
        ref = ref * scale
    return got, ref


class TestRowSparseGradients:
    @pytest.mark.parametrize("table_shape,uses", [
        ((5, 3), [("rows", [3, 1, 3, 3, 0])]),  # repeated ids in one op
        ((5,), [("rows", [3, 1, 3, 3, 0])]),
        ((5, 8), [("rows", [2, 4]), ("rows", [2, 0, 2]), ("rows", [1, 2])]),  # several gathers
        ((5, 3), [("linear", None), ("rows", [1, 1, 4])]),  # gather visited before the linear
        ((5, 3), [("rows", [1, 1, 4]), ("dense", None)]),  # dense gradient visited first
        ((5, 8), [("dense", None), ("rows", [2, 4, 2]), ("rows", [4, 2])]),
        ((5, 3), [("rows", [0, 4, 0]), ("dense", None), ("rows", [2, 4])]),
        # gathers of one id set, first to arrive, after another set, after a dense use
        ((5, 8), [("rows", [2]), ("rows", [4, 1]), ("rows", [1, 4, 4]), ("rows", [4, 1])]),
        ((5, 8), [("rows", [1, 4]), ("rows", [4, 1]), ("rows", [1, 2])]),
        ((5, 8), [("rows", [1, 4]), ("rows", [4, 1]), ("dense", None)]),
        # a gather after two dense uses, whose sum holds -0.0 where both do
        ((5, 8), [("rows", [1, 4]), ("dense", None), ("dense", None)]),
        # linear's F-ordered weight gradient arrives first: the gather must scatter
        # into a C-order copy, whose flat view writes through
        ((4, 5), [("rows", [3, 0, 3]), ("linear", None)]),
        # the compact form: gathers of at most half the rows, repeats counted
        ((16, 8), [("rows", [2, 4]), ("rows", [2, 0, 2]), ("rows", [1, 2])]),
        ((10,), [("rows", [3, 1, 3, 3, 0])]),  # exactly half the rows
        ((8, 3), [("rows", [5, 1]), ("rows", [6, 1])]),
        ((8, 3), [("rows", [5, 1]), ("rows", [6, 1, 2])]),  # one id more: dense
        # repeats count: five ids of two rows over eight rows come back dense
        ((8, 3), [("rows", [5, 1, 5]), ("rows", [1, 5])]),
    ])
    @pytest.mark.parametrize("via_nonleaf", [False, True])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bit_identical_to_dense_reference(self, table_shape, uses, via_nonleaf, seed):
        uses = [(k, np.array(a) if a is not None else None) for k, a in uses]
        got, ref = _sparse_case(table_shape, uses, via_nonleaf, seed)
        assert got.shape == table_shape
        assert got.tobytes() == ref.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        uses=st.lists(
            st.one_of(
                st.tuples(st.just("rows"), st.lists(st.integers(0, 6), min_size=1, max_size=9)),
                st.tuples(st.sampled_from(["dense", "linear"]), st.none()),
            ),
            min_size=1, max_size=5,
        ),
        via_nonleaf=st.booleans(),
        seed=st.integers(0, 2**16),
        rows=st.sampled_from([7, 24]),  # 24: few enough gathers stay compact
    )
    def test_random_uses_match_dense_reference(self, uses, via_nonleaf, seed, rows):
        uses = [(k, np.array(a) if a is not None else None) for k, a in uses]
        got, ref = _sparse_case((rows, 2), uses, via_nonleaf, seed)
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("gather_first", [True, False])
    def test_shared_part_is_not_written_by_a_later_gather(self, gather_first):
        # add(T, C) hands one array to both T and C; a gather of T that
        # backward visits after it must not scatter into that array
        rng = np.random.default_rng(11)
        store = ParameterStore()
        t = store.add("T", rng.standard_normal((5, 3)))
        c = store.add("C", rng.standard_normal((5, 3)))
        ids = np.array([4, 1, 4])
        k_add, k_rows = rng.standard_normal((5, 3)), rng.standard_normal((3, 3))
        k_add[rng.random((5, 3)) < 0.3] = -0.0
        k_rows[rng.random((3, 3)) < 0.3] = -0.0
        builds = [lambda: ad.total(ad.mul(ad.rows(t, ids), ad.constant(k_rows))),
                  lambda: ad.total(ad.mul(ad.add(t, c), ad.constant(k_add)))]
        if not gather_first:
            builds.reverse()
        with Tape() as tape:
            first = builds[0]()  # recorded first, so visited last
            loss = ad.add(first, builds[1]())
        grads = tape.backward(loss, params=store)
        if gather_first:  # in the order backward visits: the gather's rows go last
            ref_t = k_add.copy()
            np.add.at(ref_t, ids, k_rows)
        else:
            ref_t = np.zeros((5, 3))
            np.add.at(ref_t, ids, k_rows)
            ref_t = ref_t + k_add
        assert grads["C"].tobytes() == k_add.tobytes()
        assert grads["T"].tobytes() == ref_t.tobytes()

    @pytest.mark.parametrize("shape", [(4, 3), (4,)])
    def test_empty_gather_has_zero_gradient(self, shape):
        store = ParameterStore()
        table = store.add("T", np.ones(shape))
        with Tape() as tape:
            out = ad.rows(table, [])
            loss = ad.total(out)
        assert out.shape == (0, *shape[1:])
        grad = tape.backward(loss, params=store)["T"]
        assert grad.shape == shape and not np.any(grad)
        rowwise = tape.backward(loss, params=store, row_grads=True)["T"]
        assert rowwise.ids.size == 0 and rowwise.values.shape == (0, *shape[1:])

    def test_unused_parameter_gets_dense_zeros_with_row_grads(self):
        store = ParameterStore()
        used = store.add("T", np.ones((6, 3)))  # three gathered ids: compact
        store.add("U", np.ones((4, 3)))
        with Tape() as tape:
            loss = ad.total(ad.rows(used, [2, 0, 2]))
        grads = tape.backward(loss, params=store, row_grads=True)
        assert type(grads["T"]) is ad.RowGrad
        np.testing.assert_array_equal(grads["T"].ids, [0, 2])
        np.testing.assert_array_equal(grads["T"].values, [[1.0] * 3, [2.0] * 3])
        assert grads["U"].tobytes() == np.zeros((4, 3)).tobytes()

    def test_rows_backward_is_row_sparse(self):
        table = ad.constant(np.zeros((1000, 4)))
        with Tape() as tape:
            out = ad.rows(table, np.array([7, 3, 7]))
        parts = tape.nodes[-1].bwd(np.arange(12.0).reshape(3, 4))
        (part,) = parts
        assert isinstance(part, ad.RowGrad)
        np.testing.assert_array_equal(part.ids, [7, 3, 7])
        np.testing.assert_array_equal(part.values, np.arange(12.0).reshape(3, 4))
        assert part.nbytes == part.ids.nbytes + part.values.nbytes
        assert out.data.shape == (3, 4)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=30), st.integers(0, 2**32))
    def test_repeated_gather_matches_dense_add_at(self, ids, seed):
        # a [V, d] and a [V] table; upstream gradients include -0.0
        rng = np.random.default_rng(seed)
        ids = np.array(ids)
        for shape in ((6, 7), (6,)):
            store = ParameterStore()
            table = store.add("T", rng.standard_normal(shape))
            k = rng.standard_normal((ids.size,) + shape[1:])
            k[rng.random(k.shape) < 0.3] = -0.0
            with Tape() as tape:
                loss = ad.total(ad.mul(ad.rows(table, ids), ad.constant(k)))
            grad = tape.backward(loss, params=store)["T"]
            ref = np.zeros(shape)
            np.add.at(ref, ids, k)
            assert grad.tobytes() == ref.tobytes()


def _value_and_grads(build, arrays):
    store = ParameterStore()
    params = [store.add(f"p{k}", a) for k, a in enumerate(arrays)]
    with Tape() as tape:
        out = build(*params)
    return out.data, tape.backward(out, params=store)


class TestFusedForms:
    """``linear(x, w, bias)`` and ``logsumexp_rows(a, shift)`` equal the
    unfused graphs bit for bit, values and gradients."""

    @pytest.mark.parametrize(
        "shapes",
        [((5, 3), (4, 3), (4,)), ((5, 3), (4, 3), (5, 4)), ((1, 3), (4, 3), (4,)),
         ((5, 3), (1, 3), (5, 1)), ((1, 3), (1, 3), ())],
    )
    def test_linear_bias_equals_add(self, shapes):
        rng = np.random.default_rng(3)
        arrays = [rng.standard_normal(s) for s in shapes]
        weight = rng.standard_normal((arrays[0] @ arrays[1].T).shape)

        def fused(a, b, c):
            return ad.total(ad.mul(ad.linear(a, b, c), ad.constant(weight)))

        def unfused(a, b, c):
            return ad.total(ad.mul(ad.add(ad.linear(a, b), c), ad.constant(weight)))

        got, got_grads = _value_and_grads(fused, arrays)
        want, want_grads = _value_and_grads(unfused, arrays)
        assert got.tobytes() == want.tobytes()
        for name in want_grads:
            assert got_grads[name].tobytes() == want_grads[name].tobytes(), name

    def test_linear_bias_gradients(self):
        rng = np.random.default_rng(4)
        store = ParameterStore()
        a = store.add("a", rng.standard_normal((4, 3)))
        w = store.add("w", rng.standard_normal((5, 3)))
        b = store.add("b", rng.standard_normal(5))
        report = gradient_check(
            lambda: ad.total(ad.tanh(ad.linear(a, w, b))), store
        )
        assert report.max_rel_err <= 1e-6

    def test_linear_bias_shape_error(self):
        with pytest.raises(ShapeError, match="bias"):
            ad.linear(ad.constant(np.ones((2, 3))), ad.constant(np.ones((4, 3))),
                      ad.constant(np.ones(3)))

    @pytest.mark.parametrize("shift_shape", [(6,), (4, 6), (1, 6)])
    def test_logsumexp_shift_equals_add(self, shift_shape):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 6)) * 20
        shift = rng.standard_normal(shift_shape)
        if len(shift_shape) == 2 and shift_shape[0] == 4:
            shift[rng.random(shift_shape) < 0.3] = -np.inf  # masked cells
            shift[:, 0] = 0.0
        weight = rng.standard_normal(4)

        def fused(p):
            return ad.total(ad.mul(ad.logsumexp_rows(p, shift=shift), ad.constant(weight)))

        def unfused(p):
            masked = ad.add(p, ad.constant(shift))
            return ad.total(ad.mul(ad.logsumexp_rows(masked), ad.constant(weight)))

        got, got_grads = _value_and_grads(fused, [a])
        want, want_grads = _value_and_grads(unfused, [a])
        assert got.tobytes() == want.tobytes()
        assert got_grads["p0"].tobytes() == want_grads["p0"].tobytes()

    def test_logsumexp_shift_shape_error(self):
        with pytest.raises(ShapeError, match="shift"):
            ad.logsumexp_rows(ad.constant(np.ones((2, 3))), shift=np.ones((4, 3)))


class TestDeterminism:
    def test_forward_is_bit_identical(self, toy_setup):
        from alignvae.model import elbo

        cfg, params, pairs, noise = toy_setup
        a = elbo(pairs[0], params, cfg, 0.5, noise[0]).item()
        b = elbo(pairs[0], params, cfg, 0.5, noise[0]).item()
        assert a == b

    def test_backward_is_bit_identical(self, toy_setup):
        from alignvae.model import elbo

        cfg, params, pairs, noise = toy_setup
        results = []
        for _ in range(2):
            with Tape() as tape:
                loss = ad.neg(elbo(pairs[0], params, cfg, 0.5, noise[0]))
            results.append(tape.backward(loss, params=params))
        for name in results[0]:
            np.testing.assert_array_equal(results[0][name], results[1][name])
