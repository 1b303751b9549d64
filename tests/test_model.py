import ast
import copy
import dataclasses
import math
import pickle
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cclearn import model
from cclearn.centroids import row_norms
from cclearn.errors import DegenerateVectorError, StateError
from cclearn.losses import combined_loss_and_grads
from cclearn.model import (
    Gradients,
    ModelParams,
    backward,
    forward,
    init_params,
    load_model,
    lr_at,
    save_model,
    sgd_step,
)
from reference import (
    backward_from_pre_activations,
    backward_through_the_jacobian,
    forward_keeping_pre_activations,
    seen_bank,
    unit_rows,
)


def identity_net(dim=2, classes=2):
    return ModelParams([np.eye(dim)], [np.zeros(dim)], np.eye(dim)[:, :classes].copy(),
                       np.zeros(classes))


def flatten_grads(g: Gradients) -> np.ndarray:
    parts = [w.ravel() for w in g.weights] + [b.ravel() for b in g.biases]
    parts += [g.head_weight.ravel(), g.head_bias.ravel()]
    return np.concatenate(parts)


def param_tensors(p: ModelParams):
    return p.weights + p.biases + [p.head_weight, p.head_bias]


class TestForward:
    def test_zero_weights_hit_degenerate_path(self):
        params = ModelParams(
            [np.zeros((3, 2))], [np.zeros(2)], np.zeros((2, 2)), np.zeros(2)
        )
        with pytest.raises(DegenerateVectorError):
            forward(params, np.ones((1, 3)))

    def test_overflowing_feature_norm_refused(self):
        # the squares overflow, so the norm is inf and x / norm would be a zero row
        with np.errstate(over="ignore"), pytest.raises(DegenerateVectorError, match="overflows"):
            forward(identity_net(), np.array([[1e200, 1e200]]))

    def test_identity_passthrough_normalizes(self):
        _, normalized, _, _ = forward(identity_net(), np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(normalized, [[0.6, 0.8]], atol=1e-15)

    @settings(max_examples=80, deadline=None)
    @given(
        x=arrays(np.float64, st.tuples(st.integers(1, 6), st.just(3)),
                 elements=st.one_of(st.just(0.0), st.floats(-1e3, 1e3))),
        seed=st.integers(0, 3),
    )
    def test_norms_and_normalized_have_the_bits_of_the_plain_computations(self, x, seed):
        params = init_params(3, (), 4, 2, seed)
        raw = x @ params.weights[0] + params.biases[0]
        try:
            want = raw / row_norms(raw)[:, None]
        except DegenerateVectorError as exc:
            with pytest.raises(DegenerateVectorError) as got:
                forward(params, x)
            assert str(got.value) == str(exc)
            return
        _, normalized, _, cache = forward(params, x)
        assert np.array_equal(cache.norms.view(np.uint64), np.linalg.norm(raw, axis=1).view(np.uint64))
        assert np.array_equal(normalized.view(np.uint64), want.view(np.uint64))

    def test_deterministic_and_pure(self):
        rng = np.random.default_rng(0)
        params = init_params(4, (5,), 3, 2, rng)
        x = np.vstack([rng.standard_normal(4)] * 2)  # two identical rows
        raw1, n1, l1, _ = forward(params, x)
        raw2, n2, l2, _ = forward(params, x)
        np.testing.assert_array_equal(raw1, raw2)
        np.testing.assert_array_equal(l1, l2)
        np.testing.assert_array_equal(raw1[0], raw1[1])
        np.testing.assert_array_equal(l1[0], l1[1])

    def test_unit_norm_rows(self):
        rng = np.random.default_rng(1)
        params = init_params(6, (8, 8), 4, 3, rng)
        _, normalized, _, _ = forward(params, rng.standard_normal((10, 6)))
        np.testing.assert_allclose(np.linalg.norm(normalized, axis=1), 1.0, atol=1e-9)

    def test_shape_and_finiteness_validation(self):
        params = identity_net()
        with pytest.raises(ValueError):
            forward(params, np.ones((2, 3)))
        with pytest.raises(ValueError):
            forward(params, np.array([[1.0, math.nan]]))


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(2)
        params = init_params(3, (4,), 2, 2, rng)
        _, _, _, cache = forward(params, rng.standard_normal((3, 3)))
        grads = backward(params, cache, np.zeros((3, 2)), np.zeros((3, 2)))
        assert np.all(flatten_grads(grads) == 0.0)

    def test_normalization_jacobian_hand_value(self):
        # f=(3,4), upstream g=(1,0) through f/|f|: (g - (fhat.g) fhat)/|f| = (0.128, -0.096)
        params = identity_net()
        _, _, _, cache = forward(params, np.array([[3.0, 4.0]]))
        grads = backward(params, cache, np.array([[1.0, 0.0]]), np.zeros((1, 2)))
        np.testing.assert_allclose(grads.biases[0], [0.128, -0.096], atol=1e-12)

    def test_stale_cache_detected(self):
        rng = np.random.default_rng(3)
        params = init_params(3, (), 2, 2, rng)
        _, _, _, cache = forward(params, rng.standard_normal((2, 3)))
        grads = backward(params, cache, np.zeros((2, 2)), np.zeros((2, 2)))
        sgd_step(params, grads, 0.1)
        with pytest.raises(StateError):
            backward(params, cache, np.zeros((2, 2)), np.zeros((2, 2)))

    def test_full_model_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        h = 1e-5
        trial = 0
        while trial < 100:
            d = int(rng.integers(2, 9))
            f = int(rng.integers(2, 9))
            k = int(rng.integers(2, 9))
            batch = int(rng.integers(1, 5))
            depth = int(rng.integers(0, 3))
            hidden = tuple(int(rng.integers(2, 9)) for _ in range(depth))
            params = init_params(d, hidden, f, k, rng)
            bank = seen_bank(unit_rows(rng, k, f))
            x = rng.standard_normal((batch, d))
            y = rng.integers(0, k, batch)
            alpha = float(rng.uniform(0.2, 2.0))
            tau = float(rng.uniform(0.5, 2.0))

            try:
                _, fhat, logits, cache = forward(params, x)
            except DegenerateVectorError:
                # tiny ReLU nets can zero out a sample; draw another config
                continue
            # the hidden pre-activations, recomputed with forward's own arithmetic
            hidden_z = zip(cache.layer_inputs[:-2], params.weights, params.biases)
            if any(np.abs(a @ w + b).min() < 1e-3 for a, w, b in hidden_z):
                # a pre-activation this close to the ReLU kink breaks the FD oracle
                continue
            if cache.norms.min() < 0.1:
                # near-zero feature norms blow up the normalization curvature,
                # degrading the FD estimate itself
                continue
            trial += 1
            _, d_feat, d_logits = combined_loss_and_grads(fhat, logits, y, bank, alpha, tau)
            analytic = flatten_grads(backward(params, cache, d_feat, d_logits))

            def total():
                _, nf, lg, _ = forward(params, x)
                return combined_loss_and_grads(nf, lg, y, bank, alpha, tau)[0].total

            fd = []
            for tensor in param_tensors(params):
                flat = tensor.reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    up = total()
                    flat[i] = orig - h
                    down = total()
                    flat[i] = orig
                    fd.append((up - down) / (2 * h))
            fd = np.asarray(fd)
            rel = np.linalg.norm(fd - analytic) / max(
                np.linalg.norm(fd), np.linalg.norm(analytic), 1e-12
            )
            assert rel < 1e-5, f"trial {trial}: relative error {rel}"


@st.composite
def forward_cases(draw):
    """(params, x, d_normalized, d_logits) of 0-3 hidden layers; one hidden
    layer may get a bias so negative that all of its pre-activations are <= 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    depth = draw(st.integers(0, 3))
    sizes = [draw(st.integers(1, 8)) for _ in range(depth + 2)]  # D, hidden..., F
    k, batch = draw(st.integers(2, 6)), draw(st.integers(1, 9))
    weights = [rng.standard_normal(shape) for shape in zip(sizes[:-1], sizes[1:])]
    biases = [rng.standard_normal(size) for size in sizes[1:]]
    if depth and draw(st.booleans()):
        biases[draw(st.integers(0, depth - 1))][:] = -1e6
    params = ModelParams(weights, biases, rng.standard_normal((sizes[-1], k)),
                         rng.standard_normal(k))
    x = rng.standard_normal((batch, sizes[0]))
    return params, x, rng.standard_normal((batch, sizes[-1])), rng.standard_normal((batch, k))


@settings(max_examples=300, deadline=None)
@given(case=forward_cases())
def test_forward_and_backward_are_bit_equal_to_the_pre_activation_pass(case):
    params, x, d_normalized, d_logits = case
    x_bytes = x.tobytes()
    try:
        raw, normalized, logits, cache = forward(params, x)
    except DegenerateVectorError:
        with pytest.raises(DegenerateVectorError):
            forward_keeping_pre_activations(params, x)
        return
    assert x.tobytes() == x_bytes  # the caller's rows are never written
    expected_raw, expected_normalized, expected_logits, expected_norms, _, _ = (
        forward_keeping_pre_activations(params, x)
    )
    g = backward(params, cache, d_normalized, d_logits)
    got = [raw, normalized, logits, cache.norms,
           *g.weights, *g.biases, g.head_weight, g.head_bias]
    expected = [expected_raw, expected_normalized, expected_logits, expected_norms,
                *backward_from_pre_activations(params, x, d_normalized, d_logits)]
    assert [(a.shape, a.tobytes()) for a in got] == [(e.shape, e.tobytes()) for e in expected]


@settings(max_examples=300, deadline=None)
@given(case=forward_cases())
def test_views_at_odd_offsets_are_bit_equal_to_fresh_copies(case):
    """BLAS reads and writes the tensors as views into ``flat``, most of which
    start at an odd float offset, i.e. not on a 16-byte boundary."""
    params, x, d_normalized, d_logits = case
    start = params.flat.ctypes.data
    assume(any((t.ctypes.data - start) // 8 % 2 for t in param_tensors(params)))
    copies = SimpleNamespace(
        weights=[w.copy() for w in params.weights], biases=[b.copy() for b in params.biases],
        head_weight=params.head_weight.copy(), head_bias=params.head_bias.copy(),
    )
    try:
        raw, normalized, logits, cache = forward(params, x)
    except DegenerateVectorError:
        with pytest.raises(DegenerateVectorError):
            forward_keeping_pre_activations(copies, x)
        return
    g = backward(params, cache, d_normalized, d_logits)
    got = [raw, normalized, logits, *g.weights, *g.biases, g.head_weight, g.head_bias]
    expected = [*forward_keeping_pre_activations(copies, x)[:3],
                *backward_from_pre_activations(copies, x, d_normalized, d_logits)]
    assert [(a.shape, a.tobytes()) for a in got] == [(e.shape, e.tobytes()) for e in expected]


@settings(max_examples=200, deadline=None)
@given(case=forward_cases())
def test_out_is_written_over_and_returned_with_the_bits_of_a_new_gradients(case):
    params, x, d_normalized, d_logits = case
    try:
        _, _, _, cache = forward(params, x)
    except DegenerateVectorError:
        return
    out = Gradients.zeros(params.shapes)
    out.flat[:] = np.nan  # every entry must be written
    views = param_tensors(out)
    assert backward(params, cache, d_normalized, d_logits, out=out) is out
    fresh = backward(params, cache, d_normalized, d_logits)
    assert fresh is not out and out.flat.tobytes() == fresh.flat.tobytes()
    assert all(a is b for a, b in zip(param_tensors(out), views))  # the same views, written in place


@pytest.mark.parametrize("shapes", [
    [(3, 4), (4, 2), (2, 3)],  # the head matches; a backbone layer is wider
    [(3, 5), (5, 2), (2, 2)],  # the head has fewer classes
    [(3, 5), (2, 3)],  # a layer fewer
])
def test_out_of_other_shapes_is_refused_and_left_unwritten(shapes):
    params = init_params(3, (5,), 2, 3, 7)
    _, _, _, cache = forward(params, np.random.default_rng(7).standard_normal((4, 3)))
    out = Gradients.zeros(shapes)
    out.flat[:] = np.arange(out.flat.size)
    before = out.flat.tobytes()
    with pytest.raises(ValueError, match="gradient layers"):
        backward(params, cache, np.ones((4, 2)), np.ones((4, 3)), out=out)
    assert out.flat.tobytes() == before


@settings(max_examples=200, deadline=None)
@given(case=forward_cases())
def test_a_d_normalized_of_positive_zeros_skips_the_jacobian_with_its_bits(case):
    """The Jacobian's term is +0.0 in every entry for such an input, and the
    skip must not compute it: a cache of NaN normalized features, which the
    Jacobian reads, gives the same bits."""
    params, x, _, d_logits = case
    try:
        _, _, _, cache = forward(params, x)
    except DegenerateVectorError:
        return
    zeros = np.zeros_like(cache.normalized)
    expected = backward_through_the_jacobian(params, cache, zeros, d_logits).flat.tobytes()
    assert backward(params, cache, zeros, d_logits).flat.tobytes() == expected
    unread = dataclasses.replace(cache, normalized=np.full_like(cache.normalized, np.nan))
    assert backward(params, unread, zeros, d_logits).flat.tobytes() == expected


@pytest.mark.parametrize("d_normalized, d_logits, match", [
    ((4, 3), (4, 3), "d_normalized shape"),
    ((3, 2), (4, 3), "d_normalized shape"),
    ((4, 2), (4, 2), "d_logits shape"),
    ((4, 2), (5, 3), "d_logits shape"),
])
def test_branch_gradients_of_other_shapes_are_refused(d_normalized, d_logits, match):
    params = init_params(3, (5,), 2, 3, 7)
    _, _, _, cache = forward(params, np.random.default_rng(7).standard_normal((4, 3)))
    with pytest.raises(ValueError, match=match):
        backward(params, cache, np.ones(d_normalized), np.ones(d_logits))


class SumsFromTheFirstProduct(np.ndarray):
    """An operand whose matrix products are summed from the first product on,
    so that a sum of -0.0 products stays -0.0. OpenBLAS zeroes the output of
    a product before it sums into it, and numpy's ``add.reduce`` starts from
    +0.0, so neither ever returns -0.0 there, and the sign of a zero in the
    gradient at the raw features never reaches a parameter gradient. A BLAS
    without that zeroing would show it, and the skip must give the same bits
    then too."""

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        inputs = [np.asarray(v) for v in inputs]
        if ufunc is not np.matmul or method != "__call__":
            return getattr(ufunc, method)(*inputs, out=out, **kwargs)
        a, m = inputs
        product = a[:, :1] * m[:1]
        for k in range(1, m.shape[0]):
            product = product + a[:, k:k + 1] * m[k:k + 1]
        if out is None:
            return product
        out[0][...] = product
        return out[0]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_signed_zeros_at_the_raw_features_keep_the_full_jacobians_bits(sign):
    """The head's product and the first layer's weight gradient, the two
    products around the gradient at the raw features, are summed from their
    first product. A batch of one-hot-saturated softmax rows gives a d_logits
    of +0.0, and a head weight row of negative entries then makes the head's
    term -0.0 at feature 0 down the whole batch. For a d_normalized of +0.0
    entries the Jacobian's term is +0.0, and the skip must turn each of them
    into +0.0 too. For one of -0.0 entries the term at feature 0, positive in
    every row beside a negative feature, is -0.0, and keeps them -0.0: such an
    input takes the full path."""
    params = ModelParams([np.eye(2)], [np.zeros(2)], np.array([[-1.0, -2.0, -0.5], [1.0, -1.0, 2.0]]),
                         np.zeros(3))
    _, _, _, cache = forward(params, np.array([[1.0, -2.0], [3.0, -1.0], [2.0, -5.0]]))
    params.head_weight = params.head_weight.view(SumsFromTheFirstProduct)  # still a view of flat
    params.layers[-1] = (params.head_weight, params.head_bias)
    cache.layer_inputs[0] = cache.layer_inputs[0].view(SumsFromTheFirstProduct)
    d_normalized, d_logits = sign * np.zeros((3, 2)), np.zeros((3, 3))
    assert np.signbit(d_logits @ params.head_weight.T)[:, 0].all()
    expected = backward_through_the_jacobian(params, cache, d_normalized, d_logits)
    assert np.signbit(expected.weights[0][0, 0]) == (sign < 0)  # x[:, 0] > 0 times feature 0
    assert backward(params, cache, d_normalized, d_logits).flat.tobytes() == expected.flat.tobytes()
    unread = dataclasses.replace(cache, normalized=np.full((3, 2), np.nan))
    read = backward_through_the_jacobian(params, unread, d_normalized, d_logits).flat
    assert np.isnan(read).any()  # the full path reads the normalized features
    got = backward(params, unread, d_normalized, d_logits).flat
    assert got.tobytes() == (expected.flat if sign > 0 else read).tobytes()


# a call that multiplies matrices, by the name it is called by
PRODUCT_CALLS = {"matmul", "dot", "vdot", "inner", "tensordot", "einsum"}


def products_and_head_names(function: ast.FunctionDef) -> tuple[list[str], set[str]]:
    """Each matrix product in ``function``, as "@" or the called name, sorted,
    and the names of the head's tensors that it reads."""
    products, names = [], set()
    for node in ast.walk(function):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            products.append("@")
        elif isinstance(node, ast.Call):
            called = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            if called in PRODUCT_CALLS:
                products.append(called)
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name in ("head_weight", "head_bias"):
            names.add(name)
    return sorted(products), names


def test_forward_and_backward_have_one_site_per_kind_of_product():
    """The head is the last layer of one loop: ``forward`` multiplies at one
    site, and ``backward`` at one row product (the batch rows as its rows)
    and one inner-dimension product (the batch summed), so that a rule for
    how the batch's products are cut lands on those lines alone."""
    tree = ast.parse(Path(model.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert products_and_head_names(functions["forward"]) == (["@"], set())
    assert products_and_head_names(functions["backward"]) == (["@", "matmul"], set())


def test_tensors_are_views_into_flat_in_checkpoint_order(tmp_path):
    rng = np.random.default_rng(9)
    params = init_params(5, (7, 3), 4, 3, rng)
    tensors = param_tensors(params)
    assert all(np.shares_memory(t, params.flat) and t.flags.c_contiguous for t in tensors)
    grads = Gradients.zeros(params.shapes)
    grads.flat[:] = rng.standard_normal(grads.flat.size) + 4.0
    before = [t.copy() for t in tensors]
    sgd_step(params, grads, 0.25)
    for t, b, g in zip(tensors, before, param_tensors(grads)):  # every view moved
        assert t.tobytes() == (b - 0.25 * g).tobytes() and not np.array_equal(t, b)
    save_model(params, tmp_path / "model.txt")
    rows = (tmp_path / "model.txt").read_text().splitlines()[2:]
    assert params.flat.tobytes() == np.array(" ".join(rows).split(), dtype=float).tobytes()


def test_a_copy_has_its_own_flat_and_views_into_it():
    params = init_params(3, (4,), 2, 2, 0)
    for copied in (copy.deepcopy(params), pickle.loads(pickle.dumps(params))):
        assert copied.flat.tobytes() == params.flat.tobytes()
        assert not np.shares_memory(copied.flat, params.flat)
        assert all(np.shares_memory(t, copied.flat) for t in param_tensors(copied))


@pytest.mark.parametrize("hidden", [(), (7,), (7, 3)])
def test_layers_hold_the_named_views_and_raw_layer_outputs_the_features(hidden):
    params = init_params(5, hidden, 4, 3, 0)
    for layers in (params, pickle.loads(pickle.dumps(params)), Gradients.zeros(params.shapes)):
        named = [*zip(layers.weights, layers.biases), (layers.head_weight, layers.head_bias)]
        assert all(w is lw and b is lb for (w, b), (lw, lb) in zip(named, layers.layers, strict=True))
        assert layers.raw_layer == len(hidden)
        assert layers.layers[layers.raw_layer][0].shape[1] == 4  # F


class TestSgdStep:
    def test_zero_lr_is_identity(self):
        rng = np.random.default_rng(5)
        params = init_params(3, (4,), 2, 2, rng)
        before = [t.copy() for t in param_tensors(params)]
        grads = Gradients(
            [np.ones_like(w) for w in params.weights],
            [np.ones_like(b) for b in params.biases],
            np.ones_like(params.head_weight),
            np.ones_like(params.head_bias),
        )
        sgd_step(params, grads, 0.0)
        for b, t in zip(before, param_tensors(params)):
            np.testing.assert_array_equal(b, t)

    def test_single_weight_arithmetic(self):
        params = ModelParams([np.array([[1.0]])], [np.zeros(1)], np.zeros((1, 2)), np.zeros(2))
        grads = Gradients([np.array([[2.0]])], [np.zeros(1)], np.zeros((1, 2)), np.zeros(2))
        sgd_step(params, grads, 0.1)
        assert params.weights[0][0, 0] == pytest.approx(0.8, abs=1e-15)

    def test_two_steps_compose_linearly(self):
        params = ModelParams([np.array([[1.0]])], [np.zeros(1)], np.zeros((1, 2)), np.zeros(2))
        grads = Gradients([np.array([[2.0]])], [np.zeros(1)], np.zeros((1, 2)), np.zeros(2))
        sgd_step(params, grads, 0.05)
        sgd_step(params, grads, 0.05)
        assert params.weights[0][0, 0] == pytest.approx(1.0 - 2 * 0.05 * 2.0, abs=1e-15)

    def test_shape_mismatch_rejected(self):
        params = identity_net()
        grads = Gradients([np.zeros((3, 3))], [np.zeros(3)], np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            sgd_step(params, grads, 0.1)
        with pytest.raises(ValueError):
            sgd_step(params, Gradients([np.zeros((2, 2))], [np.zeros(2)],
                                       np.zeros((2, 2)), np.zeros(2)), -0.1)

    @pytest.mark.parametrize("grads", [
        # a wrong head bias, the last tensor sgd_step reaches
        lambda p: Gradients([np.ones_like(w) for w in p.weights],
                            [np.ones_like(b) for b in p.biases],
                            np.ones_like(p.head_weight), np.ones(3)),
        # one bias gradient short
        lambda p: Gradients([np.ones_like(w) for w in p.weights], [np.ones_like(p.biases[0])],
                            np.ones_like(p.head_weight), np.ones_like(p.head_bias)),
    ])
    def test_rejection_leaves_every_parameter_unchanged(self, grads):
        params = init_params(3, (4,), 2, 2, np.random.default_rng(7))
        before = [t.copy() for t in param_tensors(params)]
        with pytest.raises(ValueError):
            sgd_step(params, grads(params), 0.1)
        for b, t in zip(before, param_tensors(params)):
            np.testing.assert_array_equal(b, t)
        assert params.version == 0


    @pytest.mark.parametrize("lr", [math.nan, math.inf])
    def test_non_finite_rate_rejected_before_any_change(self, lr):
        params = init_params(3, (4,), 2, 2, np.random.default_rng(7))
        before = [t.copy() for t in param_tensors(params)]
        grads = Gradients([np.ones_like(w) for w in params.weights],
                          [np.ones_like(b) for b in params.biases],
                          np.ones_like(params.head_weight), np.ones_like(params.head_bias))
        with pytest.raises(ValueError, match="learning rate"):
            sgd_step(params, grads, lr)
        for b, t in zip(before, param_tensors(params)):
            assert b.tobytes() == t.tobytes()
        assert params.version == 0


class TestModelParams:
    def test_layers_are_the_backbone_then_the_head(self):
        params = init_params(3, (4, 5), 2, 6, np.random.default_rng(8))
        assert params.shapes == ((3, 4), (4, 5), (5, 2), (2, 6))
        assert [block.shape for block in params.blocks] == [(4, 4), (5, 5), (6, 2), (3, 6)]
        assert np.shares_memory(params.blocks[0][:-1], params.weights[0])
        assert np.shares_memory(params.blocks[-1][-1], params.head_bias)

    @pytest.mark.parametrize("head_w, head_b", [
        (np.zeros((3, 2)), np.zeros(2)),  # does not consume the 2-dim features
        (np.zeros(2), np.zeros(2)),
        (np.zeros((2, 2)), np.zeros(3)),
        (np.zeros((2, 2)), np.zeros((1, 2))),
    ])
    def test_inconsistent_head_rejected(self, head_w, head_b):
        with pytest.raises(ValueError):
            ModelParams([np.eye(2)], [np.zeros(2)], head_w, head_b)

    def test_unchained_backbone_rejected(self):
        with pytest.raises(ValueError):
            ModelParams([np.zeros((2, 3)), np.zeros((4, 2))], [np.zeros(3), np.zeros(2)],
                        np.zeros((2, 2)), np.zeros(2))


class TestLrSchedule:
    def test_warmup_end_hits_base_lr(self):
        assert lr_at(20, 0.001, 1 * 20, 10 * 20) == pytest.approx(0.001, abs=1e-15)

    def test_warmup_ramps_from_zero(self):
        assert lr_at(0, 0.001, 1 * 20, 10 * 20) == 0.0
        assert lr_at(10, 0.001, 1 * 20, 10 * 20) == pytest.approx(0.0005, abs=1e-15)

    def test_final_step_is_zero(self):
        total_steps = 10 * 20
        assert abs(lr_at(total_steps, 0.001, 1 * 20, total_steps)) < 1e-9

    def test_cosine_midpoint_is_half(self):
        total_steps = 11 * 10
        midpoint = 10 + (total_steps - 10) // 2
        assert lr_at(midpoint, 0.001, 1 * 10, total_steps) == pytest.approx(0.0005, abs=1e-12)

    def test_continuity_at_warmup_boundary(self):
        base_lr, warm = 0.001, 2 * 7
        ramp_side = base_lr * warm / warm
        cosine_side = lr_at(warm, base_lr, warm, 9 * 7)
        assert abs(ramp_side - cosine_side) < 1e-12

    def test_no_warmup_starts_at_base(self):
        assert lr_at(0, 0.01, 0 * 4, 5 * 4) == pytest.approx(0.01, abs=1e-15)

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_warmup_over_every_epoch_ramps_to_base_at_the_last_step(self, epochs):
        total_steps = epochs * 4
        assert [lr_at(s, 0.001, total_steps, total_steps)
                for s in (0, total_steps - 1, total_steps)] == [
            0.0, 0.001 * (total_steps - 1) / total_steps, 0.001]

    def test_out_of_schedule_rejected(self):
        with pytest.raises(ValueError):
            lr_at(11, 0.001, 1 * 5, 2 * 5)
        with pytest.raises(ValueError):
            lr_at(-1, 0.001, 1 * 5, 2 * 5)

    def test_monotone_decay_after_warmup(self):
        warmup_steps, total_steps = 1 * 8, 6 * 8
        values = [lr_at(s, 0.001, warmup_steps, total_steps)
                  for s in range(warmup_steps, total_steps + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        params = init_params(5, (7, 3), 4, 3, rng)
        sgd_step(params, Gradients(
            [rng.standard_normal(w.shape) for w in params.weights],
            [rng.standard_normal(b.shape) for b in params.biases],
            rng.standard_normal(params.head_weight.shape),
            rng.standard_normal(params.head_bias.shape),
        ), 0.371)
        path = tmp_path / "model.txt"
        save_model(params, path)
        loaded = load_model(path)
        assert loaded.hidden_dims == (7, 3)
        assert (loaded.input_dim, loaded.feature_dim, loaded.num_classes) == (5, 4, 3)
        for a, b in zip(param_tensors(params), param_tensors(loaded)):
            np.testing.assert_array_equal(a, b)

    def test_no_hidden_layers_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        params = init_params(3, (), 2, 4, rng)
        save_model(params, tmp_path / "m.txt")
        loaded = load_model(tmp_path / "m.txt")
        np.testing.assert_array_equal(loaded.weights[0], params.weights[0])
        assert loaded.hidden_dims == ()

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2 2 1\n2\n1 0\n")
        with pytest.raises((StateError, IndexError, ValueError)):
            load_model(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "x", "1_0", "\u0663", "\xa01"])
    def test_non_finite_or_non_numeric_weight_names_the_file(self, tmp_path, bad):
        path = tmp_path / "m.txt"
        save_model(init_params(3, (), 2, 2, 0), path)
        lines = path.read_text().splitlines()
        lines[3] = " ".join([bad] + lines[3].split()[1:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StateError, match="m.txt"):
            load_model(path)

    @pytest.mark.parametrize("text", [
        "", "3 2 2\n2\n", "3 2 2 x\n2\n", "3 2 2 1\n3\n", "0 2 2 1\n2\n", "3 2 2 1\n2\n1 0\n",
        "1 1 2 1\n1\n1\n1\n1 1\n1 1\n1\n", "1 1 2 1\n1\n1\n1_0\n1 1\n1 1\n",
        "1 1 2 1\n\u0661\n1\n1\n1 1\n1 1\n", b"1 1 2 1\n1\n1\n1\n1 1\n\xff 1\n",
    ])
    def test_malformed_files_raise_state_error(self, tmp_path, text):
        path = tmp_path / "m.txt"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(StateError, match="m.txt"):
            load_model(path)

    def test_a_huge_header_is_refused_without_memory_that_grows_with_it(self, tmp_path):
        path = tmp_path / "m.txt"
        save_model(init_params(3, (4,), 2, 2, 0), path)
        lines = path.read_text().split("\n")
        lines[0] = " ".join(["10000000", *lines[0].split()[1:]])  # D = 10**7 rows claimed, 3 held
        path.write_text("\n".join(lines))
        tracemalloc.start()
        try:
            with pytest.raises(StateError, match="m.txt"):
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestInit:
    def test_seeded_determinism(self):
        a = init_params(4, (5,), 3, 2, 99)
        b = init_params(4, (5,), 3, 2, 99)
        for x, y in zip(param_tensors(a), param_tensors(b)):
            np.testing.assert_array_equal(x, y)

    def test_bounds_scale_with_fan_in(self):
        params = init_params(16, (64,), 8, 4, 0)
        assert np.abs(params.weights[0]).max() <= 1 / 4 + 1e-12
        assert np.abs(params.weights[1]).max() <= 1 / 8 + 1e-12
        assert np.all(params.biases[0] == 0.0)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            init_params(0, (4,), 2, 2, 0)
        with pytest.raises(ValueError):
            init_params(3, (4,), 2, 1, 0)

    def test_a_model_past_the_parameter_budget_is_refused(self, monkeypatch):
        """The (fan_in + 1) x fan_out blocks of [3, 4, 2, 2] hold 16 + 10 + 6
        = 32 parameters: a budget of 32 admits them, one of 31 refuses them,
        naming the sizes, before anything is allocated."""
        monkeypatch.setattr(model, "CELL_BUDGET", 32)
        assert init_params(3, (4,), 2, 2, 0).flat.size == 32
        monkeypatch.setattr(model, "CELL_BUDGET", 31)
        with pytest.raises(ValueError, match=r"^layer sizes \[3, 4, 2, 2\] hold more than 31 parameters$"):
            init_params(3, (4,), 2, 2, 0)
        with pytest.raises(ValueError, match=r"^layer sizes \[3, 1180591620717411303424, 2, 2\] hold"):
            init_params(3, (2**70,), 2, 2, 0)  # summed as Python ints: numpy never sees the size
