import math

import numpy as np
import pytest

from pauliflow.nn import (
    ADAM_BLOCK_BYTES,
    AdamState,
    DenseNet,
    adam_accumulate_and_step,
    check_finite,
    load_checkpoint,
    save_checkpoint,
)
from oracles import adam_accumulate_and_step_reference
from pauliflow.pauli import DimensionError
from pauliflow.nn import NumericError


def scalar_forward(net, x):
    """Independent re-implementation with plain Python loops."""
    h = list(map(float, x))
    for k in range(net.n_layers):
        w, b = net.weights[k], net.biases[k]
        out = []
        for j in range(w.shape[1]):
            acc = float(b[j])
            for i in range(w.shape[0]):
                acc += h[i] * float(w[i, j])
            out.append(acc)
        if k < net.n_layers - 1:
            out = [math.tanh(v) for v in out]
        h = out
    return np.array(h)


def finite_difference_grads(net, x, gout, step=1e-5):
    """Central differences of <forward(x), gout> for every parameter."""
    grads = []
    for p in net.parameters():
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            plus = float(net.forward(x) @ gout)
            flat[i] = original - step
            minus = float(net.forward(x) @ gout)
            flat[i] = original
            gflat[i] = (plus - minus) / (2 * step)
        grads.append(g)
    return grads


class TestForward:
    def test_zero_parameters_zero_output(self):
        net = DenseNet(
            [np.zeros((3, 4)), np.zeros((4, 2))], [np.zeros(4), np.zeros(2)]
        )
        assert np.array_equal(net.forward(np.ones(3)), np.zeros(2))

    def test_identity_linear_layer(self):
        net = DenseNet([np.eye(3)], [np.zeros(3)])
        x = np.array([0.1, -2.0, 0.7])
        assert np.allclose(net.forward(x), x)

    def test_matches_scalar_reimplementation(self):
        for seed in range(10):
            rng = np.random.Generator(np.random.PCG64(seed))
            sizes = [int(rng.integers(1, 6)) for _ in range(int(rng.integers(2, 5)))]
            net = DenseNet.initialize(sizes, seed=seed)
            x = rng.normal(size=sizes[0])
            expected = scalar_forward(net, x)
            got = net.forward(x)
            assert np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))

    def test_batched_matches_looped(self):
        net = DenseNet.initialize([4, 8, 3], seed=1)
        xs = np.random.Generator(np.random.PCG64(2)).normal(size=(5, 4))
        batch = net.forward(xs)
        for i in range(5):
            assert np.allclose(batch[i], net.forward(xs[i]))

    def test_dimension_error(self):
        net = DenseNet.initialize([4, 3], seed=0)
        with pytest.raises(DimensionError):
            net.forward(np.ones(5))

    def test_parameter_count(self):
        net = DenseNet.initialize([7, 512, 512, 3], seed=0)
        expected = (7 + 1) * 512 + (512 + 1) * 512 + (512 + 1) * 3
        assert net.n_parameters() == expected

    def test_deterministic_init(self):
        a = DenseNet.initialize([3, 5, 2], seed=9)
        b = DenseNet.initialize([3, 5, 2], seed=9)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa, pb)


class TestBackward:
    def test_zero_output_grad(self):
        net = DenseNet.initialize([3, 4, 2], seed=0)
        grads = net.backward(np.ones(3), np.zeros(2))
        assert all(not g.any() for g in grads)

    def test_linear_layer_closed_form(self):
        net = DenseNet.initialize([3, 2], seed=4)
        x = np.array([0.5, -1.0, 2.0])
        gout = np.array([1.0, -0.5])
        grads = net.backward(x, gout)
        assert np.allclose(grads[0], np.outer(x, gout))
        assert np.allclose(grads[1], gout)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_finite_differences(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        net = DenseNet.initialize([int(rng.integers(2, 8)), int(rng.integers(2, 16)), 3], seed=seed)
        x = rng.normal(size=net.layer_sizes[0])
        gout = rng.normal(size=3)
        analytic = net.backward(x, gout)
        numeric = finite_difference_grads(net, x, gout)
        for a, n in zip(analytic, numeric):
            scale = np.maximum(np.abs(n), 1e-6)
            assert np.max(np.abs(a - n) / scale) < 1e-4

    def test_batch_sums_over_rows(self):
        net = DenseNet.initialize([3, 6, 2], seed=5)
        xs = np.random.Generator(np.random.PCG64(6)).normal(size=(4, 3))
        gouts = np.random.Generator(np.random.PCG64(7)).normal(size=(4, 2))
        batched = net.backward(xs, gouts)
        summed = [np.zeros_like(g) for g in batched]
        for i in range(4):
            for acc, g in zip(summed, net.backward(xs[i], gouts[i])):
                acc += g
        for a, b in zip(batched, summed):
            assert np.allclose(a, b)


class TestAdam:
    def test_zero_gradients_leave_params(self):
        net = DenseNet.initialize([2, 3], seed=0)
        before = [p.copy() for p in net.parameters()]
        state = AdamState.for_net(net, accumulation_period=3)
        for _ in range(7):
            adam_accumulate_and_step(state, net.parameters(), [np.zeros_like(p) for p in before])
        for p, b in zip(net.parameters(), before):
            assert np.array_equal(p, b)

    def test_update_only_on_period_boundary(self):
        net = DenseNet.initialize([2, 2], seed=1)
        state = AdamState.for_net(net)
        grads = [np.ones_like(p) for p in net.parameters()]
        before = [p.copy() for p in net.parameters()]
        for i in range(9):
            assert not adam_accumulate_and_step(state, net.parameters(), grads)
            for p, b in zip(net.parameters(), before):
                assert np.array_equal(p, b)
        assert adam_accumulate_and_step(state, net.parameters(), grads)
        for p, b in zip(net.parameters(), before):
            assert not np.array_equal(p, b)

    def test_first_update_matches_hand_computed_step(self):
        # constant gradient g: after one full period, t=1, m_hat=g, v_hat=g^2,
        # delta = -lr * g / (|g| + eps)
        net = DenseNet([np.array([[1.0, -2.0]])], [np.array([0.5, 0.5])])
        lr = 3e-4
        state = AdamState.for_net(net, lr=lr, accumulation_period=10)
        g_w = np.array([[0.25, -4.0]])
        g_b = np.array([1.5, 0.0])
        before_w = net.weights[0].copy()
        before_b = net.biases[0].copy()
        for _ in range(10):
            adam_accumulate_and_step(state, net.parameters(), [g_w, g_b])
        expected_w = before_w - lr * g_w / (np.abs(g_w) + 1e-8)
        expected_b = before_b - lr * g_b / (np.abs(g_b) + 1e-8)
        assert np.allclose(net.weights[0], expected_w, rtol=0, atol=1e-12)
        assert np.allclose(net.biases[0], expected_b, rtol=0, atol=1e-12)
        assert state.t == 1 and state.accum_count == 0

    def test_averaging_over_period(self):
        # one call with gradient 10g then nine zeros == constant g averaged
        def run(grad_seq):
            net = DenseNet([np.array([[1.0]])], [np.array([0.0])])
            state = AdamState.for_net(net)
            for g in grad_seq:
                adam_accumulate_and_step(
                    state, net.parameters(), [np.array([[g]]), np.array([0.0])]
                )
            return net.weights[0][0, 0]

        assert run([5.0] + [0.0] * 9) == pytest.approx(run([0.5] * 10), abs=1e-15)

    @pytest.mark.parametrize("period", [1, 10])
    def test_in_place_step_matches_reference_bit_for_bit(self, period):
        """W0 spans three row blocks of the step, the last one partial. Calls
        alternate a dense first gradient with a row-sparse one that touches a
        random subset of W0's rows outside 300..399. The dense one is zero on
        those 100 rows, so they never change."""
        net = DenseNet.initialize([700, 400, 5, 3], seed=period)
        assert 2 * ADAM_BLOCK_BYTES < net.weights[0].nbytes < 3 * ADAM_BLOCK_BYTES
        untouched = net.weights[0][300:400].copy()
        ref_net = net.copy()
        state = AdamState.for_net(net, lr=1e-2, accumulation_period=period)
        ref = AdamState.for_net(ref_net, lr=1e-2, accumulation_period=period)
        rng = np.random.Generator(np.random.PCG64(period))
        for call in range(3 * period + 4):
            grads = [rng.normal(scale=10.0, size=p.shape) for p in net.parameters()]
            grads[0][300:400] = 0.0
            rows0 = None
            if call % 2:
                rows0 = rng.choice(np.r_[:300, 400:700], size=250, replace=False)
                grads[0] = rng.normal(scale=10.0, size=(250, 400))
            stepped = adam_accumulate_and_step(state, net.parameters(), grads, rows0)
            want = adam_accumulate_and_step_reference(ref, ref_net.parameters(), grads, rows0)
            assert stepped == want
            mine = net.parameters() + state.m + state.v + state.accum
            theirs = ref_net.parameters() + ref.m + ref.v + ref.accum
            for a, b in zip(mine, theirs, strict=True):
                assert np.array_equal(a, b)
            assert (state.t, state.accum_count) == (ref.t, ref.accum_count)
        assert state.t >= 3  # several real steps compared
        assert np.array_equal(net.weights[0][300:400], untouched)

    def test_row_sparse_gradient_shape_mismatch(self):
        net = DenseNet.initialize([6, 4, 2], seed=0)
        state = AdamState.for_net(net)
        grads = [np.zeros((3, 4))] + [np.zeros_like(p) for p in net.parameters()[1:]]
        with pytest.raises(DimensionError):
            adam_accumulate_and_step(state, net.parameters(), grads, np.array([0, 1]))
        adam_accumulate_and_step(state, net.parameters(), grads, np.array([0, 1, 5]))

    def test_shape_mismatch(self):
        net = DenseNet.initialize([2, 2], seed=0)
        state = AdamState.for_net(net)
        with pytest.raises(DimensionError):
            adam_accumulate_and_step(
                state, net.parameters(), [np.zeros((3, 3))] * len(net.parameters())
            )


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        net = DenseNet.initialize([4, 8, 3], seed=3)
        meta = {"mode": "fc", "color_cap": 3}
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, net, meta)
        with np.load(path) as data:
            assert sorted(data.files) == ["b0", "b1", "layer_sizes", "metadata", "version", "w0", "w1"]
        net2, meta2 = load_checkpoint(path)
        assert meta2 == meta
        assert net2.layer_sizes == net.layer_sizes
        for a, b in zip(net.parameters(), net2.parameters(), strict=True):
            assert np.array_equal(a, b)

    def test_load_without_optimizer_state(self, tmp_path):
        # an archive written before checkpoints dropped Adam's arrays still
        # loads: the loader reads the same arrays and ignores the rest
        net = DenseNet.initialize([4, 8, 3], seed=3)
        meta = {"mode": "fc", "color_cap": 3}
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, net, meta)
        with np.load(path) as data:
            arrays = dict(data)
        state = AdamState.for_net(net)
        arrays["adam_scalars"] = np.array([state.lr, state.beta1, state.beta2, state.eps, 10, 0, 0])
        for i, (m, v, a) in enumerate(zip(state.m, state.v, state.accum)):
            arrays.update({f"adam_m{i}": m, f"adam_v{i}": v, f"adam_a{i}": a})
        np.savez(path, **arrays)
        net2, meta2 = load_checkpoint(path)
        assert meta2 == meta
        for a, b in zip(net.parameters(), net2.parameters(), strict=True):
            assert np.array_equal(a, b)
        # one missing array the loader reads makes it not a checkpoint
        del arrays["b1"]
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="not a pauliflow checkpoint: b1"):
            load_checkpoint(path)

    def test_finite_guard(self):
        net = DenseNet.initialize([2, 2], seed=0)
        check_finite(net)
        net.weights[0][0, 0] = np.nan
        with pytest.raises(NumericError):
            check_finite(net)
