"""Engine checks: every primitive's vector-Jacobian product against central
finite differences, plus the convolution/pooling forward values against naive
loop implementations and their forwards and VJPs against the per-tap loop
references."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nads import autodiff as ad
from nads.autodiff import Tensor
from nads.errors import ShapeError, UsageError

from oracles import (finite_diff_grad, naive_avg_pool3x3, naive_conv2d, naive_max_pool3x3,
                     per_tap_avg_pool3x3, per_tap_conv2d, per_tap_max_pool3x3)

RNG = np.random.default_rng(1234)


def check_grad(build, *shapes, h=1e-6, tol=1e-6):
    """FD-check the scalar-valued graph `build(*tensors)` w.r.t. each input."""
    arrays = [RNG.normal(size=s) for s in shapes]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*tensors)
    out.backward()
    for i, a in enumerate(arrays):
        def f(x, i=i):
            vals = [arr.copy() for arr in arrays]
            vals[i] = x
            with ad.no_grad():
                return build(*[Tensor(v) for v in vals]).item()

        fd = finite_diff_grad(f, a, h=h)
        an = tensors[i].grad
        assert an is not None
        np.testing.assert_allclose(an, fd, rtol=tol, atol=tol)


class TestArithmetic:
    def test_add_mul_broadcast(self):
        check_grad(lambda a, b: (a + b * 2.0).sum(), (3, 4), (3, 4))
        check_grad(lambda a, b: (a * b).sum(), (2, 3, 1, 4), (3, 1, 1))

    def test_sub_div_neg(self):
        check_grad(lambda a, b: (a / (b * b + 2.0) - a).sum(), (5,), (5,))
        check_grad(lambda a: (-a).sum(), (4, 2))

    def test_pow_matmul(self):
        check_grad(lambda a: (a**3).sum(), (6,))
        check_grad(lambda a, b: (a @ b).sum(), (3, 4), (4, 2))

    def test_scalar_lift(self):
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        out = (3.0 + t - 1.0) * 2.0 / 4.0
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [0.5, 0.5])


class TestElementwise:
    def test_exp_log_sigmoid(self):
        check_grad(lambda a: (a.exp() + (a * a + 1.0).log()).sum(), (7,))
        check_grad(lambda a: a.sigmoid().sum(), (7,))

    def test_log_sigmoid_matches_log_of_sigmoid(self):
        x = Tensor(RNG.normal(size=10))
        np.testing.assert_allclose(x.log_sigmoid().data, np.log(x.sigmoid().data), atol=1e-12)
        check_grad(lambda a: a.log_sigmoid().sum(), (7,))

    def test_log_sigmoid_stable_at_tails(self):
        x = Tensor(np.array([-800.0, 800.0]))
        out = x.log_sigmoid().data
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(-800.0)
        assert out[1] == pytest.approx(0.0, abs=1e-12)

    def test_sigmoid_stable_at_tails(self):
        x = np.array([-800.0, -40.0, -1.5, 0.0, 2.0, 40.0, 800.0])
        t = Tensor(x, requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = t.sigmoid()
            out.sum().backward()
        assert np.isfinite(out.data).all()
        assert ((out.data >= 0.0) & (out.data <= 1.0)).all()
        assert out.data[0] == 0.0 and out.data[-1] == 1.0 and out.data[3] == 0.5
        with ad.no_grad():
            fd = finite_diff_grad(lambda v: Tensor(v).sigmoid().sum().item(), x.copy())
        np.testing.assert_allclose(t.grad, fd, rtol=1e-6, atol=1e-9)

    def test_clamp_min(self):
        t = Tensor(np.array([-2.0, 0.5, 3.0]), requires_grad=True)
        out = t.clamp_min(0.0)
        np.testing.assert_allclose(out.data, [0.0, 0.5, 3.0])
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 1.0])


class TestReductionsAndShape:
    def test_sum_axes(self):
        check_grad(lambda a: a.sum(axis=(1, 2)).sum(), (2, 3, 4))
        check_grad(lambda a: a.sum(axis=1, keepdims=True).sum(), (2, 3))
        check_grad(lambda a: a.mean(axis=(0, 2, 3)).sum(), (2, 3, 2, 2))

    def test_reshape_transpose(self):
        check_grad(lambda a: (a.reshape(6, 2) ** 2).sum(), (3, 4))
        check_grad(lambda a: (a.transpose(2, 0, 1) * 1.5).sum(), (2, 3, 4))

    def test_getitem_concat(self):
        check_grad(lambda a: (a[:, 1:] * a[:, :-1]).sum(), (3, 5))
        check_grad(lambda a, b: ad.concat([a, b], axis=1).sum(), (2, 3), (2, 4))

    def test_logsumexp_softmax(self):
        x = RNG.normal(size=(4, 5))
        t = Tensor(x)
        ref = np.log(np.exp(x).sum(axis=1))
        np.testing.assert_allclose(ad.logsumexp(t, axis=1).data, ref, atol=1e-12)
        sm = ad.softmax(t, axis=1).data
        np.testing.assert_allclose(sm.sum(axis=1), 1.0, atol=1e-12)
        check_grad(lambda a: (ad.softmax(a, axis=1) * Tensor(x)).sum(), (4, 5))


class TestConvPool:
    @pytest.mark.parametrize("dilation,groups,cin,cout,k", [
        (1, 1, 3, 2, 3),
        (2, 1, 2, 2, 3),
        (1, 4, 4, 4, 5),  # depthwise
        (1, 2, 4, 6, 3),
    ])
    def test_conv2d_matches_naive(self, dilation, groups, cin, cout, k):
        x = RNG.normal(size=(2, cin, 5, 4))
        w = RNG.normal(size=(cout, cin // groups, k, k))
        got = ad.conv2d(Tensor(x), Tensor(w), dilation=dilation, groups=groups).data
        want = naive_conv2d(x, w, dilation=dilation, groups=groups)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_conv2d_grad(self):
        check_grad(
            lambda a, b: (ad.conv2d(a, b, dilation=2) ** 2).sum(),
            (2, 2, 4, 3),
            (3, 2, 3, 3),
            tol=1e-5,
        )
        check_grad(
            lambda a, b: ad.conv2d(a, b, groups=3).sum(),
            (1, 3, 3, 3),
            (3, 1, 3, 3),
            tol=1e-5,
        )

    def test_conv2d_shape_errors(self):
        with pytest.raises(ShapeError):
            ad.conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 3, 2, 2))))
        with pytest.raises(ShapeError):
            ad.conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 2, 3, 3))))

    def test_avg_pool_matches_naive(self):
        x = RNG.normal(size=(2, 3, 5, 4))
        np.testing.assert_allclose(
            ad.avg_pool3x3(Tensor(x)).data, naive_avg_pool3x3(x), atol=1e-12
        )
        check_grad(lambda a: (ad.avg_pool3x3(a) ** 2).sum(), (2, 2, 4, 4), tol=1e-5)

    def test_avg_pool_count_is_cached_and_read_only(self):
        count = ad._valid_taps(4, 3)
        assert ad._valid_taps(4, 3) is count and not count.flags.writeable
        assert count[0, 0].tolist() == [[4, 6, 4], [6, 9, 6], [6, 9, 6], [4, 6, 4]]
        x = RNG.normal(size=(2, 2, 4, 3))
        rebuilt = ad._window_sum(x) / ad._window_sum(np.ones((1, 1, 4, 3)))
        assert np.array_equal(ad.avg_pool3x3(Tensor(x)).data, rebuilt)

    def test_max_pool_matches_naive(self):
        x = RNG.normal(size=(2, 3, 5, 4))
        np.testing.assert_allclose(
            ad.max_pool3x3(Tensor(x)).data, naive_max_pool3x3(x), atol=1e-12
        )
        check_grad(lambda a: (ad.max_pool3x3(a) ** 2).sum(), (2, 2, 4, 4), tol=1e-5)

    def test_max_pool_tie_routes_to_first(self):
        # Constant input: every window is tied; gradient must land on the first
        # window element in scan order, exactly once per output position.
        x = Tensor(np.zeros((1, 1, 2, 2)), requires_grad=True)
        out = ad.max_pool3x3(x)
        out.backward(np.ones((1, 1, 2, 2)))
        # Output (i, j) windows clipped to the 2x2 grid all start at (0, 0)
        # except rows/cols shifted by padding; the first in-bounds tap wins.
        np.testing.assert_allclose(x.grad, [[[[4.0, 0.0], [0.0, 0.0]]]])

    def test_channel_mix(self):
        x = RNG.normal(size=(2, 3, 2, 2))
        w = RNG.normal(size=(4, 3))
        got = ad.channel_mix(Tensor(x), Tensor(w)).data
        want = np.einsum("oc,nchw->nohw", w, x)
        np.testing.assert_allclose(got, want, atol=1e-12)
        check_grad(lambda a, b: (ad.channel_mix(a, b) ** 2).sum(), (2, 3, 2, 2), (4, 3))


def _close(got, want):
    """Within 1e-12 of the reference, relative to its largest entry."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)


def _check_conv_against_per_tap(n, c_in, c_out, h, w, k, dilation, groups, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(n, c_in, h, w)), requires_grad=True)
    weight = Tensor(rng.normal(size=(c_out, c_in // groups, k, k)), requires_grad=True)
    out = ad.conv2d(x, weight, dilation=dilation, groups=groups)
    g = rng.normal(size=out.shape)
    out.backward(g)
    want, vjp = per_tap_conv2d(x.data, weight.data, dilation, groups)
    want_gx, want_gw = vjp(g)
    _close(out.data, want)
    _close(x.grad, want_gx)
    _close(weight.grad, want_gw)


SPATIAL = dict(n=st.integers(1, 3), c=st.integers(1, 4), h=st.integers(1, 6),
               dw=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))


class TestVectorizedSpatialMatchesPerTap:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(**SPATIAL, c_out=st.integers(1, 4), k=st.sampled_from([1, 3, 5]),
           dilation=st.sampled_from([1, 2]), depthwise=st.booleans())
    def test_conv2d(self, n, c, h, dw, seed, c_out, k, dilation, depthwise):
        if depthwise:  # groups == C, one output channel per input channel
            _check_conv_against_per_tap(n, c, c, h, h + dw, k, dilation, c, seed)
        else:
            _check_conv_against_per_tap(n, c, c_out, h, h + dw, k, dilation, 1, seed)

    def test_grouped_conv2d_with_more_outputs_than_inputs(self):
        _check_conv_against_per_tap(2, 4, 6, 5, 3, 3, 2, 2, seed=7)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(**SPATIAL)
    def test_pools(self, n, c, h, dw, seed):
        rng = np.random.default_rng(seed)
        # few distinct values, so that many max-pool windows hold ties
        data = rng.integers(-2, 3, size=(n, c, h, h + dw)).astype(float)
        g = rng.integers(-3, 4, size=data.shape).astype(float)
        for pool, reference in [(ad.avg_pool3x3, per_tap_avg_pool3x3),
                                (ad.max_pool3x3, per_tap_max_pool3x3)]:
            x = Tensor(data, requires_grad=True)
            out = pool(x)
            out.backward(g)
            want, vjp = reference(data)
            _close(out.data, want)
            _close(x.grad, vjp(g))
        # integer gradients add up exactly in any order, so a tie routed to
        # another tap than the reference's first maximal one would show
        np.testing.assert_array_equal(x.grad, vjp(g))


class TestTapeMechanics:
    def test_grad_accumulates_on_shared_leaf(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        out = t * 3.0 + t * 5.0
        out.backward()
        np.testing.assert_allclose(t.grad, [8.0])

    def test_backward_twice_accumulates(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        (t * 2.0).backward()
        (t * 2.0).backward()
        np.testing.assert_allclose(t.grad, [4.0])
        ad.zero_grad([t])
        assert t.grad is None

    def test_no_grad_blocks_taping(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            out = (t * 2.0).sum()
        assert not out.requires_grad
        with pytest.raises(UsageError):
            out.backward()

    def test_backward_without_graph_raises(self):
        with pytest.raises(UsageError):
            Tensor(np.ones(2)).backward()

    def test_upstream_gradient_seeding(self):
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        out = t * t
        out.backward(np.array([10.0, 0.0]))
        np.testing.assert_allclose(t.grad, [20.0, 0.0])

    def test_diamond_graph(self):
        t = Tensor(np.array([3.0]), requires_grad=True)
        a = t * 2.0
        b = t + 1.0
        (a * b).backward()
        # d/dt (2t (t+1)) = 4t + 2
        np.testing.assert_allclose(t.grad, [14.0])

    def test_deep_chain_does_not_recurse(self):
        t = Tensor(np.array([0.0]), requires_grad=True)
        out = t
        for _ in range(5000):
            out = out + 1.0
        out.backward()
        np.testing.assert_allclose(t.grad, [1.0])
