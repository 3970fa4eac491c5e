import numpy as np
import pytest

from zonosharp import (
    DimensionMismatch,
    EmptyInterval,
    ReluNetwork,
    _simplex,
    check_sharpness,
    complexity,
    contains,
    demo_network,
    is_empty,
    level_set_above,
    network_from_obj,
    network_graph,
    preactivation_bounds,
    read_network,
    relu_graph_1d,
    support,
    write_network,
)
from zonosharp.oracle import SharpnessVerdict


class TestReluGraph1d:
    def test_mixed_interval_membership(self):
        G = relu_graph_1d(-1.0, 1.0)
        assert contains(G, [-0.5, 0.0])
        assert contains(G, [0.5, 0.5])
        assert not contains(G, [-0.5, -0.5])
        assert not contains(G, [0.5, 0.0])
        assert not contains(G, [1.5, 1.5])

    def test_one_binary_factor(self):
        assert relu_graph_1d(-2.0, 3.0).n_b == 1

    def test_affine_segments(self):
        pos = relu_graph_1d(1.0, 2.0)
        assert pos.n_b == 0
        assert contains(pos, [1.5, 1.5]) and not contains(pos, [1.5, 0.0])
        neg = relu_graph_1d(-2.0, -1.0)
        assert neg.n_b == 0
        assert contains(neg, [-1.5, 0.0]) and not contains(neg, [-1.5, -1.5])
        # in 01 form, t = lo + (hi - lo) xi; the flat segment's second
        # generator and center entries are +0.0
        assert pos.Gc.tolist() == [[1.0], [1.0]] and pos.c.tolist() == [1.0, 1.0]
        assert neg.Gc.tolist() == [[1.0], [0.0]] and neg.c.tolist() == [-2.0, 0.0]
        assert not np.signbit(neg.Gc[1, 0]) and not np.signbit(neg.c[1])

    def test_empty_interval(self):
        with pytest.raises(EmptyInterval):
            relu_graph_1d(1.0, 0.0)

    def test_sharp_triangle_hull(self):
        lo, hi = -2.0, 1.0
        G = relu_graph_1d(lo, hi)
        rep = check_sharpness(G)
        assert rep.verdict is SharpnessVerdict.SHARP
        # relaxation support matches the triangle (lo,0),(0,0),(hi,hi)
        tri = np.array([[lo, 0.0], [0.0, 0.0], [hi, hi]])
        for u in rep.directions:
            assert max(tri @ u) == pytest.approx(
                support(G, u), abs=1e-6)


class TestReluNetwork:
    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            ReluNetwork(((np.ones((2, 3)), np.zeros(2)),),
                        np.array([[0.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(EmptyInterval):
            ReluNetwork(((np.eye(1), np.zeros(1)),), np.array([[1.0, 0.0]]))

    def test_evaluate(self):
        net = ReluNetwork((
            (np.array([[1.0], [-1.0]]), np.zeros(2)),
            (np.array([[1.0, -1.0]]), np.zeros(1)),
        ), np.array([[-1.0, 1.0]]))
        for x in (-0.7, 0.0, 0.3):
            assert net.evaluate([x])[0] == pytest.approx(x)

    def test_json_round_trip(self, tmp_path):
        net = demo_network()
        path = tmp_path / "net.json"
        write_network(net, path)
        back = read_network(path)
        assert len(back.layers) == len(net.layers)
        for (W1, b1), (W2, b2) in zip(back.layers, net.layers):
            np.testing.assert_array_equal(W1, W2)
            np.testing.assert_array_equal(b1, b2)
        np.testing.assert_array_equal(back.input_box, net.input_box)

    def test_preactivation_bounds_sound(self):
        rng = np.random.default_rng(0)
        net = demo_network()
        bounds = preactivation_bounds(net)
        for _ in range(200):
            x = rng.uniform(-1, 1, 2)
            h = x
            for (W, bias), (zlo, zhi) in zip(net.layers, bounds):
                z = W @ h + bias
                assert np.all(z >= zlo - 1e-12) and np.all(z <= zhi + 1e-12)
                h = np.maximum(z, 0.0)


class TestNetworkGraph:
    def test_identity_network(self):
        net = ReluNetwork(((np.eye(2), np.zeros(2)),),
                          np.array([[-1.0, 1.0], [-1.0, 1.0]]))
        G = network_graph(net)
        assert G.dim == 4 and G.n_b == 0
        assert contains(G, [0.3, -0.4, 0.3, -0.4])
        assert not contains(G, [0.3, -0.4, 0.3, 0.4])

    def test_absolute_value_identity_net(self):
        # max(0,x) - max(0,-x) = x on [-1,1]
        net = ReluNetwork((
            (np.array([[1.0], [-1.0]]), np.zeros(2)),
            (np.array([[1.0, -1.0]]), np.zeros(1)),
        ), np.array([[-1.0, 1.0]]))
        G = network_graph(net)
        for x in np.linspace(-1, 1, 20):
            assert contains(G, [x, x])
            assert not contains(G, [x, x + 0.05])

    def test_demo_graph_soundness(self):
        net = demo_network()
        G = network_graph(net)
        rng = np.random.default_rng(1)
        for _ in range(40):
            x = rng.uniform(-1, 1, 2)
            y = net.evaluate(x)[0]
            assert contains(G, [x[0], x[1], y])
            assert not contains(G, [x[0], x[1], y + 0.05])
            assert not contains(G, [x[0], x[1], y - 0.05])


class TestLevelSet:
    def test_demo_membership(self):
        net = demo_network()
        L = level_set_above(net, 0.5)
        rng = np.random.default_rng(2)
        for _ in range(60):
            x = rng.uniform(-1, 1, 2)
            y = net.evaluate(x)[0]
            if abs(y - 0.5) > 0.02:
                assert contains(L, x) == (y >= 0.5), (x, y)

    def test_demo_nonconvex(self):
        L = level_set_above(demo_network(), 0.5)
        assert contains(L, [1.0, 0.0]) and contains(L, [-1.0, 0.0])
        assert not contains(L, [0.0, 0.0])

    def test_threshold_below_min_gives_box(self):
        net = demo_network()
        L = level_set_above(net, -1.0)  # N >= 0 everywhere
        for u in (np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                  np.array([-1.0, 0.0]), np.array([0.0, -1.0])):
            assert support(L, u) == pytest.approx(1.0, abs=1e-6)

    def test_threshold_above_max_empty(self):
        net = demo_network()
        L = level_set_above(net, 10.0)
        assert is_empty(L)

    def test_subset_of_input_box(self):
        L = level_set_above(demo_network(), 0.5)
        rng = np.random.default_rng(3)
        for _ in range(16):
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            assert support(L, u) <= np.sum(np.abs(u)) + 1e-6

    def test_scalar_output_required(self):
        net = ReluNetwork(((np.eye(2), np.zeros(2)),),
                          np.array([[-1.0, 1.0], [-1.0, 1.0]]))
        with pytest.raises(DimensionMismatch):
            level_set_above(net, 0.0)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
    def test_nonfinite_threshold_raises_before_the_lp(self, threshold):
        with _simplex.lp_stats() as stats:
            with pytest.raises(ValueError, match="finite"):
                level_set_above(demo_network(), threshold)
        assert stats.phase1_runs == stats.rows == 0


class TestDemoNetwork:
    def test_shape(self):
        net = demo_network()
        assert net.n_in == 2 and net.n_out == 1
        assert len(net.layers) == 2

    def test_from_obj(self):
        net = network_from_obj({
            "layers": [{"W": [[1.0]], "b": [0.0]}],
            "input_box": [[0.0, 1.0]],
        })
        assert net.n_in == net.n_out == 1

    @pytest.mark.parametrize("where", ["W", "b", "input_box"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_from_obj_rejects_nonfinite_entries(self, where, bad):
        obj = {"layers": [{"W": [[1.0]], "b": [0.0]}],
               "input_box": [[0.0, 1.0]]}
        if where == "input_box":
            obj["input_box"] = [[0.0, bad]]
        else:
            obj["layers"][0][where] = [[bad]] if where == "W" else [bad]
        with pytest.raises(ValueError, match="finite"):
            network_from_obj(obj)
