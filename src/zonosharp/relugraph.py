"""Exact hybrid-zonotope encoding of feedforward ReLU network graphs.

The graph of one scalar ReLU over a bounded preactivation interval is a
two-segment set encoded with a single binary factor; the graph of a whole
network is assembled layer by layer from affine maps, Cartesian products of
the unary graphs, and generalized intersections that couple the shared
preactivation coordinates.  Preactivation bounds come from interval
arithmetic, which is conservative but always valid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import (FactorForm, HybridZonotope, _check_finite, box,
                   convert_form, point)
from .errors import DimensionMismatch, EmptyInterval
from .algebra import (
    affine_map,
    cartesian_product,
    generalized_intersection,
    halfspace_intersection,
)


@dataclass(frozen=True)
class ReluNetwork:
    """Feedforward ReLU network: ReLU after every layer except the last."""

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    input_box: np.ndarray  # (n_in, 2) rows [lo, hi]

    def __post_init__(self):
        layers = tuple(
            (np.asarray(W, dtype=np.float64), np.asarray(bias, dtype=np.float64).reshape(-1))
            for W, bias in self.layers)
        ib = np.asarray(self.input_box, dtype=np.float64)
        if not layers:
            raise ValueError("network needs at least one layer")
        if ib.ndim != 2 or ib.shape[1] != 2:
            raise ValueError("input_box must be an (n, 2) array of [lo, hi] rows")
        if np.any(ib[:, 0] > ib[:, 1]):
            raise EmptyInterval("input_box has lo > hi")
        width = ib.shape[0]
        for i, (W, bias) in enumerate(layers):
            if W.ndim != 2 or W.shape[1] != width:
                raise DimensionMismatch(
                    f"layer {i}: W is {W.shape}, expected (*, {width})")
            if bias.shape[0] != W.shape[0]:
                raise DimensionMismatch(f"layer {i}: bias length mismatch")
            width = W.shape[0]
        for W, bias in layers:
            W.setflags(write=False)
            bias.setflags(write=False)
        ib.setflags(write=False)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "input_box", ib)

    @property
    def n_in(self) -> int:
        return self.input_box.shape[0]

    @property
    def n_out(self) -> int:
        return self.layers[-1][0].shape[0]

    def evaluate(self, x) -> np.ndarray:
        """Forward pass: ReLU after every layer except the last."""
        h = np.asarray(x, dtype=np.float64).reshape(-1)
        for i, (W, bias) in enumerate(self.layers):
            h = W @ h + bias
            if i + 1 < len(self.layers):
                h = np.maximum(h, 0.0)
        return h

    def to_obj(self) -> dict:
        return {
            "layers": [{"W": W.tolist(), "b": bias.tolist()}
                       for W, bias in self.layers],
            "input_box": self.input_box.tolist(),
        }


def network_from_obj(obj: dict) -> ReluNetwork:
    """The network that `ReluNetwork.to_obj` wrote; ValueError for a NaN
    or infinite weight, bias or input bound."""
    net = ReluNetwork(tuple((layer["W"], layer["b"])
                            for layer in obj["layers"]), obj["input_box"])
    _check_finite(net.input_box, *(a for layer in net.layers for a in layer))
    return net


def read_network(path) -> ReluNetwork:
    with open(path) as fh:
        return network_from_obj(json.load(fh))


def write_network(net: ReluNetwork, path) -> None:
    with open(path, "w") as fh:
        json.dump(net.to_obj(), fh, indent=1)


def demo_network() -> ReluNetwork:
    """The packaged two-neuron demo network.

    N(x) = relu(x1 - 0.6*x2) + relu(-x1 - 0.6*x2) on [-1,1]^2; its upper
    level sets are nonconvex (two lobes around x1 = +-1), which is what the
    RLT demo pipeline needs.  The 0.5 level set has the convex hull
    [-1,1] x [-1,5/6], of area 11/3.
    """
    from importlib import resources
    ref = resources.files(__package__).joinpath("data/demo_network.json")
    return network_from_obj(json.loads(ref.read_text()))


def relu_graph_1d(lo: float, hi: float) -> HybridZonotope:
    """Graph {(t, max(0, t)) : t in [lo, hi]} as a 01-form hybrid zonotope.

    When the interval crosses zero the two affine pieces are selected by one
    binary factor sigma: factors u, v, s1, s2 in [0,1] with u + s1 = 1 - sigma
    and v + s2 = sigma give t = lo*u + hi*v, max(0,t) = hi*v.  The relaxation
    is exactly the triangle hull of the graph, so the encoding is sharp.
    """
    lo, hi = float(lo), float(hi)
    if lo > hi:
        raise EmptyInterval(f"preactivation interval [{lo}, {hi}] is empty")
    if lo >= 0.0:  # identity segment
        Gc = np.array([[0.5 * (hi - lo)], [0.5 * (hi - lo)]])
        c = np.array([0.5 * (lo + hi), 0.5 * (lo + hi)])
        return convert_form(
            HybridZonotope(Gc, np.zeros((2, 0)), c, np.zeros((0, 1)),
                           np.zeros((0, 0)), np.zeros(0), FactorForm.PM1),
            FactorForm.ZO)
    if hi <= 0.0:  # flat segment
        Gc = np.array([[0.5 * (hi - lo)], [0.0]])
        c = np.array([0.5 * (lo + hi), 0.0])
        return convert_form(
            HybridZonotope(Gc, np.zeros((2, 0)), c, np.zeros((0, 1)),
                           np.zeros((0, 0)), np.zeros(0), FactorForm.PM1),
            FactorForm.ZO)
    Gc = np.array([
        [lo, hi, 0.0, 0.0],
        [0.0, hi, 0.0, 0.0],
    ])
    Gb = np.zeros((2, 1))
    c = np.zeros(2)
    Ac = np.array([
        [1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0],
    ])
    Ab = np.array([[1.0], [-1.0]])
    b = np.array([1.0, 0.0])
    return HybridZonotope(Gc, Gb, c, Ac, Ab, b, FactorForm.ZO)


def preactivation_bounds(net: ReluNetwork) -> list[tuple[np.ndarray, np.ndarray]]:
    """Interval-arithmetic bounds of each layer's preactivations."""
    lo = net.input_box[:, 0].copy()
    hi = net.input_box[:, 1].copy()
    out = []
    for i, (W, bias) in enumerate(net.layers):
        Wp = np.maximum(W, 0.0)
        Wn = np.minimum(W, 0.0)
        zlo = Wp @ lo + Wn @ hi + bias
        zhi = Wp @ hi + Wn @ lo + bias
        out.append((zlo, zhi))
        if i + 1 < len(net.layers):
            lo = np.maximum(zlo, 0.0)
            hi = np.maximum(zhi, 0.0)
    return out


def network_graph(net: ReluNetwork) -> HybridZonotope:
    """{(x, N(x)) : x in input_box} as a 01-form hybrid zonotope."""
    n = net.n_in
    bounds = preactivation_bounds(net)
    # running set over (x, h) with h the current layer's activations; at the
    # start h duplicates x so the input coordinates survive the projections
    S = affine_map(box(net.input_box, FactorForm.ZO),
                   np.vstack([np.eye(n), np.eye(n)]))
    width = n
    for i, (W, bias) in enumerate(net.layers):
        m = W.shape[0]
        # (x, h) -> (x, z) with z = W h + bias
        R = np.zeros((n + m, n + width))
        R[:n, :n] = np.eye(n)
        R[n:, n:] = W
        s = np.concatenate([np.zeros(n), bias])
        S = affine_map(S, R, s)
        width = m
        if i + 1 == len(net.layers):
            break
        zlo, zhi = bounds[i]
        # attach per-neuron graphs (z~_j, t_j) and couple z_j = z~_j
        for j in range(m):
            S = cartesian_product(S, relu_graph_1d(zlo[j], zhi[j]))
        dim = n + m + 2 * m
        rows = np.zeros((m, dim))
        for j in range(m):
            rows[j, n + j] = 1.0
            rows[j, n + m + 2 * j] = -1.0
        S = generalized_intersection(S, point(np.zeros(m), FactorForm.ZO), rows)
        # project to (x, t)
        proj = np.zeros((n + m, dim))
        proj[:n, :n] = np.eye(n)
        for j in range(m):
            proj[n + j, n + m + 2 * j + 1] = 1.0
        S = affine_map(S, proj)
    return S


def level_set_above(net: ReluNetwork, threshold: float) -> HybridZonotope:
    """{x in input_box : N(x) >= threshold} for a scalar-output network.

    Raises ValueError, from `halfspace_intersection`, for a NaN or infinite
    threshold."""
    if net.n_out != 1:
        raise DimensionMismatch("level_set_above needs a scalar output")
    G = network_graph(net)
    n = net.n_in
    e_y = np.zeros(n + 1)
    e_y[n] = 1.0
    sliced = halfspace_intersection(G, e_y, float(threshold))
    proj = np.hstack([np.eye(n), np.zeros((n, 1))])
    return affine_map(sliced, proj)
