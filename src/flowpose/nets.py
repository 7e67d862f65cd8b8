"""Small residual MLP conditioners and their parameter bookkeeping.

Parameters live in an ordered name -> Node mapping so the same network code
runs on the tape (training) or on plain arrays (fast evaluation).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ag

__all__ = ["ParamStore", "mlp_init", "mlp_apply", "Adam", "GradientDescent"]


class ParamStore:
    """Ordered mapping of parameter names to autodiff leaves."""

    def __init__(self):
        self._params = {}

    def add(self, name, value):
        if name in self._params:
            raise KeyError(f"duplicate parameter {name}")
        self._params[name] = ag.leaf(value)
        return self._params[name]

    def __getitem__(self, name):
        return self._params[name]

    def names(self):
        return list(self._params)

    def leaves(self):
        return list(self._params.values())

    def values(self):
        return {k: v.value for k, v in self._params.items()}

    def load_values(self, mapping):
        for k, node in self._params.items():
            v = np.asarray(mapping[k], dtype=np.float64)
            if v.shape != node.value.shape:
                raise ValueError(f"shape mismatch for {k}: {v.shape} vs {node.value.shape}")
            node.value = v.copy()


def mlp_init(store: ParamStore, prefix, d_in, d_out, channels, blocks, rng,
             zero_final=True, final_bias=None):
    """Residual MLP: fc_in -> tanh -> blocks x (h + tanh(tanh(h W)W)) -> fc_out.

    ``zero_final`` makes the network output exactly ``final_bias`` (or zero)
    at initialization, which is what gives the flow its identity start.
    """
    def glorot(n_in, n_out):
        return rng.normal(size=(n_in, n_out)) * np.sqrt(2.0 / (n_in + n_out))

    store.add(f"{prefix}/w_in", glorot(d_in, channels))
    store.add(f"{prefix}/b_in", np.zeros(channels))
    for b in range(blocks):
        store.add(f"{prefix}/blk{b}/w1", glorot(channels, channels))
        store.add(f"{prefix}/blk{b}/b1", np.zeros(channels))
        store.add(f"{prefix}/blk{b}/w2", glorot(channels, channels))
        store.add(f"{prefix}/blk{b}/b2", np.zeros(channels))
    w_out = np.zeros((channels, d_out)) if zero_final else glorot(channels, d_out)
    b_out = np.zeros(d_out) if final_bias is None else np.asarray(final_bias, float)
    store.add(f"{prefix}/w_out", w_out)
    store.add(f"{prefix}/b_out", b_out)


def mlp_apply(params, prefix, x, blocks):
    """Run the residual MLP; ``params`` maps names to Nodes or ndarrays.
    On the tape the network is one node with a hand-written VJP."""
    names = (["w_in", "b_in"] + [f"blk{b}/{n}" for b in range(blocks)
                                 for n in ("w1", "b1", "w2", "b2")] + ["w_out", "b_out"])
    nodes = [params[f"{prefix}/{n}"] for n in names]
    w = [ag.as_array(p) for p in nodes]
    xv = ag.as_array(x)

    def layer(h, weight, bias):
        # tanh(h W + b), the bias and tanh applied in place on the product
        z = h @ weight
        z += bias
        return np.tanh(z, out=z)

    hs = [layer(xv, w[0], w[1])]
    ts = []
    for b in range(blocks):
        w1, b1, w2, b2 = w[2 + 4 * b:6 + 4 * b]
        t1 = layer(hs[-1], w1, b1)
        t2 = layer(t1, w2, b2)
        ts.append((t1, t2))
        hs.append(hs[-1] + t2)
    out = hs[-1] @ w[-2] + w[-1]

    def vjp(g):
        grads = [None] * len(w)
        grads[-2], grads[-1] = hs[-1].T @ g, g.sum(axis=0)
        gh = g @ w[-2].T
        for b in reversed(range(blocks)):
            w1, _, w2, _ = w[2 + 4 * b:6 + 4 * b]
            t1, t2 = ts[b]
            z2 = gh * (1.0 - t2 * t2)
            z1 = (z2 @ w2.T) * (1.0 - t1 * t1)
            grads[2 + 4 * b:6 + 4 * b] = [hs[b].T @ z1, z1.sum(axis=0),
                                          t1.T @ z2, z2.sum(axis=0)]
            gh = gh + z1 @ w1.T
        z0 = gh * (1.0 - hs[0] * hs[0])
        grads[0], grads[1] = xv.T @ z0, z0.sum(axis=0)
        return [z0 @ w[0].T] + grads

    return ag.fused(out, [x] + nodes, vjp)


_BLOCK = 16384  # elements per block of an optimizer pass: a block of every vector fits in L2
CLIP_NORM = 1.0  # the global gradient norm both optimizers clip to
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


class _Packed:
    """Leaves whose ``.value`` are reshaped views into one float64 vector
    ``x``, and a gradient buffer ``g`` with the same layout."""

    def __init__(self, leaves):
        bounds = np.cumsum([0] + [l.value.size for l in leaves]).tolist()
        self.x = np.concatenate([l.value.ravel() for l in leaves])
        self.g, self.sq = np.zeros_like(self.x), np.zeros_like(self.x)
        self.segments = []
        for l, a, b in zip(leaves, bounds, bounds[1:]):
            l.value = self.x[a:b].reshape(l.value.shape)
            self.segments.append((l, l.value, self.g[a:b].reshape(l.value.shape), a, b))

    def gather(self):
        """Copy the live leaves' gradients into ``g``. Returns [start, end)
        blocks of at most _BLOCK elements over the runs of consecutive live
        leaves, and the clip norm summed leaf by leaf."""
        live, runs = [], []
        for l, view, g, a, b in self.segments:
            if l.value is not view:
                raise RuntimeError("a packed leaf's .value was rebound; "
                                   "the optimizer would no longer update it")
            if l.grad is not None:
                g[...] = l.grad
                live.append((a, b))
                if runs and runs[-1][1] == a:
                    runs[-1][1] = b
                else:
                    runs.append([a, b])
        for a, b in runs:
            np.multiply(self.g[a:b], self.g[a:b], out=self.sq[a:b])
        total = np.sqrt(sum(float(np.add.reduce(self.sq[a:b])) for a, b in live))
        return [(s, min(s + _BLOCK, b)) for a, b in runs for s in range(a, b, _BLOCK)], total


class GradientDescent:
    """Plain gradient descent with global gradient-norm clipping."""

    def __init__(self, leaves, lr):
        self.packed = _Packed(leaves)
        self.lr = lr

    def step(self):
        blocks, total = self.packed.gather()
        rate = self.lr * (1.0 if total <= CLIP_NORM else CLIP_NORM / total)
        x, g = self.packed.x, self.packed.g
        for a, b in blocks:
            x[a:b] -= np.multiply(g[a:b], rate, out=g[a:b])


class Adam:
    """Adam with global gradient-norm clipping; a leaf with no gradient
    keeps its value and moments."""

    def __init__(self, leaves, lr):
        self.packed = _Packed(leaves)
        self.lr = lr
        self.m, self.v = np.zeros_like(self.packed.x), np.zeros_like(self.packed.x)
        self._tmp = np.zeros((2, min(_BLOCK, self.m.size)))
        self.t = 0

    def step(self):
        self.t += 1
        blocks, total = self.packed.gather()
        clip = total > CLIP_NORM
        b1t, b2t = 1.0 - BETA1 ** self.t, 1.0 - BETA2 ** self.t
        for a, b in blocks:
            # in place: m = BETA1 m + (1-BETA1) g, v = BETA2 v + (1-BETA2) g g and
            # x -= lr (m / b1t) / (sqrt(v / b2t) + EPS)
            g, m, v = self.packed.g[a:b], self.m[a:b], self.v[a:b]
            u, w = self._tmp[:, :b - a]
            if clip:
                g *= CLIP_NORM / total
            m *= BETA1
            m += np.multiply(g, 1 - BETA1, out=u)
            v *= BETA2
            v += np.multiply(np.multiply(g, 1 - BETA2, out=u), g, out=u)
            np.sqrt(np.divide(v, b2t, out=u), out=u)
            u += EPS
            np.multiply(np.divide(m, b1t, out=w), self.lr, out=w)
            self.packed.x[a:b] -= np.divide(w, u, out=w)
