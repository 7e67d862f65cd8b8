"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Every function here accepts either plain numpy arrays or ``Node`` objects and
returns the matching kind, so numerical code can be written once and run both
with and without gradient tracking. The elementwise ops follow numpy
broadcasting and un-broadcast their adjoints.

Every op records through ``fused``: each node has one VJP returning every
parent's gradient, and a whole kernel (a Möbius step, a residual MLP) is one
such node, the same as an elementwise op. A kernel with several outputs gives
one Node per output; they share one kernel record whose VJP runs once, with
one gradient per output.
"""

from __future__ import annotations

import math

import numpy as np

from .rotation import cross3

__all__ = [
    "Node", "as_array", "leaf", "backward",
    "add", "sub", "mul", "div", "neg", "exp", "log", "clip",
    "softmax", "reduce_sum", "mean", "cross", "concat", "take", "reshape", "absolute",
    "sqrt", "normal_cdf", "normal_pdf", "special_orthogonalize_op",
    "fused", "gather_rows", "finite_diff_check",
    "ShapeError", "DomainError",
]


class ShapeError(ValueError):
    pass


class DomainError(ValueError):
    pass


class Node:
    """One tape entry: a value, its parent Nodes, and one vector-Jacobian
    closure mapping the output gradient to a sequence with one gradient (or
    None) per parent."""

    __slots__ = ("value", "parents", "vjp", "grad")

    # make numpy defer mixed ndarray-Node arithmetic to our reflected ops
    # instead of broadcasting into an object array
    __array_ufunc__ = None

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = parents
        self.vjp = vjp
        self.grad = None

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node(shape={self.value.shape})"

    # arithmetic sugar; keeps flow code readable
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __getitem__(self, idx):
        return take(self, idx)


def leaf(value):
    """A trainable/input leaf holding a float64 copy of ``value``."""
    return Node(np.array(value, dtype=np.float64))


def as_array(x):
    return x.value if isinstance(x, Node) else np.asarray(x, dtype=np.float64)


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    g = grad
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def _binary(x, y, fwd, vjp_x, vjp_y):
    a, b = as_array(x), as_array(y)
    out = fwd(a, b)
    # adjoints of the Node operands only: fused records no constant parent
    if not isinstance(y, Node):
        return fused(out, (x,), lambda g: (_unbroadcast(vjp_x(g, a, b, out), a.shape),))
    if not isinstance(x, Node):
        return fused(out, (y,), lambda g: (_unbroadcast(vjp_y(g, a, b, out), b.shape),))
    return fused(out, (x, y), lambda g: (_unbroadcast(vjp_x(g, a, b, out), a.shape),
                                         _unbroadcast(vjp_y(g, a, b, out), b.shape)))


def _unary(x, fwd, vjp):
    a = as_array(x)
    out = fwd(a)
    return fused(out, (x,), lambda g: (vjp(g, a, out),))


class _Kernel:
    """A multi-output kernel's record, the one parent of each of its
    outputs; during ``backward`` its grad maps output index -> gradient."""

    __slots__ = ("parents", "vjp", "grad")

    def __init__(self, parents, vjp):
        self.parents, self.vjp, self.grad = parents, vjp, None


class _Output(Node):
    """Output ``index`` of a multi-output kernel record."""

    __slots__ = ("index",)

    def __init__(self, value, kernel, index):
        super().__init__(value, (kernel,))
        self.index = index


def fused(values, parents, vjp):
    """Record a whole kernel as one tape node.

    ``values`` are the kernel's outputs, already computed from the parents'
    values: one array, or a tuple of arrays. ``vjp(*output_grads)`` returns
    one gradient (or None) per entry of ``parents``; an output that receives
    no gradient is passed as zeros. Parents that are not Nodes are constants.
    With no Node parent the values come back unchanged, so the same kernel
    code serves the tape and the plain-array path.

    A multi-output kernel returns one Node per output, all children of one
    kernel record; ``backward`` runs the VJP once, after every output.
    """
    nodes = tuple([p for p in parents if isinstance(p, Node)])
    if not nodes:
        return values
    node_vjp = vjp
    if len(nodes) < len(parents):
        # the Node keeps the gradients of its Node parents only
        keep = [i for i, p in enumerate(parents) if isinstance(p, Node)]

        def node_vjp(*grads):
            gs = vjp(*grads)
            return [gs[i] for i in keep]

    if not isinstance(values, tuple):
        return Node(values, nodes, node_vjp)
    shapes = [np.shape(v) for v in values]
    kernel = _Kernel(nodes, lambda gs: node_vjp(
        *[gs[i] if i in gs else np.zeros(s) for i, s in enumerate(shapes)]))
    return tuple(_Output(v, kernel, i) for i, v in enumerate(values))


def add(x, y):
    return _binary(x, y, np.add, lambda g, a, b, o: g, lambda g, a, b, o: g)


def sub(x, y):
    return _binary(x, y, np.subtract, lambda g, a, b, o: g, lambda g, a, b, o: -g)


def mul(x, y):
    return _binary(x, y, np.multiply, lambda g, a, b, o: g * b, lambda g, a, b, o: g * a)


def div(x, y):
    return _binary(
        x, y, np.divide,
        lambda g, a, b, o: g / b,
        lambda g, a, b, o: -g * a / (b * b),
    )


def neg(x):
    return _unary(x, np.negative, lambda g, a, o: -g)


def exp(x):
    return _unary(x, np.exp, lambda g, a, o: g * o)


def log(x):
    def fwd(a):
        if np.any(a <= 0):
            raise DomainError("log of non-positive value")
        return np.log(a)

    return _unary(x, fwd, lambda g, a, o: g / a)


def sqrt(x):
    def fwd(a):
        if np.any(a < 0):
            raise DomainError("sqrt of negative value")
        return np.sqrt(a)

    return _unary(x, fwd, lambda g, a, o: g / (2.0 * o))


def absolute(x):
    return _unary(x, np.abs, lambda g, a, o: g * np.sign(a))


def clip(x, lo, hi):
    """Clamp with pass-through gradient strictly inside the interval."""

    def vjp(g, a, o):
        return g * ((a > lo) & (a < hi))

    return _unary(x, lambda a: np.clip(a, lo, hi), vjp)


# Cephes ndtr (Moshier 1989), the normal CDF of SciPy's special functions. With x = a / sqrt(2),
# Phi(a) = (1 + erf(x)) / 2 for |x| < 1/sqrt(2), else erfc(|x|) / 2, mirrored for x > 0;
# erf(x) = x T(x^2) / U(x^2), and erfc(x) = 1 - erf(x) below 1, exp(-x^2) P(x) / Q(x) below 8,
# exp(-x^2) R(x) / S(x) above, and 0 once x^2 > MAXLOG
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)


def _polevl(w, coef):
    """Cephes polevl: the polynomial coef[0] w^N + ... + coef[N], in its order of operations."""
    p = coef[0] * w
    p += coef[1]
    for c in coef[2:]:
        p *= w
        p += c
    return p


def _p1evl(w, coef):
    """Cephes p1evl: polevl with a leading coefficient 1 that coef leaves out."""
    p = w + coef[0]
    for c in coef[1:]:
        p *= w
        p += c
    return p


def _erf(x, w):
    """erf(x) where |x| < 1, for w = x^2."""
    erf = x * _polevl(w, _T)
    erf /= _p1evl(w, _U)
    return erf


def _erfc_tail(z):
    """erfc(z) for z >= 1; exp(-z^2) from libm, whose rounding numpy's SIMD exp does not share."""
    zc = np.minimum(z, 27.0)        # past sqrt(MAXLOG): keeps the rationals finite
    num, den = _polevl(zc, _P), _p1evl(zc, _Q)
    if zc.max(initial=0.0) >= 8.0:
        far = zc >= 8.0
        num = np.where(far, _polevl(zc, _R), num)
        den = np.where(far, _p1evl(zc, _S), den)
    arg = np.negative(zc * zc)
    e = np.fromiter(map(math.exp, arg.tolist()), float, len(arg))
    e[arg < -_MAXLOG] = 0.0
    num *= e
    num /= den
    return num


def _ndtr(a):
    """The standard normal CDF of a float array, bit for bit Cephes ndtr's."""
    x = a.reshape(-1) * _SQRT1_2
    z = np.abs(x)
    xc = np.clip(x, -1.0, 1.0)              # x where erf is kept; no overflow on the tail rows
    erf = _erf(xc, xc * xc)
    erfc = 1.0 - np.abs(erf)
    tail = np.flatnonzero(z >= 1.0)
    if tail.size:                   # the tail costs its ~20 numpy calls even when empty
        erfc[tail] = _erfc_tail(z[tail])
    half = 0.5 * erfc
    y = np.where(x > 0, 1.0 - half, half)
    np.copyto(y, 0.5 + 0.5 * erf, where=z < _SQRT1_2)
    return y.reshape(a.shape)


def normal_cdf(x):
    return _unary(x, _ndtr, lambda g, a, o: g * np.exp(-0.5 * a * a) / np.sqrt(2.0 * np.pi))


def normal_pdf(x):
    def fwd(a):
        return np.exp(-0.5 * a * a) / np.sqrt(2.0 * np.pi)

    return _unary(x, fwd, lambda g, a, o: -g * a * o)


def softmax(x, axis=-1):
    def fwd(a):
        m = a - a.max(axis=axis, keepdims=True)
        e = np.exp(m)
        return e / e.sum(axis=axis, keepdims=True)

    def vjp(g, a, o):
        return o * (g - (g * o).sum(axis=axis, keepdims=True))

    return _unary(x, fwd, vjp)


def reduce_sum(x, axis=None, keepdims=False):
    def fwd(a):
        return a.sum(axis=axis, keepdims=keepdims)

    def vjp(g, a, o):
        if axis is None:
            return np.broadcast_to(g, a.shape).copy()
        gg = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(gg, a.shape).copy()

    return _unary(x, fwd, vjp)


def mean(x, axis=None, keepdims=False):
    a = as_array(x)
    n = a.size if axis is None else a.shape[axis]
    return mul(reduce_sum(x, axis=axis, keepdims=keepdims), 1.0 / n)


def cross(x, y):
    """Cross product along the last axis (size 3)."""
    return _binary(
        x, y,
        cross3,
        lambda g, a, b, o: cross3(b, g),
        lambda g, a, b, o: cross3(g, a),
    )


def concat(xs, axis=-1):
    values = [as_array(x) for x in xs]
    out = np.concatenate(values, axis=axis)
    offsets = np.cumsum([0] + [v.shape[axis] for v in values])

    def vjp(g):
        return np.split(g, offsets[1:-1], axis=axis)

    return fused(out, list(xs), vjp)


def take(x, idx):
    """Basic slicing/indexing (no repeated fancy indices)."""

    def fwd(a):
        return a[idx]

    def vjp(g, a, o):
        out = np.zeros_like(a)
        out[idx] = g
        return out

    return _unary(x, fwd, vjp)


def gather_rows(x, idx):
    """Rows ``x[idx]`` for an integer index that may repeat; the adjoint
    sums the gradients of repeated rows back with ``np.add.at``."""
    a = as_array(x)

    def vjp(g):
        gx = np.zeros_like(a)
        np.add.at(gx, idx, g)
        return (gx,)

    return fused(a[idx], (x,), vjp)


def reshape(x, shape):
    def vjp(g, a, o):
        return g.reshape(a.shape)

    return _unary(x, lambda a: a.reshape(shape), vjp)


def special_orthogonalize_op(x):
    """Project 3x3 matrices onto SO(3). Accepts (3,3) or a batch (B,9).

    One batched SVD M = U S V^T gives Q = U diag(1,1,d) V^T and the
    eigen-decomposition of the symmetric factor H = Q^T M = V diag(lam) V^T
    with lam = S * (1,1,d). The adjoint is the closed form of the polar
    factor's derivative: Mbar = Q V (Y - Y^T) V^T with
    Y_ij = (V^T Q^T Gbar V)_ij / (lam_i + lam_j).
    """
    a = as_array(x)
    m = a.reshape(-1, 3, 3)
    u, s, vt = np.linalg.svd(m)
    d = np.sign(np.linalg.det(u @ vt))
    u[:, :, 2] *= d[:, None]
    q = u @ vt
    lam = s.copy()
    lam[:, 2] *= d

    def vjp(g):
        v = vt.transpose(0, 2, 1)
        y = vt @ q.transpose(0, 2, 1) @ g.reshape(-1, 3, 3) @ v
        den = lam[:, :, None] + lam[:, None, :]
        y = np.where(np.abs(den) > 1e-12, y / np.where(den == 0, 1.0, den), 0.0)
        return ((q @ v @ (y - y.transpose(0, 2, 1)) @ vt).reshape(a.shape),)

    return fused(q.reshape(a.shape), (x,), vjp)


def backward(output):
    """Accumulate gradients of a scalar ``output`` into every reachable node."""
    if output.value.size != 1:
        raise ShapeError("backward requires a scalar output")
    # iterative topological order over parents
    order = []
    seen = set()
    stack = [(output, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    for node in order:
        node.grad = None
    output.grad = np.ones_like(output.value)
    for node in reversed(order):
        if node.grad is None or not node.parents:
            continue
        if type(node) is _Output:
            kernel = node.parents[0]
            kernel.grad = kernel.grad or {}
            kernel.grad[node.index] = node.grad
            continue
        for parent, g in zip(node.parents, node.vjp(node.grad)):
            if g is None:
                continue
            # stored as is: no .grad is changed in place, accumulation builds a new array
            parent.grad = np.asarray(g, np.float64) if parent.grad is None else parent.grad + g
    return output.grad


def finite_diff_check(f, leaves, step=1e-6):
    """Max relative discrepancy between tape gradients of ``f`` and central
    finite differences over every entry of ``leaves``.

    ``f`` is re-evaluated after each perturbation of the leaf values, so it
    must read the leaves' current ``.value``.
    """
    backward(f())
    grads = [np.zeros_like(l.value) if l.grad is None else l.grad for l in leaves]
    worst = 0.0
    for node, g in zip(leaves, grads):
        flat = node.value.ravel()
        gflat = np.asarray(g).ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = float(as_array(f()))
            flat[i] = orig - step
            fm = float(as_array(f()))
            flat[i] = orig
            fd = (fp - fm) / (2.0 * step)
            denom = max(abs(fd), abs(gflat[i]), 1e-8)
            worst = max(worst, abs(gflat[i] - fd) / denom)
    return worst
