"""Gradient-buffer ownership: donated buffers never alias anything.

The engine adopts a gradient buffer its producer declares fresh instead of
copying it (``Tensor._accumulate(buf, owned=True)``).  That is only sound if
no two live ``.grad`` arrays share memory and none is a view of something an
op keeps.  These properties run random small graphs over every donating
producer and compare against a copy-everything reference bit for bit.

Producers covered (the review list for ``owned=True`` call sites): neg, sub,
mul, div, pow, exp, log, sqrt, tanh, sigmoid, relu, abs, clip, maximum,
matmul, max, getitem, linear, bias_relu, softmax, log_softmax, nll_loss,
cross_entropy, embedding, dropout, layer_norm, batch_norm, conv2d,
max_pool2d, avg_pool2d — and the pass-through ops that must keep copying:
add, sub's left operand, reshape, transpose, pad, concat, sum, the root seed.
"""

from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import BatchNorm1d, BatchNorm2d, LayerNorm
from repro.tensor import (
    Tensor,
    avg_pool2d,
    backend,
    bias_relu,
    conv2d,
    cross_entropy,
    dropout,
    embedding,
    linear,
    log_softmax,
    max_pool2d,
    nll_loss,
    softmax,
)
from repro.tensor.backend import _SCRATCH
from repro.tensor.tensor import _Node

VOCAB = 5


@contextmanager
def copy_everything():
    """The engine before ownership: every first accumulation copies, into a
    leaf ``Tensor`` and into an op's ``_Node`` alike."""
    adopt = Tensor._accumulate

    def always_copy(self, grad, owned=False):
        adopt(self, np.array(grad), owned=False)

    Tensor._accumulate = _Node._accumulate = always_copy
    try:
        yield
    finally:
        Tensor._accumulate = _Node._accumulate = adopt


# -- the op vocabulary: every entry maps (n, n) tensors to an (n, n) tensor ------

UNARY = {
    "neg": lambda a, env: -a,
    "pow": lambda a, env: a**2,
    "exp": lambda a, env: a.tanh().exp(),
    "log": lambda a, env: (a.abs() + 1.0).log(),
    "sqrt": lambda a, env: (a.abs() + 1.0).sqrt(),
    "sigmoid": lambda a, env: a.sigmoid(),
    "relu": lambda a, env: a.relu(),
    "clip": lambda a, env: a.clip(-0.5, 0.5),
    "transpose": lambda a, env: a.T,
    "reshape": lambda a, env: a.reshape(-1).reshape(a.shape),
    "getitem": lambda a, env: a[::-1],
    "pad": lambda a, env: a.pad(((1, 1), (0, 0)))[1:-1],
    "concat": lambda a, env: Tensor.concat([a, a], axis=0)[: a.shape[0]],
    "rowmax": lambda a, env: a - a.max(axis=1, keepdims=True),
    "center": lambda a, env: a - a.mean(axis=1, keepdims=True),
    "scale_sum": lambda a, env: a * a.sum(),
    "softmax": lambda a, env: softmax(a),
    "log_softmax": lambda a, env: log_softmax(a),
    "dropout": lambda a, env: dropout(a, 0.5, True, env["rng"]),
    "layer_norm": lambda a, env: env["layer_norm"](a),
    "batch_norm": lambda a, env: env["batch_norm"](a),
    "add_bias": lambda a, env: a + env["bias"],
    "mul_bias": lambda a, env: a * env["bias"],
    "bias_relu": lambda a, env: bias_relu(a, env["bias"]),
    "linear": lambda a, env: linear(a, env["weight"], env["bias"]),
    "linear_nobias": lambda a, env: linear(a, env["weight"]),
    "double": lambda a, env: a + a,
    "square": lambda a, env: a * a,
}
BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / (b.abs() + 1.0),
    "maximum": lambda a, b: a.maximum(b),
    "matmul": lambda a, b: a @ b,
}
HEADS = ("sum", "sq_mean", "cross_entropy", "nll", "transpose_root", "reshape_root", "same_root")

steps = st.one_of(
    st.tuples(st.sampled_from(sorted(UNARY)), st.integers(0, 50), st.just(0)),
    st.tuples(st.sampled_from(sorted(BINARY)), st.integers(0, 50), st.integers(0, 50)),
)
programs = st.fixed_dictionaries(
    {
        "n": st.integers(1, 3),
        "seed": st.integers(0, 2**16),
        "steps": st.lists(steps, min_size=1, max_size=6),
        "root": st.integers(0, 50),
        "head": st.sampled_from(HEADS),
        "twice": st.sampled_from(("once", "fresh_graph", "same_root")),
    }
)


def make_env(program) -> dict:
    """Leaves and modules, rebuilt identically for every run of a program."""
    n = program["n"]
    data = np.random.default_rng(program["seed"])

    def leaf(*shape, grad=True):
        return Tensor(data.standard_normal(shape).astype(np.float32), requires_grad=grad)

    env = {
        "x": leaf(n, n),
        "y": leaf(n, n),
        "const": leaf(n, n, grad=False),
        "weight": leaf(n, n),
        "bias": leaf(n),
        "table": leaf(VOCAB, n),
        "layer_norm": LayerNorm(n),
        "batch_norm": BatchNorm1d(n),
        "tokens": data.integers(0, VOCAB, size=n),
        "targets": data.integers(0, n, size=n),
        "seed_grad": data.standard_normal((n, n)).astype(np.float32),
    }
    env["leaves"] = {
        "x": env["x"],
        "y": env["y"],
        "weight": env["weight"],
        "bias": env["bias"],
        "table": env["table"],
        "ln.weight": env["layer_norm"].weight,
        "ln.bias": env["layer_norm"].bias,
        "bn.weight": env["batch_norm"].weight,
        "bn.bias": env["batch_norm"].bias,
    }
    return env


def build(program, env):
    """Run the program forward; returns ``(root, seed)`` for ``backward``."""
    env["rng"] = np.random.default_rng(program["seed"])
    pool = [env["x"], env["y"], env["const"], embedding(env["table"], env["tokens"])]
    for op, i, j in program["steps"]:
        a = pool[i % len(pool)]
        if op in UNARY:
            pool.append(UNARY[op](a, env))
        else:
            pool.append(BINARY[op](a, pool[j % len(pool)]))
    t = pool[-1 - program["root"] % 2]
    head = program["head"]
    if head == "sum":
        return t.sum(), None
    if head == "sq_mean":
        return (t * t).mean(), None
    if head == "cross_entropy":
        return cross_entropy(t, env["targets"]), None
    if head == "nll":
        return nll_loss(log_softmax(t), env["targets"]), None
    if head == "transpose_root":
        return t.T, env["seed_grad"]
    if head == "reshape_root":
        return t.reshape(-1), env["seed_grad"].reshape(-1)
    return t, env["seed_grad"]


def run(program):
    """Forward + backward per the program; returns ``(env, roots)``."""
    env = make_env(program)
    roots = []
    root, seed = build(program, env)
    root.backward(seed)
    roots.append(root)
    if program["twice"] == "same_root":
        root.backward(seed)
    elif program["twice"] == "fresh_graph":
        root, seed = build(program, env)
        root.backward(seed)
        roots.append(root)
    return env, roots


def graph_nodes(roots):
    """Every op node reachable from the tensors ``roots``."""
    seen, stack = {}, [t._node for t in roots if t._node is not None]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(p for p in node.parents if isinstance(p, _Node))
    return list(seen.values())


def kept_arrays(obj):
    """Arrays an op keeps: whatever its closure saved."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, Tensor):
        yield obj.data
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from kept_arrays(item)


def assert_ownership(tensors, extra_kept=()):
    """No two live grads alias; none is read-only; none is a view of an op's
    saved context, a tensor's data, the caller's seed or backend scratch.

    ``tensors`` are graph nodes and leaf tensors; pass the data of a root the
    caller holds in ``extra_kept``."""
    tensors = list({id(t): t for t in tensors}.values())
    live = [t.grad for t in tensors if isinstance(t.grad, np.ndarray)]
    for a, b in combinations(live, 2):
        assert not np.shares_memory(a, b), "two live .grad arrays share memory"
    kept = list(extra_kept) + list(_SCRATCH.values())
    for t in tensors:
        if isinstance(t, _Node):
            for cell in t.backward.__closure__ or ():
                kept.extend(kept_arrays(cell.cell_contents))
        else:
            kept.append(t.data)
    for g in live:
        assert g.flags.writeable, "a live .grad is read-only"
        for k in kept:
            assert not np.shares_memory(g, k), "a live .grad aliases a kept array"


def leaf_grads(env):
    return {name: t.grad for name, t in env["leaves"].items()}


def assert_same_grads(got, ref):
    assert got.keys() == ref.keys()
    for name in ref:
        if ref[name] is None:
            assert got[name] is None, name
            continue
        g, r = np.asarray(got[name]), np.asarray(ref[name])
        assert g.shape == r.shape and g.dtype == r.dtype, name
        assert g.tobytes() == r.tobytes(), f"{name}.grad differs from the copying engine"


@given(programs)
@settings(max_examples=150, deadline=None)
def test_random_graphs_match_copying_engine_and_never_alias(program):
    with backend.use("numpy"), np.errstate(all="ignore"):
        with copy_everything():
            ref_env, _ = run(program)
        env, roots = run(program)
    assert_same_grads(leaf_grads(env), leaf_grads(ref_env))
    nodes = graph_nodes(roots) + list(env["leaves"].values())
    assert_ownership(nodes, extra_kept=[env["seed_grad"]] + [r.data for r in roots])


conv_programs = st.fixed_dictionaries(
    {
        "n": st.integers(1, 2),
        "c": st.integers(1, 2),
        "hw": st.integers(4, 6),
        "k": st.sampled_from((1, 3, (1, 3), (2, 3))),
        "stride": st.sampled_from((1, 2)),
        "pad": st.sampled_from((0, 1, (1, 0), (0, 1), 2)),
        "pool": st.sampled_from((None, "max2", "max3s1", "avg2", "avg1")),
        "norm": st.booleans(),
        "seed": st.integers(0, 2**16),
        "backend": st.sampled_from(("numpy", "fast")),
    }
)


def run_conv(p):
    data = np.random.default_rng(p["seed"])

    def leaf(*shape):
        return Tensor(data.standard_normal(shape).astype(np.float32), requires_grad=True)

    c = p["c"]
    kh, kw = p["k"] if isinstance(p["k"], tuple) else (p["k"], p["k"])
    x = leaf(p["n"], c, p["hw"], p["hw"])
    w1, b1, w2, b2 = leaf(c, c, kh, kw), leaf(c), leaf(c, c, 3, 3), leaf(c)
    norm = BatchNorm2d(c)
    # The leaf's gradient comes out of the drawn kernel / stride / padding's
    # input-gradient path (one image, one channel, a padding wider than the
    # kernel's reach included); the second convolution reuses whatever
    # scratch arenas its shapes share with the first.
    h = conv2d(x, w1, b1, stride=p["stride"], padding=p["pad"]).relu()
    if p["norm"]:
        h = norm(h)
    h = conv2d(h, w2, b2, padding=1)
    if p["pool"] == "max2":
        h = max_pool2d(h, 2)
    elif p["pool"] == "max3s1":
        h = max_pool2d(h, min(3, h.shape[2], h.shape[3]), 1)
    elif p["pool"] == "avg2":
        h = avg_pool2d(h, 2)
    elif p["pool"] == "avg1":
        h = avg_pool2d(h, 1)
    loss = (h * h).sum()
    loss.backward()
    leaves = {"x": x, "w1": w1, "b1": b1, "w2": w2, "b2": b2,
              "bn.weight": norm.weight, "bn.bias": norm.bias}
    return leaves, loss


@given(conv_programs)
@settings(max_examples=60, deadline=None)
def test_conv_graphs_never_alias_backend_scratch(p):
    with backend.use(p["backend"]):
        with copy_everything():
            ref, _ = run_conv(p)
        leaves, loss = run_conv(p)
    assert_same_grads(
        {k: t.grad for k, t in leaves.items()}, {k: t.grad for k, t in ref.items()}
    )
    assert_ownership(graph_nodes([loss]) + list(leaves.values()), extra_kept=[loss.data])


class TestEngineRules:
    def test_donated_buffer_is_adopted_not_copied(self):
        t = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        buf = np.ones(3, dtype=np.float32)
        t._accumulate(buf, owned=True)
        assert t.grad is buf

    def test_borrowed_buffer_is_copied(self):
        t = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        buf = np.ones(3, dtype=np.float32)
        t._accumulate(buf)
        assert not np.shares_memory(t.grad, buf)

    def test_second_arrival_adds_into_the_owned_buffer(self):
        t = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        first = np.ones(3, dtype=np.float32)
        t._accumulate(first, owned=True)
        t._accumulate(np.full(3, 2.0, dtype=np.float32), owned=True)
        assert t.grad is first and np.array_equal(first, [3.0, 3.0, 3.0])

    def test_root_keeps_its_own_copy_of_the_seed(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        seed = np.ones((2, 2), dtype=np.float32)
        root = x.T
        root.backward(seed)
        assert not np.shares_memory(root.grad, seed)
        assert not np.shares_memory(root.grad, x.grad)

    @pytest.mark.parametrize("n,c,pad", [(1, 1, (1, 0)), (1, 1, 1), (2, 1, 0)])
    def test_col2im_result_is_never_a_view(self, n, c, pad, rng):
        for name in ("numpy", "fast"):
            be = backend.get(name)
            cols = rng.standard_normal((n * 4 * 4, c)).astype(np.float32)
            ph, pw = pad if isinstance(pad, tuple) else (pad, pad)
            if (ph, pw) == (0, 0):
                out = be.col2im(cols, (n, c, 4, 4), 1, 1, 1, 0, 0)
            else:
                rows = n * (4 + 2 * ph) * (4 + 2 * pw)
                cols = rng.standard_normal((rows, c)).astype(np.float32)
                out = be.col2im(cols, (n, c, 4, 4), 1, 1, 1, ph, pw)
            assert not np.shares_memory(out, cols)
            assert all(not np.shares_memory(out, s) for s in _SCRATCH.values())
