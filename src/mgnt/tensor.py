"""Dense float32/float64 tensors with reverse-mode differentiation on an explicit tape.

The op set is the minimum needed for MLPs, message passing, layer
normalization, softmax and token attention: 2-D matmul, broadcasted
elementwise arithmetic, row gather/scatter, segment sums, concatenation and
reductions.  Every primitive registers a backward closure on the active
:class:`Tape`; the tape replays them in reverse, visiting each record exactly
once.  Gradients are verified against central finite differences by
:func:`grad_check`.

A record names tensors by their integer ``key``, not by the tensors
themselves, and a backward closure captures only the arrays and shapes it
reads, returning one gradient contribution per recorded input, in order.  So
an intermediate that no backward reads (a gathered edge block, a pre-bias
matmul output, a layer-norm input) is freed as soon as the caller drops it,
and the reverse pass frees each record's saved arrays once it has run.

Data is float32 or float64: a tensor keeps float32 data and stores
anything else as float64, and every op computes and returns its gradients in
its inputs' precision, so a pass whose inputs are all float32 runs in float32
throughout.  A plain number or array given to a binary op or to ``concat``
takes the dtype of a tensor operand.
:meth:`Tensor.astype` casts without a record: the copy keeps the key, so the
gradients the tape collects for it are the original's.  Tensors are treated
as immutable after construction: no op, backward closure or reverse pass
writes into an array once it is handed out, so ops may return views.

Importing this module fixes glibc's malloc mmap and trim thresholds for the
whole process (``_keep_freed_memory_mapped``), so the memory one train step
frees is reused by the next instead of being returned and faulted in again.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NumericError, ShapeError, ValidationError

Array = np.ndarray

# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory_mapped() -> None:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB,
    where its own dynamic rule would stop raising them.  Left to that rule
    they stay a few MB, so the memory a train step's activations took goes
    back to the OS when the backward pass frees it, and the next step faults
    it in again.  Setting either one switches the rule off for both, so
    both are set.  No result changes.  Without ``mallopt`` (not glibc)
    nothing is done.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_memory_mapped()

_keys = itertools.count()


class Tensor:
    """A shaped block of float32 or float64 values, named on a tape by its
    unique ``key``; data of any other type is stored as float64."""

    __slots__ = ("data", "key")

    def __init__(self, data):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else np.asarray(data, dtype=np.float64)
        self.key = next(_keys)

    def astype(self, dtype) -> "Tensor":
        """This tensor if it already has ``dtype``, else a copy in ``dtype``
        under the same key.  Nothing is recorded: the tape's gradient for the
        copy is returned for the original, in the copy's precision."""
        if self.data.dtype == dtype:
            return self
        out = Tensor.__new__(Tensor)
        out.data = self.data.astype(dtype)
        out.key = self.key
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        """The single value of a size-1 tensor of any rank, as a Python float."""
        if self.data.size != 1:
            raise ShapeError(f"item() needs a size-1 tensor, got shape {self.data.shape}")
        return float(self.data.item())


class Tape:
    """Ordered record of primitive ops; inputs always precede their consumers.

    A record is ``(out key, input keys, backward, op name, scope label,
    flops)``.  ``backward(g)`` maps the output gradient to one contribution
    per input key, in order; it holds whatever arrays it reads, and the
    record holds nothing else.

    Also doubles as the op-census instrument: every record carries an integer
    flop estimate and the scope label active when it was created, so the cost
    of a network stage can be compared across input sizes exactly.
    """

    _active: "Tape | None" = None

    def __init__(self):
        # entries: (out key, input keys, backward, op name, scope label, flops)
        self.records: list[tuple] = []
        self._scope = "main"

    def __enter__(self) -> "Tape":
        if Tape._active is not None:
            raise ValidationError("a tape is already active; tapes do not nest")
        Tape._active = self
        return self

    def __exit__(self, *exc) -> None:
        Tape._active = None

    @contextlib.contextmanager
    def scope(self, label: str):
        prev = self._scope
        self._scope = label
        try:
            yield
        finally:
            self._scope = prev

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], backward: Callable,
               name: str, flops: int) -> None:
        self.records.append((out.key, tuple(t.key for t in inputs), backward, name,
                             self._scope, flops))

    def census(self) -> dict[str, dict[str, tuple[int, int]]]:
        """Per-scope {op name: (call count, flop count)} of the records not yet
        consumed, so take it before ``gradients``, which empties the tape."""
        out: dict[str, dict[str, tuple[int, int]]] = {}
        for _, _, _, name, scope, flops in self.records:
            ops = out.setdefault(scope, {})
            calls, total = ops.get(name, (0, 0))
            ops[name] = (calls + 1, total + flops)
        return out

    @property
    def counts(self) -> dict[str, dict[str, tuple[int, int]]]:
        """``census()``, under the name perfbench's step tracer reads."""
        return self.census()

    def gradients(self, root: Tensor, wrt: Sequence[Tensor]) -> list[Array]:
        """Reverse pass from a scalar root; returns one gradient per entry of wrt.

        The pass consumes the tape: it pops each record before running its
        backward, so the arrays a closure saved are freed once it has run,
        and ``records`` is empty afterwards.  A closure must return exactly
        one contribution per input key; any other count raises ``ValueError``.

        Contributions are summed out of place, so a contribution may be
        ``g`` itself or a view of it, and nothing handed out is written.
        Each returned gradient is a fresh array.
        """
        if root.data.size != 1:
            raise ShapeError(f"backward root must be scalar, got shape {root.data.shape}")
        grads: dict[int, Array] = {root.key: np.ones_like(root.data)}
        records = self.records
        while records:
            out_key, in_keys, backward, _, _, _ = records.pop()
            g = grads.pop(out_key, None)
            if g is None:
                continue
            for key, contrib in zip(in_keys, backward(g), strict=True):
                acc = grads.get(key)
                grads[key] = contrib if acc is None else acc + contrib
        return [np.array(grads[t.key]) if t.key in grads else np.zeros_like(t.data)
                for t in wrt]


def _wrap(x, like=None) -> Tensor:
    """``x`` as a tensor; a non-tensor takes the dtype of ``like`` if that is
    a tensor (a float64 0-d array would widen float32 data), else float64."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype if isinstance(like, Tensor)
                             else np.float64))


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcasted gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _emit(out_data: Array, inputs: tuple[Tensor, ...], backward: Callable,
          name: str, flops: int) -> Tensor:
    out = Tensor(out_data)
    tape = Tape._active
    if tape is not None:
        tape.record(out, inputs, backward, name, flops)
    return out


# ---------------------------------------------------------------------------
# elementwise arithmetic (numpy broadcasting rules, gradients unbroadcast)

def add(a, b) -> Tensor:
    a, b = _wrap(a, b), _wrap(b, a)
    out = a.data + b.data
    sa, sb = a.data.shape, b.data.shape

    def backward(g):
        return [_unbroadcast(g, sa), _unbroadcast(g, sb)]

    return _emit(out, (a, b), backward, "add", out.size)


def mul(a, b) -> Tensor:
    a, b = _wrap(a, b), _wrap(b, a)
    ad, bd = a.data, b.data
    out = ad * bd

    def backward(g):
        return [_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)]

    return _emit(out, (a, b), backward, "mul", out.size)


def div(a, b) -> Tensor:
    a, b = _wrap(a, b), _wrap(b, a)
    ad, bd = a.data, b.data
    out = ad / bd

    def backward(g):
        return [_unbroadcast(g / bd, ad.shape),
                _unbroadcast(-g * ad / (bd * bd), bd.shape)]

    return _emit(out, (a, b), backward, "div", out.size)


def maximum_scalar(a, c: float) -> Tensor:
    """Elementwise max(a, c); gradient passes only where a > c."""
    a = _wrap(a)
    c = float(c)
    mask = a.data > c

    def backward(g):
        return [g * mask]

    return _emit(np.maximum(a.data, c), (a,), backward, "maximum_scalar", a.size)


# ---------------------------------------------------------------------------
# linear algebra and nonlinearities

def matmul(a, b) -> Tensor:
    a, b = _wrap(a, b), _wrap(b, a)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.data.shape} x {b.data.shape}")
    ad, bd = a.data, b.data
    out = ad @ bd

    def backward(g):
        return [g @ bd.T, ad.T @ g]

    m, k = ad.shape
    n = bd.shape[1]
    return _emit(out, (a, b), backward, "matmul", 2 * m * k * n)


def transpose(a) -> Tensor:
    a = _wrap(a)
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.data.shape}")
    # a copy, not a view: OpenBLAS may sum a transposed operand in another order
    return _emit(a.data.T.copy(), (a,), lambda g: [g.T], "transpose", a.size)


def leaky_relu(x, slope: float = 0.01) -> Tensor:
    """max(x, slope*x); the subgradient at 0 is the negative-side slope.

    Forward and backward use no ``np.where`` on the sign mask: on trained
    activations the signs are random, so a select mispredicts a branch per
    element, and costs several times the two arithmetic passes used here.
    They give ``np.where(x > 0, x, slope * x)`` and ``np.where(x > 0, g,
    g * slope)`` bit for bit, with ±0, ±inf, NaN and subnormals.  ``out > 0``
    holds exactly where ``x > 0`` does, so the backward keeps the output
    instead of a mask.
    """
    if not 0.0 < slope < 1.0:
        raise ValidationError(f"leaky_relu slope must lie in (0, 1), got {slope}")
    x = _wrap(x)
    out = np.multiply(x.data, slope)
    np.maximum(x.data, out, out=out)

    def backward(g):
        factor = np.maximum(out > 0.0, slope, dtype=g.dtype)
        return [np.multiply(g, factor, out=factor)]

    return _emit(out, (x,), backward, "leaky_relu", x.size)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Standardize each row over the last axis, then apply gain and bias."""
    if eps <= 0.0:
        raise ValidationError(f"layer_norm eps must be positive, got {eps}")
    x = _wrap(x)
    gain, bias = _wrap(gain, x), _wrap(bias, x)
    if not x.data.dtype == gain.data.dtype == bias.data.dtype:
        raise ValidationError(f"layer_norm needs gain and bias in x's dtype {x.data.dtype}, "
                              f"got {gain.data.dtype} / {bias.data.dtype}")
    # each step is one ufunc call of the plain formula, in its order, so the
    # bits are the formula's; results go into two buffers: y (saved for
    # backward) takes the centered rows', the output the squares'.  The
    # backward builds dx in dy's buffer plus one more
    mean = x.data.mean(axis=-1, keepdims=True)
    y = np.subtract(x.data, mean)
    out = np.multiply(y, y)
    var = out.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    np.multiply(y, inv, out=y)
    gd = gain.data
    np.multiply(gd, y, out=out)
    np.add(out, bias.data, out=out)

    def backward(g):
        dx = np.multiply(g, gd)
        dmean = dx.mean(axis=-1, keepdims=True)
        tmp = np.multiply(dx, y)
        dyy = tmp.mean(axis=-1, keepdims=True)
        np.subtract(dx, dmean, out=dx)
        np.multiply(y, dyy, out=tmp)
        np.subtract(dx, tmp, out=dx)
        np.multiply(dx, inv, out=dx)
        axes = tuple(range(g.ndim - 1))
        dgain = np.multiply(g, y, out=tmp).sum(axis=axes)
        dbias = g.sum(axis=axes)
        return [dx, dgain, dbias]

    return _emit(out, (x, gain, bias), backward, "layer_norm", 8 * x.size)


def softmax(x, axis: int = -1) -> Tensor:
    """Stable softmax along one axis; outputs are positive and sum to 1."""
    x = _wrap(x)
    if not -x.data.ndim <= axis < x.data.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {x.data.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return [y * (g - dot)]

    return _emit(y, (x,), backward, "softmax", 5 * x.size)


# ---------------------------------------------------------------------------
# gather / scatter / layout

def _scatter_rows(rows: Array, ids: Array, n: int) -> Array:
    """``out[ids[i]] += rows[i]`` into ``n`` zero rows, adding in input order.

    Each output row is summed in float64 from 0.0, one input row after
    another in input order: the same additions as the unbuffered
    ``ufunc.at`` scatter and as ``np.bincount``, so all three agree bit for
    bit.  The rows are visited in layers, the k-th row of every segment in
    layer k, with the segments ordered fullest first so that each layer adds
    into a leading block of the accumulator; no [E x d] index array forms.
    """
    counts = np.bincount(ids, minlength=n)
    segs = np.argsort(-counts, kind="stable")
    col = np.empty(n, dtype=np.int64)
    col[segs] = np.arange(n)
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    rank = np.arange(ids.size) - (np.cumsum(counts) - counts)[sorted_ids]
    widths = np.bincount(rank)  # widths[k]: segments with more than k rows
    table = np.empty((widths.size, n), dtype=np.int64)
    table[rank, col[sorted_ids]] = order
    acc = np.zeros((n, rows.shape[1]))
    for k, width in enumerate(widths):
        acc[:width] += rows[table[k, :width]]
    out = np.empty(acc.shape, dtype=rows.dtype)
    out[segs] = acc
    return out


def segment_sum(values, segment_ids: Array, n_segments: int) -> Tensor:
    """Sum value rows into ``n_segments`` buckets; empty buckets stay zero.

    Contributions are accumulated in ascending input-row order, which makes
    results reproducible bit for bit across runs.
    """
    values = _wrap(values)
    ids = np.asarray(segment_ids, dtype=np.int64)
    if values.data.ndim != 2 or ids.shape != (values.data.shape[0],):
        raise ShapeError(
            f"segment_sum expects [E x d] values and E ids, got {values.data.shape} / {ids.shape}"
        )
    if ids.size and (ids.min() < 0 or ids.max() >= n_segments):
        raise ValidationError(
            f"segment id out of range: ids span [{ids.min()}, {ids.max()}], n_segments={n_segments}"
        )
    out = _scatter_rows(values.data, ids, n_segments)

    def backward(g):
        return [np.take(g, ids, axis=0)]

    return _emit(out, (values,), backward, "segment_sum", values.size)


def gather_rows(x, index: Array) -> Tensor:
    """Row lookup x[index]; the backward pass scatter-adds into the source."""
    x = _wrap(x)
    idx = np.asarray(index, dtype=np.int64)
    if x.data.ndim != 2:
        raise ShapeError(f"gather_rows expects a matrix, got shape {x.data.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[0]):
        raise ValidationError(f"gather index out of range for {x.data.shape[0]} rows")
    out = np.take(x.data, idx, axis=0)
    n = x.data.shape[0]

    def backward(g):
        return [_scatter_rows(g, idx, n)]

    return _emit(out, (x,), backward, "gather_rows", out.size)


def slice_rows(x, start: int, stop: int) -> Tensor:
    x = _wrap(x)
    out = x.data[start:stop]
    shape = x.data.shape

    def backward(g):
        gx = np.zeros(shape, dtype=g.dtype)
        gx[start:stop] = g
        return [gx]

    return _emit(out, (x,), backward, "slice_rows", out.size)


def concat(tensors: Iterable, axis: int = 0) -> Tensor:
    """Join along ``axis``; a plain array takes the first tensor's dtype."""
    tensors = list(tensors)
    like = next((t for t in tensors if isinstance(t, Tensor)), None)
    parts = [_wrap(t, like) for t in tensors]
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return np.split(g, splits, axis=axis)

    return _emit(out, tuple(parts), backward, "concat", out.size)


def reshape(x, shape: tuple[int, ...]) -> Tensor:
    x = _wrap(x)
    out = x.data.reshape(shape)
    in_shape = x.data.shape

    def backward(g):
        return [g.reshape(in_shape)]

    return _emit(out, (x,), backward, "reshape", x.size)


# ---------------------------------------------------------------------------
# reductions

def sum_all(x) -> Tensor:
    x = _wrap(x)
    shape = x.data.shape

    def backward(g):
        return [np.broadcast_to(g, shape)]

    return _emit(np.array(x.data.sum()), (x,), backward, "sum_all", x.size)


def sum_axis(x, axis: int) -> Tensor:
    x = _wrap(x)
    out = x.data.sum(axis=axis)
    shape = x.data.shape

    def backward(g):
        return [np.broadcast_to(np.expand_dims(g, axis), shape)]

    return _emit(out, (x,), backward, "sum_axis", x.size)


# ---------------------------------------------------------------------------
# verification

def grad_check(f: Callable, inputs: Sequence[Tensor], step: float = 1e-5) -> float:
    """Worst relative error between reverse-mode and central-difference grads.

    ``f`` must be a pure scalar-valued function of its tensor arguments.  The
    relative error for a coordinate is |ad - fd| / max(1, |ad|, |fd|), so
    near-zero gradients are compared absolutely.
    """
    if not 1e-7 <= step <= 1e-3:
        raise ValidationError(f"finite-difference step {step} outside [1e-7, 1e-3]")
    inputs = [ _wrap(t) for t in inputs ]
    probes = [Tensor(t.data.copy()) for t in inputs]
    with Tape() as tape:
        out = f(*probes)
        if out.data.size != 1:
            raise ShapeError("grad_check target must be scalar-valued")
        if not np.isfinite(out.data).all():
            raise NumericError("grad_check: non-finite function value")
        analytic = tape.gradients(out, probes)

    def evaluate(args: list[Array]) -> float:
        val = f(*[Tensor(a) for a in args]).data
        if not np.isfinite(val).all():
            raise NumericError("grad_check: non-finite function value during probing")
        return val.item()

    worst = 0.0
    base = [t.data.copy() for t in inputs]
    for k, grad in enumerate(analytic):
        flat = base[k].reshape(-1)
        gflat = grad.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            f_plus = evaluate(base)
            flat[j] = orig - step
            f_minus = evaluate(base)
            flat[j] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            err = abs(gflat[j] - numeric) / max(1.0, abs(gflat[j]), abs(numeric))
            if err > worst:
                worst = err
    return worst
