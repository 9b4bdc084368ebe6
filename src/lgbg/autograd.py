"""Reverse-mode automatic differentiation over dense float64 arrays.

A `Tape` records one backward closure per primitive operation, in execution
order; `Tape.backward` replays them in exact reverse order, accumulating
adjoints additively (a value consumed n times receives the sum of n
contributions). Every op is made by `custom`, which records its backward
only when a tape is active and an input requires a gradient; otherwise the
op computes its value only, which is what evaluation paths use. Every op
output is checked for NaN and Inf when its `Tensor` is built.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, NumericError, ValidationError

_ACTIVE: list["Tape"] = []


def active_tape() -> "Tape | None":
    return _ACTIVE[-1] if _ACTIVE else None


class Tape:
    """Ordered record of primitive operations for one backward pass."""

    def __init__(self):
        self._ops: list[Callable[[], None]] = []

    def __enter__(self) -> "Tape":
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _ACTIVE.pop()
        return False

    def __len__(self) -> int:
        return len(self._ops)

    def record(self, op: Callable[[], None]) -> None:
        """Append a backward closure; exposed for test hooks."""
        self._ops.append(op)

    def backward(self, loss: "Tensor") -> None:
        """Seed d(loss)/d(loss) = 1 and replay recorded ops in reverse."""
        if loss.data.size != 1:
            raise DimensionError("backward requires a scalar loss")
        if loss.grad is None:
            raise ValidationError("loss does not require grad; nothing to do")
        loss.grad[...] = 1.0
        for op in reversed(self._ops):
            op()


class Tensor:
    """Dense row-major float64 value, optionally carrying a gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        # One reduction: any NaN/Inf in arr leaves the sum non-finite.
        if not np.isfinite(arr.sum()):
            raise NumericError("tensor holds non-finite values")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(arr) if requires_grad else None

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    scale = np.sqrt(2.0 / (rows + cols))
    return rng.standard_normal((rows, cols)) * scale


class Parameters:
    """A set of trainable tensors, each named where it is made: `by_name`
    maps each one's checkpoint name to it, in the order they were made."""

    def __init__(self):
        self.by_name: dict[str, Tensor] = {}

    def make(self, name: str, data) -> Tensor:
        self.by_name[name] = t = parameter(data)
        return t


def custom(data, inputs: Sequence[Tensor],
           backward: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap the value of an op; every op in lgbg is made here.

    The op is recorded only when a tape is active and one of `inputs`
    requires a gradient. Then `backward(grad)` is recorded and receives the
    output's gradient; it must accumulate into the `grad` of each input
    that requires one.
    """
    tape = active_tape()
    record = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=record)
    if record:
        tape.record(lambda: backward(out.grad))
    return out


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add shapes differ: {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        if a.requires_grad:
            a.grad += g
        if b.requires_grad:
            b.grad += g
    return custom(a.data + b.data, (a, b), bwd)


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product; `b` may be a python scalar."""
    if isinstance(b, (int, float)):
        def bwd(g):
            a.grad += b * g
        return custom(a.data * b, (a,), bwd)
    if a.data.shape != b.data.shape:
        raise DimensionError(f"mul shapes differ: {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        if a.requires_grad:
            a.grad += b.data * g
        if b.requires_grad:
            b.grad += a.data * g
    return custom(a.data * b.data, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    def bwd(g):
        a.grad -= g
    return custom(-a.data, (a,), bwd)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix-vector product `a @ b`."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 1 or ad.shape[1] != bd.shape[0]:
        raise DimensionError(f"matmul expects a matrix and a vector of its width, "
                             f"got {ad.shape} vs {bd.shape}")

    def bwd(g):
        if a.requires_grad:
            a.grad += np.outer(g, bd)
        if b.requires_grad:
            b.grad += ad.T @ g
    return custom(ad @ bd, (a, b), bwd)


def matmul_t(a: Tensor, b: Tensor) -> Tensor:
    """`a @ b.T` fused, so (d_out, d_in) weight matrices apply to row-major
    state matrices without materializing transposes."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[1]:
        raise DimensionError(f"matmul_t shapes differ: {ad.shape} vs {bd.shape}")

    def bwd(g):
        if a.requires_grad:
            a.grad += g @ bd
        if b.requires_grad:
            b.grad += g.T @ ad
    return custom(ad @ bd.T, (a, b), bwd)


# ---------------------------------------------------------------------------
# shape ops


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join tensors along `axis`; one tensor is returned as it is."""
    if not parts:
        raise DimensionError("concat of zero tensors")
    if len(parts) == 1:
        return parts[0]

    def bwd(g):
        offsets = np.cumsum([0] + [p.data.shape[axis] for p in parts])
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                idx = [slice(None)] * p.data.ndim
                idx[axis] = slice(lo, hi)
                p.grad += g[tuple(idx)]
    return custom(np.concatenate([p.data for p in parts], axis=axis), parts, bwd)


def stack_rows(vectors: Sequence[Tensor]) -> Tensor:
    """Stack 1-D tensors of equal length into a matrix, one per row."""
    if not vectors:
        raise DimensionError("stack_rows of zero tensors")

    def bwd(g):
        for i, v in enumerate(vectors):
            if v.requires_grad:
                v.grad += g[i]
    return custom(np.stack([v.data for v in vectors]), vectors, bwd)


def scatter_rows(values: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """Sum of the rows of `values` into `n` rows, row i into row idx[i].

    Rows are added in their order, so a row's sum does not depend on the
    rows that go elsewhere. One `bincount` over flat indices does this far
    faster than `np.add.at` on a matrix.
    """
    width = values.shape[1]
    flat = (idx[:, None] * width + np.arange(width)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=n * width).reshape(n, width)


def gather_rows(x: Tensor, idx) -> Tensor:
    idx = np.asarray(idx, dtype=np.intp)

    def bwd(g):
        x.grad += scatter_rows(g, idx, x.data.shape[0])
    return custom(x.data[idx], (x,), bwd)


def cols(x: Tensor, start: int, stop: int) -> Tensor:
    """Columns start..stop-1 of a matrix."""
    if x.data.ndim != 2:
        raise DimensionError("cols expects a matrix")

    def bwd(g):
        x.grad[:, start:stop] += g
    return custom(x.data[:, start:stop], (x,), bwd)


def pick(x: Tensor, index) -> Tensor:
    """x[index] for an integer index (one element of a vector) or a tuple of
    integer arrays (elements of a matrix, as numpy indexes them)."""
    def bwd(g):
        np.add.at(x.grad, index, g)
    return custom(x.data[index], (x,), bwd)


# ---------------------------------------------------------------------------
# reductions


def mean(x: Tensor) -> Tensor:
    n = x.data.size

    def bwd(g):
        x.grad += g / n
    return custom(x.data.mean(), (x,), bwd)


def col_mean(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise DimensionError("col_mean expects a matrix")
    n = x.data.shape[0]

    def bwd(g):
        x.grad += g[None, :] / n
    return custom(x.data.mean(axis=0), (x,), bwd)


def row_dot(a: Tensor, b: Tensor) -> Tensor:
    """Dot product of each row of `a` with the same row of `b`."""
    if a.data.ndim != 2 or a.data.shape != b.data.shape:
        raise DimensionError(f"row_dot shapes differ: {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        g = g[:, None]
        if a.requires_grad:
            a.grad += g * b.data
        if b.requires_grad:
            b.grad += g * a.data
    return custom(np.einsum("ij,ij->i", a.data, b.data), (a, b), bwd)


def segment_sum(x: Tensor, segment, n: int, weights=None, rows=None) -> Tensor:
    """Per-segment sums of matrix rows: out[k] is the sum of
    weights[i] * x[rows[i]] over the i with segment[i] == k, for k in 0..n-1.

    `rows` defaults to every row of `x` in order, and `weights` to ones; a
    constant array or a Tensor. With `rows`, gather and sum are one op, so
    backward keeps no per-member copy of `x`. An empty segment sums to 0.
    """
    segment = np.asarray(segment, dtype=np.intp)
    if rows is not None:
        rows = np.asarray(rows, dtype=np.intp)
    picked = x.data if rows is None else x.data[rows]
    if picked.ndim != 2 or picked.shape[0] != segment.shape[0]:
        raise DimensionError(f"segment_sum needs one segment id per row, got "
                             f"{segment.shape[0]} for shape {picked.shape}")
    w = weights.data if isinstance(weights, Tensor) else weights
    terms = picked if w is None else picked * w[:, None]
    inputs = (x, weights) if isinstance(weights, Tensor) else (x,)

    def bwd(g):
        g = g[segment]
        if x.requires_grad:
            gx = g if w is None else g * w[:, None]
            x.grad += gx if rows is None else scatter_rows(gx, rows, x.data.shape[0])
        if isinstance(weights, Tensor) and weights.requires_grad:
            weights.grad += np.einsum("ij,ij->i", g, picked)
    return custom(scatter_rows(terms, segment, n), inputs, bwd)


def segment_softmax(z: Tensor, segment, n: int) -> Tensor:
    """Stable softmax of a vector within each segment (GAT's neighbourhood
    softmax); each non-empty segment sums to 1."""
    segment = np.asarray(segment, dtype=np.intp)
    if z.data.ndim != 1 or z.data.shape != segment.shape:
        raise DimensionError("segment_softmax expects one segment id per vector entry")
    top = np.full(n, -np.inf)
    np.maximum.at(top, segment, z.data)
    e = np.exp(z.data - top[segment])
    s = e / np.bincount(segment, weights=e, minlength=n)[segment]

    def bwd(g):
        dot = np.bincount(segment, weights=s * g, minlength=n)
        z.grad += s * (g - dot[segment])
    return custom(s, (z,), bwd)


def sub_rowvec(x: Tensor, v: Tensor) -> Tensor:
    """Subtract a row vector from every row of a matrix."""
    if x.data.ndim != 2 or v.data.ndim != 1 or x.data.shape[1] != v.data.shape[0]:
        raise DimensionError(f"sub_rowvec shapes differ: {x.data.shape} vs {v.data.shape}")

    def bwd(g):
        if x.requires_grad:
            x.grad += g
        if v.requires_grad:
            v.grad -= g.sum(axis=0)
    return custom(x.data - v.data[None, :], (x, v), bwd)


# ---------------------------------------------------------------------------
# nonlinearities


def sigmoid(x: Tensor) -> Tensor:
    # Split by sign to stay overflow-free on large |x|.
    d = x.data
    y = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))),
                 np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))

    def bwd(g):
        x.grad += y * (1.0 - y) * g
    return custom(y, (x,), bwd)


def log(x: Tensor) -> Tensor:
    if np.any(x.data <= 0):
        raise NumericError("log of non-positive value")

    def bwd(g):
        x.grad += g / x.data
    return custom(np.log(x.data), (x,), bwd)


def clamp_min(x: Tensor, floor: float) -> Tensor:
    """max(x, floor); gradient is zero in the clamped region."""
    mask = x.data > floor

    def bwd(g):
        x.grad += mask * g
    return custom(np.where(mask, x.data, floor), (x,), bwd)


def softmax(z: Tensor) -> Tensor:
    """Stable softmax over a vector; sums to 1 within 1e-12."""
    if z.data.ndim != 1 or z.data.shape[0] < 1:
        raise DimensionError("softmax expects a non-empty vector")
    shifted = z.data - z.data.max()
    e = np.exp(shifted)
    s = e / e.sum()

    def bwd(g):
        z.grad += s * (g - np.dot(s, g))
    return custom(s, (z,), bwd)


def softmax_rows(z: Tensor) -> Tensor:
    """Row-wise stable softmax of a matrix."""
    if z.data.ndim != 2 or z.data.shape[1] < 1:
        raise DimensionError("softmax_rows expects a matrix with non-empty rows")
    shifted = z.data - z.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def bwd(g):
        z.grad += s * (g - (s * g).sum(axis=1, keepdims=True))
    return custom(s, (z,), bwd)


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Bias-corrected adaptive moment optimizer; updates params in place.

    Its state is allocated once: four flat rows over every parameter, for
    the moments `m` and `v` (`self.m[i]` and `self.v[i]` are parameter i's
    views of them), the gathered gradient and one scratch row. A step is a
    few whole-row operations, in the same order as the textbook
    `p -= lr * (m / c1) / (sqrt(v / c2) + eps)`, so every parameter gets the
    same bits as updating it alone.
    """

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        for p in params:
            if not p.requires_grad:
                raise ValidationError("Adam received a tensor without a gradient buffer")
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        offsets = np.cumsum([0] + [p.data.size for p in self.params]).tolist()
        self._slices = [(slice(a, b), p.data.shape)
                        for a, b, p in zip(offsets, offsets[1:], self.params)]
        self._rows = np.zeros((4, offsets[-1]))
        self.m = [self._rows[0, s].reshape(shape) for s, shape in self._slices]
        self.v = [self._rows[1, s].reshape(shape) for s, shape in self._slices]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        m, v, g, scratch = self._rows
        for p, (s, shape) in zip(self.params, self._slices):
            if p.grad.shape != shape:
                raise DimensionError("gradient/parameter shape mismatch")
            g[s] = p.grad.reshape(-1)
        self.step_count += 1
        t = self.step_count
        np.multiply(1.0 - self.beta1, g, out=scratch)
        m *= self.beta1
        m += scratch
        g *= g
        g *= 1.0 - self.beta2
        v *= self.beta2
        v += g
        m_hat = np.divide(m, 1.0 - self.beta1 ** t, out=scratch)
        v_hat = np.divide(v, 1.0 - self.beta2 ** t, out=g)
        m_hat *= self.lr
        np.sqrt(v_hat, out=v_hat)
        v_hat += self.eps
        m_hat /= v_hat
        for p, (s, shape) in zip(self.params, self._slices):
            p.data -= m_hat[s].reshape(shape)


# ---------------------------------------------------------------------------
# gradient checking


def finite_diff_errors(f: Callable[[], Tensor], params: Sequence[Tensor],
                       eps: float = 1e-5, coords_per_param: int | None = None,
                       seed: int = 0) -> list[float]:
    """Per-parameter max relative error |analytic - central| / max(1, |central|)
    of the gradient of the scalar loss `f()`, in `params` order."""
    if not (1e-7 <= eps <= 1e-3):
        raise ValidationError(f"eps {eps} outside [1e-7, 1e-3]")
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = f()
    if not np.isfinite(loss.data).all():
        raise NumericError("loss is not finite")
    tape.backward(loss)
    analytic = [p.grad.copy() for p in params]

    rng = np.random.default_rng(seed)
    out = []
    for p, grad in zip(params, analytic):
        n = p.data.size
        if coords_per_param is None or n <= coords_per_param:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=coords_per_param, replace=False)
            coords.sort()
        flat = p.data.reshape(-1)
        worst = 0.0
        for c in coords:
            keep = flat[c]
            flat[c] = keep + eps
            up = f().item()
            flat[c] = keep - eps
            down = f().item()
            flat[c] = keep
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NumericError("perturbed loss is not finite")
            central = (up - down) / (2.0 * eps)
            err = abs(grad.reshape(-1)[c] - central) / max(1.0, abs(central))
            worst = max(worst, err)
        out.append(worst)
    return out
