"""Property-based bit-identity check for the vectorized curve kernels.

DESIGN.md §7's contract: :class:`PackedCurves` reproduces the scalar
:class:`PiecewiseLinearCurve` evaluator's float operation order exactly,
so batch results are **bitwise** equal to per-curve calls — on any knot
set the profiler could produce, at any query point, under both cache
modes (a real :class:`PerfContext` and the ``ctx=None`` bare path).
Hypothesis drives randomized curve families, process counts, and
condition values through both kernels and compares with ``==`` on the
raw floats (no approx): one ULP of divergence is a failure.
"""

from __future__ import annotations

import math
import struct

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.apps.curves import PiecewiseLinearCurve
from repro.perfmodel.context import PerfContext
from repro.perfmodel.curves_vec import PackedCurves

# Knot coordinates shaped like profiled IPC-LLC / BW-LLC curves: modest
# magnitudes, including negative y plateaus and exact integers (way
# counts), but no inf/nan — the profiler never emits those.
_coord = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False, width=64)


@st.composite
def _curves(draw, max_curves=5, max_knots=8):
    """A family of 1..max_curves curves with strictly increasing x."""
    family = []
    for _ in range(draw(st.integers(1, max_curves))):
        xs = sorted(draw(st.sets(_coord, min_size=1, max_size=max_knots)))
        ys = [draw(_coord) for _ in xs]
        family.append(PiecewiseLinearCurve(tuple(zip(xs, ys))))
    return family


def _bits(value: float) -> int:
    return struct.unpack("<q", struct.pack("<d", value))[0]


def _assert_bitwise(batch: np.ndarray, scalar_vals) -> None:
    for got, want in zip(batch.tolist(), scalar_vals):
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert _bits(got) == _bits(want), (got, want)


@st.composite
def _queries(draw, family, max_queries=12):
    """(idx, x) query vectors over the family, biased toward the edge
    cases: exact knots (conditions landing on sampled way counts),
    points just outside the sampled range, and interior procs-like
    values."""
    n = draw(st.integers(1, max_queries))
    idx = [draw(st.integers(0, len(family) - 1)) for _ in range(n)]
    xs = []
    for i in idx:
        pts = family[i].points
        pool = [x for x, _ in pts]
        pool += [pts[0][0] - 1.5, pts[-1][0] + 2.25,
                 (pts[0][0] + pts[-1][0]) / 2.0]
        xs.append(draw(st.one_of(st.sampled_from(pool), _coord)))
    return np.array(idx, dtype=np.int64), np.array(xs, dtype=np.float64)


@given(data=st.data(), caches=st.booleans())
@settings(max_examples=200, deadline=None)
def test_eval_bitwise_equals_scalar(data, caches):
    family = data.draw(_curves())
    idx, x = data.draw(_queries(family))
    packed = PackedCurves(family)
    ctx = PerfContext(enabled=caches) if data.draw(st.booleans()) else None
    got = packed.eval(idx, x, ctx)
    _assert_bitwise(got, [family[i](float(q))
                          for i, q in zip(idx.tolist(), x.tolist())])


@given(data=st.data(), caches=st.booleans())
@settings(max_examples=200, deadline=None)
def test_min_x_reaching_bitwise_equals_scalar(data, caches):
    family = data.draw(_curves())
    idx, target = data.draw(_queries(family))
    # Also aim targets at exact knot y values (the first-crossing walk's
    # tie cases) by reusing each curve's own ys half the time.
    if data.draw(st.booleans()):
        target = np.array(
            [family[i].points[data.draw(st.integers(0, len(family[i].points) - 1))][1]
             for i in idx.tolist()],
            dtype=np.float64,
        )
    packed = PackedCurves(family)
    ctx = PerfContext(enabled=caches) if data.draw(st.booleans()) else None
    got = packed.min_x_reaching(idx, target, ctx)
    _assert_bitwise(got, [family[i].min_x_reaching(float(t))
                          for i, t in zip(idx.tolist(), target.tolist())])


def test_min_x_reaching_keeps_signed_zero_knot():
    """Inverting onto a ``-0.0`` knot: the interpolation lands on
    ``0.0`` and the scalar clamp ``min(-0.0, 0.0)`` keeps the knot's
    ``-0.0``; the batch clamp must pick the same zero."""
    curve = PiecewiseLinearCurve(((-1.0, 0.0), (-0.0, 1.0), (1.0, 2.0)))
    got = PackedCurves([curve]).min_x_reaching(
        np.array([0]), np.array([1.0]))
    _assert_bitwise(got, [curve.min_x_reaching(1.0)])


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_vec_counter_accounting(data):
    """With a live context the kernels count one evaluation per query;
    with ctx=None they must not touch any context state."""
    family = data.draw(_curves(max_curves=3, max_knots=5))
    idx, x = data.draw(_queries(family, max_queries=6))
    packed = PackedCurves(family)
    ctx = PerfContext(enabled=True)
    packed.eval(idx, x, ctx)
    packed.min_x_reaching(idx, x, ctx)
    assert ctx.counters["vec_curve_evals"] == 2 * len(idx)
