"""Core types and operators of the finite-horizon mean field commute game.

A population of homogeneous commuters picks one of M travel options each day
over an N-day horizon.  The population split on one day is a probability
vector over options (the mean field); a policy is a row-stochastic M x M
matrix whose row ``s`` is the switching distribution of commuters currently
on option ``s``.  Whole-horizon objects are stacked arrays:

    mean field sequence   (N, M)      one distribution per day
    policy sequence       (N, M, M)   one policy per day
    value sequence        (N + 1, M)  expected costs-to-go, terminal row 0

The stage cost of moving from option ``s`` to ``x`` against mean field ``mu``
is ``f(s, mu) + d(s, x) + (1/theta) * ln pi(x|s)``: congestion-dependent
travel cost, switching inertia, and an entropy penalty equivalent to Gumbel
noise on perceived values.  All operators here are pure functions: none
mutates its arguments, so inputs can be shared freely across threads.  Some
build their results in place, in fresh arrays they own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Callable

import numpy as np

__all__ = [
    "DIST_TOL",
    "RENORM_TOL",
    "KERNEL_LIMIT",
    "InvalidInputError",
    "KernelLimitError",
    "NumericError",
    "SolverFailure",
    "CostModel",
    "check_stochastic",
    "uniform_distribution",
    "uniform_policy_seq",
    "dist_distance",
    "bellman_apply",
    "backward_induction",
    "forward_step",
    "forward_propagate",
    "policy_evaluate",
]

# Tolerance for "is a probability vector": entries >= 0, sum within 1e-12 of 1.
DIST_TOL = 1e-12
# Mass drift absorbed silently by forward_step; anything larger is an error.
RENORM_TOL = 1e-10
# Largest theta * max d(s, x) a cost model accepts: below it every entry of
# the Gibbs kernel exp(-theta d) is a normal float (exp(-708) is the least).
KERNEL_LIMIT = 700.0
# ln of the largest float (709.78), which sets the sweep's rescale stride.
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class KernelLimitError(InvalidInputError):
    """theta times the largest switching cost exceeds KERNEL_LIMIT."""


class NumericError(ArithmeticError):
    """A computation left the representable/expected numeric range."""


class SolverFailure(RuntimeError):
    """An iterative solver hit its cap before reaching tolerance."""

    def __init__(self, message, residual=None, payload=None):
        super().__init__(message)
        self.residual = residual
        self.payload = payload


# ---------------------------------------------------------------------------
# validation


def check_stochastic(x, name: str, shape: tuple) -> np.ndarray:
    """Validate and return an array whose rows along the last axis are distributions.

    ``shape`` gives the expected length of every axis, ``None`` where any
    length is accepted: ``(M,)`` for one day's split, ``(N, M)`` for a mean
    field sequence, ``(M, M)`` for a policy, ``(N, M, M)`` for a policy
    sequence.  Entries must be finite and non-negative, and every row must
    sum to 1 within DIST_TOL.  Entries are numbers by ``_number``'s rule.  An
    array with no entries, such as a sequence of no days, is rejected.
    """
    arr = _numbers(x, name)
    if arr.size == 0:
        raise InvalidInputError(f"{name} has no entries")
    if arr.shape != shape and (
        arr.ndim != len(shape)
        or any(want not in (None, got) for want, got in zip(shape, arr.shape))
    ):
        raise InvalidInputError(f"{name} must have shape {shape}, got {arr.shape}")
    if (arr < 0.0).any():
        raise InvalidInputError(f"{name} has negative entries")
    if not (np.abs(arr.sum(axis=-1) - 1.0) <= DIST_TOL).all():
        raise InvalidInputError(f"{name} has rows that do not sum to 1")
    return arr


def _number(value, name: str, kind=float):
    """``kind(value)`` of a finite real number, else InvalidInputError naming ``name``.

    The package's one number rule.  Not a number: a bool, a string, None, an
    array.  Not finite: nan, +-inf and an int beyond the float range.  An int
    field takes integral values only, so 40.0 reads as 40.  Range checks come
    after this one, since an order comparison lets an infinity or a nan by.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, Real):
        raise InvalidInputError(f"{name} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise InvalidInputError(f"{name} must be finite, got {value!r}")
    if kind is int and value != int(value):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    return kind(value)


def _numbers(values, name: str) -> np.ndarray:
    # _number entry by entry, as a float array: an ndarray of a real dtype in
    # one check, anything else entry by entry, since numpy reads True as 1.
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        finite = np.isfinite(values)
        if not finite.all():
            raise InvalidInputError(f"{name} must be finite, got {values[~finite][0].item()!r}")
        return values.astype(float, copy=False)
    entries = np.array(values, dtype=object)
    return np.array([_number(v, name) for v in entries.flat]).reshape(entries.shape)


def uniform_distribution(m: int) -> np.ndarray:
    return np.full(m, 1.0 / m)


def uniform_policy_seq(n: int, m: int) -> np.ndarray:
    return np.full((n, m, m), 1.0 / m)


# ---------------------------------------------------------------------------
# cost model


@dataclass
class CostModel:
    """Scenario interface consumed by every solver.

    ``cost(mu)`` maps a mean field of shape (..., M) to the daily travel cost
    f(s, mu) of every option, shape (..., M): one call prices a single day or
    a whole (N, M) horizon, and each row of a batched call must equal the
    call on that row alone.  ``inertia_matrix`` holds the switching cost
    d(s, x) between consecutive days; it fixes M.  ``theta`` is the inverse
    noise scale of the entropy penalty, and theta * max d may not exceed
    KERNEL_LIMIT.  ``bound_C`` must dominate both cost components over all
    admissible inputs.  ``cost`` must be deterministic.  ``kernel`` is
    derived, not set: the Gibbs kernel exp(-theta d) of the Bellman backup.
    So is ``kernel_row``: the kernel's one row when all its rows are equal
    bit for bit (separable inertia, d(s, x) = b(x), as at epsilon = 0), else
    None.  Given it, the backward sweep and the push run all days in one
    broadcast each, with no day loop (``_backward_induction_core``): one
    fictitious-play iteration on route_e0t1 takes 69 us against 159 us.
    Otherwise they loop over the days in scaling form, one mat-vec a day,
    with the headroom theta * max d that the limit bounds.
    """

    cost: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    inertia_matrix: np.ndarray
    theta: float
    bound_C: float
    kernel: np.ndarray = field(init=False, repr=False)
    kernel_row: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        d = _numbers(self.inertia_matrix, "inertia_matrix")
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise InvalidInputError(f"inertia matrix must be square, got shape {d.shape}")
        if d.shape[0] < 1:
            raise InvalidInputError("cost model needs at least one state")
        self.theta = theta = _number(self.theta, "theta")
        if theta <= 0.0:
            raise InvalidInputError("theta must be positive")
        self.bound_C = _number(self.bound_C, "bound_C")
        if self.bound_C < 0.0:
            raise InvalidInputError("bound_C must be non-negative")
        if np.any(d < 0.0) or np.any(d > self.bound_C):
            raise InvalidInputError("inertia values must lie in [0, bound_C]")
        d_max = float(d.max())
        if theta * d_max > KERNEL_LIMIT:
            raise KernelLimitError(
                f"theta * max inertia = {theta!r} * {d_max!r} = {theta * d_max!r}"
                f" exceeds the kernel limit {KERNEL_LIMIT:g}"
            )
        self.inertia_matrix = d
        self.kernel = kernel = np.exp(-self.theta * d)
        self.kernel_row = kernel[0] if (kernel == kernel[0]).all() else None

    @property
    def M(self) -> int:
        """Number of travel options."""
        return self.inertia_matrix.shape[0]


# ---------------------------------------------------------------------------
# metrics


def dist_distance(a, b) -> float:
    """Sup distance max |a - b| over all entries of two arrays of equal shape.

    The one metric of the game: between two distributions, two mean field
    sequences or two policy sequences alike.  Entries are numbers by
    ``_number``'s rule; arrays with no entries are rejected.
    """
    a = _numbers(a, "first array")
    b = _numbers(b, "second array")
    if a.shape != b.shape:
        raise InvalidInputError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise InvalidInputError("dist_distance needs arrays with entries")
    return float(np.max(np.abs(a - b)))


# ---------------------------------------------------------------------------
# backward operators


def _soft_backup(kernel, v_next, theta):
    # One day's soft minimum -(1/theta) ln sum_x exp(-theta (d(s,x) + V(x)))
    # in kernel form: exp(-theta (d + V)) = kernel * u with u(x) =
    # exp(-theta (V(x) - c)) shifted by c = min V ((c - V) * theta is that
    # exponent to the bit).  Then z = kernel @ u >= exp(-theta max d), a
    # normal float while theta max d <= KERNEL_LIMIT, and a weight that u
    # rounds to 0 (exponent below -745) is less than e^-45 of z.  So z > 0
    # in every row, and the factors (u, z) may divide by z.  c is a Python
    # float: the same bits, without numpy-scalar arithmetic.
    c = float(v_next.min())
    u = np.exp((c - v_next) * theta)
    z = kernel.dot(u)
    return c - np.log(z) / theta, u, z


def bellman_apply(v_next, mu, cm: CostModel):
    """One optimal Bellman backup against mean field ``mu``.

    Returns ``(V, pi)`` where ``V(s) = f(s,mu) - (1/theta) ln sum_x
    exp(-theta (d(s,x) + v_next(x)))`` and row ``s`` of ``pi`` is proportional
    to ``exp(-theta (d(s,x) + v_next(x)))``.
    """
    v_next = _numbers(v_next, "value vector")
    if v_next.shape != (cm.M,):
        raise InvalidInputError(f"value vector must have shape ({cm.M},)")
    mu = check_stochastic(mu, "mean field", (cm.M,))
    soft, u, z = _soft_backup(cm.kernel, v_next, cm.theta)
    return cm.cost(mu) + soft, _softmax_policies(cm.kernel, u, z)


def _backward_induction_core(f_table, kernel, theta, row=None):
    # Day n's softmax policy is kept in factor form, pi_n = diag(1/z_n)
    # kernel diag(u_n), with max u_n = 1 as in _soft_backup; _softmax_policies
    # forms the tables and _forward_propagate_core pushes flows through the
    # factors without them.
    #
    # Given the kernel's common ``row`` k (CostModel.kernel_row), there is no
    # day loop.  Every z_n is one number, so V_n = f_n + g_n for a scalar g_n,
    # and u_n = exp(-theta (f_{n+1} - min f_{n+1})) for every day at once
    # (u_{N-1} = 1, from V_N = 0): the shift is min V_{n+1} - min f_{n+1} =
    # g_{n+1}, taken out of the exponent.  Then z_n = u_n . k, and g_n sums
    # min f_{m+1} - ln z_m / theta over m >= n, with min f_N = 0.  Each
    # stage is one call over all days: on a 2-core Xeon with numpy 2.4 and
    # BLAS on one thread, this sweep and the batched push take 24 us against
    # 138 us through the loops on route_e0t1 (M = 6, N = 30), and 29 against
    # 206 us on bottleneck_e0t20 (M = 40).  z comes back repeated to (N, M),
    # the loop's shape.  Equal to the loop up to rounding: the loop carries
    # each day's shift in a max, the branch in a sum of minima.
    n_days, m = f_table.shape
    f_min = f_table.min(axis=1)
    if row is not None:
        u = np.ones((n_days, m))
        np.exp((f_min[1:, None] - f_table[1:]) * theta, out=u[:-1])
        z = u.dot(row)
        g = np.log(z) / -theta
        g[:-1] += f_min[1:]
        g = np.cumsum(g[::-1])[::-1]
        values = np.zeros((n_days + 1, m))
        np.add(f_table, g[:, None], out=values[:-1])
        return values, u, np.repeat(z[:, None], m, axis=1)
    # Otherwise the days loop in scaling form, with no log or exp inside the
    # loop.  exp(-theta V_{n+1}) is proportional to w_{n+1} * z_{n+1}, with
    # w_{n+1} = exp(theta (min f_{n+1} - f_{n+1}) + H): u_n is that product
    # divided by s_{n+1}, and V_n = f_n - ln z_n / theta + h_n, where h_n sums
    # min f_m - (ln s_m - H) / theta over m > n.  The headroom H = -ln min
    # kernel = theta max d is required: z_{n+1} ranges over [e^-H, M] max
    # u_{n+1}, so without it a weight that exp rounds to 0 could come back
    # by a z ratio of up to e^H (at theta max d = 699 that moved policy
    # entries by 1).  With it the best option's product is e^H (K u)(b) >=
    # max u: max u never falls, so a weight lost to underflow is below
    # M e^-745 of the day's largest and below M e^-45 of z, the bound of
    # _soft_backup.  A day multiplies max u by at most M e^H, so s_m is the
    # product's max every ``stride`` days, the most that keep the products
    # below the float range from max u = 1 (the 1 off ln(float max) covers
    # their rounding), and 1 on the days between.  That is no day in 30 on
    # route_e1t1 (H = 1), every 11th day on bottleneck_e1t20 (H = 58.5,
    # M = 40) and every day near the kernel limit; the stride is at least 1,
    # so the products stay finite for M below about 17,000.  After the loop
    # the values take ln z; then one broadcast scales each day's u to max 1
    # and one matrix product forms z = K u from it, so the push, the fold and
    # _softmax_policies get the ranges and factors of a daily rescale (the
    # loop's z divided by the scale moved the pushed flows by about an ulp).
    # One exp before the loop and one log after it; a day is one mat-vec and
    # one product.
    head = -math.log(kernel.min())
    growth = head + math.log(m)
    stride = max(1, int((_LOG_FLOAT_MAX - 1.0) / growth)) if growth > 0.0 else n_days
    weights = np.exp((f_min[1:, None] - f_table[1:]) * theta + head)
    u = np.empty((n_days, m))
    z = np.empty((n_days, m))
    scale = np.ones(n_days)
    u[-1] = 1.0
    for n in range(n_days - 1, 0, -1):
        p = np.multiply(weights[n - 1], kernel.dot(u[n], out=z[n]), out=u[n - 1])
        if (n_days - n) % stride == 0:
            # The max over a list, as a Python float: faster than an array's.
            scale[n] = top = max(p.tolist())
            p /= top
    kernel.dot(u[0], out=z[0])
    h = np.zeros(n_days)
    h[:-1] = f_min[1:] - (np.log(scale[1:]) - head) / theta
    h = np.cumsum(h[::-1])[::-1]
    values = np.zeros((n_days + 1, m))
    np.log(z, out=values[:-1])
    values[:-1] /= -theta
    values[:-1] += f_table
    values[:-1] += h[:, None]
    u /= u.max(axis=1, keepdims=True)
    np.dot(u, kernel.T, out=z)
    return values, u, z


def _softmax_policies(kernel, u, z):
    # The package's one builder of softmax policy tables, pi(x|s) =
    # kernel(s, x) u(x) / z(s) from the factors of _soft_backup: one day's
    # (M,) factors give one (M, M) table, a sweep's (N, M) factors all N
    # tables in one broadcast, formed in place in one fresh array.
    out = kernel * u[..., None, :]
    out /= z[..., :, None]
    return out


def backward_induction(mu, cm: CostModel):
    """Optimal values and the unique optimal policy against ``mu``.

    Sweeps the Bellman backup from the zero terminal value down to day 0.
    Returns ``(values, policies)`` with shapes (N+1, M) and (N, M, M).
    """
    mu = check_stochastic(mu, "mean field sequence", (None, cm.M))
    values, u, z = _backward_induction_core(cm.cost(mu), cm.kernel, cm.theta, cm.kernel_row)
    return values, _softmax_policies(cm.kernel, u, z)


# ---------------------------------------------------------------------------
# forward operators


def _renormalize(pushed):
    # Absorb the rounding drift of one pushed day.  The exact sum runs over a
    # list: fsum iterates it faster than an array.
    total = math.fsum(pushed.tolist())
    if abs(total - 1.0) > RENORM_TOL:
        raise NumericError(
            f"mass drift {abs(total - 1.0):.3e} exceeds {RENORM_TOL:.0e}"
        )
    return pushed / total


def _forward_step_core(pi, mu):
    # Row-by-row accumulation: bit-identical to the naive double loop.
    return _renormalize((mu[:, None] * pi).sum(axis=0))


def forward_step(pi, mu) -> np.ndarray:
    """Push ``mu`` one day forward through policy ``pi``.

    out(s) = sum_{s'} mu(s') pi(s|s'), renormalized to absorb rounding
    drift (raises if the correction would exceed RENORM_TOL).
    """
    mu = check_stochastic(mu, "distribution", (None,))
    pi = check_stochastic(pi, "policy", (mu.size, mu.size))
    return _forward_step_core(pi, mu)


def _forward_propagate_core(kernel, u, z, mu0, row=None):
    # Flows of the softmax policies of a sweep with factors (u, z), pushed in
    # kernel form: mu_{n+1}(x) = u_n(x) sum_s (mu_n(s) / z_n(s)) kernel(s, x),
    # with no M x M table (the sweep keeps z >= e^(-theta max d)).  The loop
    # carries nu_n = mu_n / z_n, so a day is one vector-matrix product and
    # one product with u_n / z_{n+1}, formed for all days at once.  The push
    # keeps mass, so no day is renormalized inside the loop: after it, one
    # sum per day checks each day's mass against the day before, and one
    # division scales every day to 1.  Equal to forward_propagate of those
    # policies up to rounding.
    #
    # Given the kernel's common ``row`` k, every row of pi_n is u_n * k / z_n,
    # so mu_{n+1} is that row whatever mu_n is: all days in one broadcast,
    # with the drift check on each day's mass against z_n.
    n_days, m = u.shape
    out = np.empty((n_days, m))
    out[0] = mu0
    if row is not None:
        push = u[:-1] * row
        total = push.sum(axis=1)
        drift = np.abs(total / z[:-1, 0] - 1.0)
    else:
        ratio = u[:-1] / z[1:]
        nu = np.empty((n_days, m))
        np.divide(mu0, z[0], out=nu[0])
        for today, tomorrow, r in zip(nu, nu[1:], ratio):
            np.dot(today, kernel, out=tomorrow)
            tomorrow *= r
        push = np.multiply(nu[1:], z[1:], out=out[1:])
        total = out.sum(axis=1)
        drift = np.abs(total[1:] / total[:-1] - 1.0)
        total = total[1:]
    if (drift > RENORM_TOL).any():
        raise NumericError(f"mass drift {drift.max():.3e} exceeds {RENORM_TOL:.0e}")
    np.divide(push, total[:, None], out=out[1:])
    return out


def forward_propagate(pi, mu0) -> np.ndarray:
    """Mean field sequence induced by a policy sequence from ``mu0``.

    Day 0 is ``mu0`` itself; the day-(N-1) action selects a state outside
    the horizon, so it affects cost but not the returned sequence.
    """
    mu0 = check_stochastic(mu0, "initial distribution", (None,))
    pi = check_stochastic(pi, "policy sequence", (None, mu0.size, mu0.size))
    out = np.empty((len(pi), mu0.size))
    out[0] = mu0
    for n in range(len(pi) - 1):
        out[n + 1] = _forward_step_core(pi[n], out[n])
    return out


# ---------------------------------------------------------------------------
# policy evaluation


def _xlogx(x):
    # x ln x elementwise over a non-negative array, with 0 ln 0 = 0: the log
    # runs over the positive entries only.
    out = np.zeros(x.shape)
    np.log(x, out=out, where=x > 0.0)
    out *= x
    return out


def _policy_evaluate_core(pi, f_table, d, theta):
    # The entropy term does not depend on the values: one call for all days.
    n_days, m = f_table.shape
    values = np.zeros((n_days + 1, m))
    entropy = _xlogx(pi).sum(axis=2) / theta
    for n in range(n_days - 1, -1, -1):
        p = pi[n]
        stage = (p * (d + values[n + 1][None, :])).sum(axis=1)
        values[n] = f_table[n] + stage + entropy[n]
        if not np.all(np.isfinite(values[n])):
            raise NumericError(f"non-finite value at day {n}")
    return values


def policy_evaluate(pi, mu, cm: CostModel) -> np.ndarray:
    """Value of a fixed policy sequence against mean field sequence ``mu``.

    V_N = 0 and V_n(s) = sum_x pi_n(x|s) (f(s,mu_n) + d(s,x)
    + (1/theta) ln pi_n(x|s) + V_{n+1}(x)); zero-probability actions
    contribute nothing (p ln p -> 0).
    """
    mu = check_stochastic(mu, "mean field sequence", (None, cm.M))
    pi = check_stochastic(pi, "policy sequence", (len(mu), cm.M, cm.M))
    return _policy_evaluate_core(pi, cm.cost(mu), cm.inertia_matrix, cm.theta)
