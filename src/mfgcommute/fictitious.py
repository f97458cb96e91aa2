"""Fictitious play for the mean field equilibrium of the commute game.

Each iteration best-responds to the running average mean field, then folds
the induced flow into that average and the best response into an
occupancy-weighted average policy:

    avg_mf_n   <- ((j-1)/j) avg_mf_n + (1/j) mf_n
    avg_pol_n(a|s) = sum_i mf_n^i(s) pol_n^i(a|s) / sum_i mf_n^i(s)

Averaging flows and policies over the same set of iterates keeps the pair
consistent: the average policy induces exactly the average flow.  Progress
is measured by exploitability, the cost a single commuter could save by
best-responding to the averaged flow; it vanishes at an equilibrium.

The best response is pushed in kernel form.  Its day-n policy is a softmax,
pi_n = diag(1/z_n) K diag(u_n), with K = exp(-theta d) the cost model's
Gibbs kernel and (u_n, z_n) the factors the backward sweep already computes,
so the induced flow is mu_{n+1} = u_n * ((mu_n / z_n) K): one vector-matrix
product a day, the scaling form in which Sinkhorn's algorithm applies a
Gibbs plan without building it (Cuturi, NeurIPS 2013).  The sweep runs in
the same form (``core._backward_induction_core``): u_{n-1} is proportional
to diag(w_n) K u_n, with w_n = exp(-theta f_n) up to a factor.  Like
stabilized Sinkhorn scaling, it rescales its vector only where a bound says
the float range needs it (Schmitzer, SIAM J. Sci. Comput. 2019), and its exp
and log run once over all days.  The push keeps mass, so it renormalizes
once, after all days.

Both recurrences are linear, one matrix a day, so each runs in one of two
forms.  On a small kernel (M at most ``core._PREFIX_MAX_M`` = 8) they run
as prefix products of the day maps by recursive doubling (Blelloch, "Prefix
sums and their applications", 1990; Sarkka and Garcia-Fernandez, IEEE TAC
2021): ceil(log2(N - 1)) stacked matrix products, where the loop takes
N - 1 dependent steps that each cost numpy's per-call overhead at small M.  The sweep takes the products only
when its horizon needs no rescale (its stride is at least N - 1); the push
always may, as its partial products stay below M e^(theta max d).  Any
other model loops over the days, one mat-vec and one product a day: at
M = 10 the products already cost more than the loop, at M = 40 about seven
times as much.  So route_e1t1 (M = 6) takes the products and
bottleneck_e1t20 (M = 40) the loop; the ``solve_s`` of the benchmark's
route-cli and bottleneck-fp workloads measure them.  Both forms equal
``forward_propagate`` of the tables up to rounding: within 3.3e-16 on
route_e1t1 and 4.4e-16 on bottleneck_e1t20 over 100 iterations.

With separable inertia, d(s, x) = b(x) as at epsilon = 0, every row of K is
one row k (``CostModel.kernel_row``), so z_n is one number, V_n = f_n + g_n
for a scalar g_n, and the pushed flow u_n * k / z_n does not depend on mu_n.
The sweep and the push then need neither form: each of their stages is one
call over all N days (``core._backward_induction_core``), measured by the
route-fp workload's ``solve_s``, and the results equal the other forms' up
to rounding.

No policy table enters the occupancy sums num_n(s, x) = sum_i mf_n^i(s)
pol_n^i(x|s) and den_n(s) = sum_i mf_n^i(s) either.  With pol_n^i =
diag(1/z) K diag(u), num_n = K * A_n for A_n = sum_i (mf_n^i / z_n^i) u_n^i,
an outer product of two vectors a day, formed by one einsum into one buffer
and folded by one add: the einsum takes 34 us at M = 40, against 60 us as a
broadcast product, with the same bits.  The loop keeps occ = A min K, with
min K = e^-H and H = theta max d: mf / z is at most e^H, so A could grow
past the float range over a long run at the kernel limit, while occ stays
at most k.  The tables num = G * occ, with G = K / min K, are formed only at
a stop candidate.

Consistency also prices the average policy without a backward sweep.  With
k iterates folded, its cost from mu0 is

    sum avg_mf * f + sum num * d / k
        + (sum num ln num - sum den ln den) / (theta k).

Since ln num = ln occ + H - theta d, the inertia term cancels, and with
sum num = sum den that cost is

    sum avg_mf * f
        + (<G, sum_n occ_n ln occ_n> + H sum den - sum den ln den) / (theta k).

The entropy sums take 0 ln 0 = 0 by numpy's log over the positive entries
only (``core._xlogx``, the package's one x ln x).  On a 2-core Xeon with
numpy 2.4 and scipy 1.17, the row sums of x ln x over a 6 x 6 policy take
3.6 us this way against 2.4 us with scipy's ``xlogy``, but over all 30 days
of route_e0t1 at once 10 us against 72 us for 30 ``xlogy`` calls; at
M = 40 one policy takes 10.5 against 17.7 us.  So ``_policy_evaluate_core``
forms the entropy of every day in one call.  The held cost matches the
elementwise form up to rounding, and only the uncertified trace entries use
it.

The average policy is formed only at a stop candidate (that gap at or below
tolerance, or the budget spent), where the backward sweep ``exploitability``
runs certifies the gap; a candidate that fails is recorded and play goes on.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CostModel,
    InvalidInputError,
    _backward_induction_core,
    _forward_propagate_core,
    _number,
    _policy_evaluate_core,
    _xlogx,
    check_stochastic,
    dist_distance,
    forward_propagate,
    uniform_policy_seq,
)

__all__ = [
    "FPConfig",
    "SolverReport",
    "fp_average_policy",
    "exploitability",
    "fictitious_play",
]

logger = logging.getLogger(__name__)


@dataclass
class FPConfig:
    """Inputs of the fictitious play loop.

    ``horizon`` and ``max_iters`` are ints and ``exploitability_tol`` a
    float, by ``core._number``.  ``initial_policy`` defaults to uniform rows.
    """

    mu0: np.ndarray
    horizon: int
    max_iters: int = 500
    exploitability_tol: float = 1e-6
    initial_policy: np.ndarray | None = None

    def __post_init__(self):
        self.mu0 = check_stochastic(self.mu0, "initial distribution", (None,))
        self.horizon = _number(self.horizon, "horizon", int)
        self.max_iters = _number(self.max_iters, "max_iters", int)
        self.exploitability_tol = _number(self.exploitability_tol, "exploitability_tol")
        if self.horizon < 1:
            raise InvalidInputError("horizon must be at least 1")
        if self.max_iters < 1:
            raise InvalidInputError("max_iters must be at least 1")
        if not self.exploitability_tol > 0.0:
            raise InvalidInputError("exploitability_tol must be positive")
        if self.initial_policy is not None:
            m = self.mu0.size
            self.initial_policy = check_stochastic(
                self.initial_policy, "initial policy", (self.horizon, m, m)
            )


@dataclass
class SolverReport:
    """Result of one fictitious play run."""

    avg_policy: np.ndarray
    avg_mf: np.ndarray
    value_seq: np.ndarray
    exploitability_trace: list[float] = field(repr=False)
    iterations_run: int = 0
    converged: bool = False


def _weighted_policy_average(num, den, m):
    # Rows never visited get the uniform row: they carry no mass, and a
    # deterministic filler keeps runs reproducible.  Visited rows are
    # renormalized to absorb rounding drift accumulated in the sums.
    out = np.full(den.shape + (m,), 1.0 / m)
    mask = den > 0.0
    rows = num[mask] / den[mask][:, None]
    out[mask] = rows / rows.sum(axis=1)[:, None]
    return out


def fp_average_policy(history, j: int) -> np.ndarray:
    """Occupancy-weighted average of the first ``j`` (flow, policy) iterates.

    Weighting each iterate's policy rows by its state occupancy makes the
    average policy induce the average flow from the shared initial law.
    ``fictitious_play`` never calls it, and the tests' rescan reference is
    ``oracles.rescan_average_policy``; it stays for ``perfbench/layers.py``.
    """
    if j < 1 or len(history) < j:
        raise InvalidInputError("need at least j recorded iterations, j >= 1")
    mf0, pol0 = history[0]
    n_days, m = np.asarray(mf0).shape
    num = np.zeros((n_days, m, m))
    den = np.zeros((n_days, m))
    for i in range(j):
        mf = np.asarray(history[i][0], dtype=float)
        pol = np.asarray(history[i][1], dtype=float)
        if mf.shape != (n_days, m) or pol.shape != (n_days, m, m):
            raise InvalidInputError("history entries have inconsistent shapes")
        # Out of place: ``pol`` may be the caller's array.
        num += mf[:, :, None] * pol
        den += mf
    return _weighted_policy_average(num, den, m)


def _gap(pi, f_table, br_values, cm, mu0):
    # Cost of holding ``pi`` minus the best-response cost on the same table.
    held = _policy_evaluate_core(pi, f_table, cm.inertia_matrix, cm.theta)
    return float(np.sum(mu0 * held[0])) - float(np.sum(mu0 * br_values[0]))


def exploitability(pi, mu, cm: CostModel, mu0) -> float:
    """Cost gap of ``pi`` to the exact best response against ``mu``.

    Requires the pair to be consistent (``mu`` induced by ``pi`` from
    ``mu0``); the best-response side is computed exactly by backward
    induction, so the gap is non-negative up to rounding.
    """
    mu = check_stochastic(mu, "mean field sequence", (None, cm.M))
    pi = check_stochastic(pi, "policy sequence", (len(mu), cm.M, cm.M))
    mu0 = check_stochastic(mu0, "initial distribution", (cm.M,))
    if dist_distance(forward_propagate(pi, mu0), mu) > 1e-8:
        raise InvalidInputError("mean field is not the flow induced by the policy")
    f_table = cm.cost(mu)
    br_values = _backward_induction_core(f_table, cm.kernel, cm.theta, cm.kernel_row)[0]
    return _gap(pi, f_table, br_values, cm, mu0)


def fictitious_play(cm: CostModel, cfg: FPConfig) -> SolverReport:
    """Run fictitious play until exploitability drops below tolerance.

    Deterministic: identical inputs produce identical reports.  Returns
    ``converged=False`` (never raises) when the iteration budget runs out.
    """
    m = cm.M
    if cfg.mu0.shape[0] != m:
        raise InvalidInputError("initial distribution dimension does not match model")
    pol0 = (
        cfg.initial_policy
        if cfg.initial_policy is not None
        else uniform_policy_seq(cfg.horizon, m)
    )
    avg_mf = forward_propagate(pol0, cfg.mu0)
    # The occupancy sums in scaling form (module docstring): num = gibbs * occ.
    k_min = cm.kernel.min()
    gibbs = cm.kernel / k_min
    head = -math.log(k_min)

    occ = np.zeros((cfg.horizon, m, m))
    den = np.zeros((cfg.horizon, m))
    weighted = np.empty((cfg.horizon, m, m))
    trace: list[float] = []

    # Pass j best-responds to the average through iteration j - 1; its value
    # also prices that average's exploitability, which shares the same mean
    # field (and hence the same cost table).  Pass max_iters + 1 only records
    # the final gap.
    for j in range(1, cfg.max_iters + 2):
        f_table = cm.cost(avg_mf)
        br_values, u, z = _backward_induction_core(f_table, cm.kernel, cm.theta, cm.kernel_row)
        if j > 1:
            k = j - 1
            switching = (
                np.vdot(gibbs, _xlogx(occ).sum(axis=0))
                + head * den.sum()
                - _xlogx(den).sum()
            )
            held = np.vdot(avg_mf, f_table) + switching / (cm.theta * k)
            gap = float(held) - float(cfg.mu0 @ br_values[0])
            if gap <= cfg.exploitability_tol or j > cfg.max_iters:
                np.multiply(gibbs, occ, out=weighted)
                avg_pol = _weighted_policy_average(weighted, den, m)
                gap = _gap(avg_pol, f_table, br_values, cm, cfg.mu0)
            trace.append(gap)
            logger.debug("iteration %d exploitability %.3e", k, gap)
            converged = gap <= cfg.exploitability_tol
            if converged or j > cfg.max_iters:
                break
        induced = _forward_propagate_core(cm.kernel, u, z, cfg.mu0, cm.kernel_row)
        avg_mf = ((j - 1) / j) * avg_mf + (1.0 / j) * induced
        # Fold into the occupancy sums: one outer product into one buffer
        # per run, and no policy table.
        np.einsum("ni,nj->nij", induced / z * k_min, u, out=weighted)
        occ += weighted
        den += induced

    logger.info(
        "fictitious play finished after %d iterations (converged=%s)",
        j - 1,
        converged,
    )
    return SolverReport(
        avg_policy=avg_pol,
        avg_mf=avg_mf,
        value_seq=br_values,
        exploitability_trace=trace,
        iterations_run=j - 1,
        converged=converged,
    )
