"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the slow, obvious way (pure Python
loops, explicit formulas) so it shares no code path with the package.  The
log-domain sweep and push are numpy day loops, but their own: the log form
the package's scaling-form sweep replaced.  Two exceptions rest on the
package's public backup and push: ``concavity_check`` tests a property of
them rather than recomputing them, and ``hybr_pair`` prices the stationary
pair equations with them but finds their root by scipy, not by the
package's Newton solve.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import root
from scipy.special import softmax

from mfgcommute.core import CostModel, bellman_apply, forward_step
from mfgcommute.stationary import StationaryPair

# Certificate of the pairs that ``hybr_pair`` returns.
HYBR_TOL = 1e-12


def brute_forward_step(pi, mu):
    """Double-loop flow push with the same renormalization convention."""
    m = len(mu)
    out = [0.0] * m
    for s in range(m):
        acc = 0.0
        for sp in range(m):
            acc += float(mu[sp]) * float(pi[sp][s])
        out[s] = acc
    total = math.fsum(out)
    return np.array([o / total for o in out])


def brute_soft_backup(f, d, v, theta):
    """Per-row max-shifted log-sum-exp Bellman backup, one scalar at a time.

    V(s) = f(s) - (1/theta) ln sum_x exp(-theta (d(s,x) + v(x))), and row s
    of the policy is proportional to exp(-theta (d(s,x) + v(x))).  Returns
    (values, policy).
    """
    m = len(v)
    values = [0.0] * m
    policy = [[0.0] * m for _ in range(m)]
    for s in range(m):
        scores = [-theta * (float(d[s][x]) + float(v[x])) for x in range(m)]
        top = max(scores)
        weights = [math.exp(sc - top) for sc in scores]
        total = math.fsum(weights)
        values[s] = float(f[s]) - (top + math.log(total)) / theta
        policy[s] = [w / total for w in weights]
    return np.array(values), np.array(policy)


def log_domain_sweep(f_table, kernel, theta):
    """The backward sweep's day loop in log form, one shifted backup a day.

    Day n shifts by c = min V_{n+1}, forms u_n = exp(theta (c - V_{n+1})),
    z_n = kernel @ u_n and V_n = f_n + c - ln z_n / theta, from V_N = 0.
    Returns ``(values, u, z)``, the factors of the sweep's softmax policies
    pi_n = diag(1/z_n) kernel diag(u_n).  An earlier form of the package's
    own sweep, kept as a reference for its scaling form.
    """
    n_days, m = np.shape(f_table)
    values = np.zeros((n_days + 1, m))
    u = np.empty((n_days, m))
    z = np.empty((n_days, m))
    for n in range(n_days - 1, -1, -1):
        c = float(values[n + 1].min())
        u[n] = np.exp((c - values[n + 1]) * theta)
        z[n] = kernel.dot(u[n])
        values[n] = f_table[n] + (c - np.log(z[n]) / theta)
    return values, u, z


def log_domain_push(kernel, u, z, mu0):
    """Flows of the policies with factors ``(u, z)``, renormalized day by day.

    mu_{n+1} = u_n * ((mu_n / z_n) @ kernel), divided by its exact sum.
    """
    out = np.empty((len(u), len(mu0)))
    out[0] = mu0
    for n in range(len(u) - 1):
        pushed = (out[n] / z[n]).dot(kernel) * u[n]
        out[n + 1] = pushed / math.fsum(pushed.tolist())
    return out


def brute_seq_distance(a, b):
    """Exhaustive max over all (day, state) pairs."""
    best = 0.0
    for n in range(len(a)):
        for s in range(len(a[n])):
            best = max(best, abs(float(a[n][s]) - float(b[n][s])))
    return best


def brute_policy_distance(a, b):
    best = 0.0
    for n in range(len(a)):
        for s in range(len(a[n])):
            for x in range(len(a[n][s])):
                best = max(best, abs(float(a[n][s][x]) - float(b[n][s][x])))
    return best


def brute_value_gap_check(v, f, eps, slack):
    """Pairwise loop: V(x)-V(y) > f(x)-f(y) > V(x)-V(y) - eps whenever V(x) > V(y)."""
    ok = True
    for x in range(len(v)):
        for y in range(len(v)):
            v_gap = float(v[x] - v[y])
            if v_gap <= 1e-10:
                continue
            f_gap = float(f[x] - f[y])
            ok = ok and (v_gap > f_gap - slack) and (f_gap > v_gap - eps - slack)
    return ok


def brute_overlap_inertia(paths, eps):
    """eps * (1 - |shared links| / |links of either path|) over all path pairs."""
    m = len(paths)
    sets = [set(int(l) for l in p) for p in paths]
    d = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            shared = len(sets[i] & sets[j])
            union = len(sets[i] | sets[j])
            d[i, j] = eps * (1.0 - shared / union)
    return d


def point_queue_delays(mu, c_b, slice_hours):
    """Step-by-step cumulative queue recursion for the bottleneck delay.

    Each slice serves one capacity unit; a slice's delay carries over the
    previous slice's residual delay plus its own inflow, floored at zero.
    Returns hours.
    """
    m = len(mu)
    t = [0.0] * m
    for s in range(1, m):
        t[s] = max(t[s - 1] + float(mu[s]) / c_b - 1.0, 0.0)
    return np.array([x * slice_hours for x in t])


def mc_policy_value(pi_seq, mu_seq, cm, start_state, n_paths, rng):
    """Monte-Carlo rollout estimate of the cost-to-go from ``start_state``.

    Samples actions by inverse-CDF over each visited row, accumulating
    travel cost, inertia and the entropy term along each path.  Returns
    (mean, standard error).
    """
    n_days, m = np.asarray(mu_seq).shape
    pi_seq = np.asarray(pi_seq, dtype=float)
    d = np.asarray(cm.inertia_matrix, dtype=float)
    f_table = np.array(
        [cm.cost(np.asarray(mu_seq[n], dtype=float)) for n in range(n_days)]
    )
    states = np.full(n_paths, start_state, dtype=np.intp)
    total = np.zeros(n_paths)
    for k in range(n_days):
        rows = pi_seq[k][states]
        cdf = np.cumsum(rows, axis=1)
        u = rng.random(n_paths)
        actions = np.minimum((u[:, None] > cdf).sum(axis=1), m - 1)
        total += (
            f_table[k][states]
            + d[states, actions]
            + np.log(rows[np.arange(n_paths), actions]) / cm.theta
        )
        states = actions
    return float(total.mean()), float(total.std(ddof=1) / math.sqrt(n_paths))


def occupancy_total_cost(pi_seq, mu_seq, cm, mu0):
    """Horizon cost through the occupancy-measure decomposition.

    sum_n sum_s occupancy_n(s) * sum_x pi(x|s) (f + d + (1/theta) ln pi),
    with the occupancies propagated independently of the library.
    """
    n_days, m = np.asarray(mu_seq).shape
    occ = [float(x) for x in mu0]
    total = 0.0
    for n in range(n_days):
        stage_next = [0.0] * m
        f = cm.cost(np.asarray(mu_seq[n], dtype=float))
        for s in range(m):
            stage = 0.0
            for x in range(m):
                p = float(pi_seq[n][s][x])
                if p > 0.0:
                    d = float(cm.inertia_matrix[s, x])
                    stage += p * (d + math.log(p) / cm.theta)
                    stage_next[x] += occ[s] * p
            total += occ[s] * (float(f[s]) + stage)
        occ = stage_next
    return total


def concavity_check(v, v_alt, mu, cm) -> bool:
    """Concavity of the Bellman backup in the value argument.

    With ``pi`` optimal for ``v``, checks (i) per state,
    G v_alt(s) <= G v(s) + sum_x pi(x|s) (v_alt(x) - v(x)), and (ii) the
    mu-weighted aggregate sum_s mu(s)(G v_alt - G v)(s)
    <= sum_s (v_alt - v)(s) (K_pi mu)(s), both within a slack of 1e-9.
    Built on the public backup and push: it checks a property of the
    operator, not a second implementation of it.
    """
    slack = 1e-9
    g_v, pi = bellman_apply(v, mu, cm)
    g_alt, _ = bellman_apply(v_alt, mu, cm)
    diff = np.asarray(v_alt, dtype=float) - np.asarray(v, dtype=float)
    mu = np.asarray(mu, dtype=float)
    per_state = g_alt <= g_v + (pi * diff[None, :]).sum(axis=1) + slack
    pushed = forward_step(pi, mu)
    aggregate = float(np.sum(mu * (g_alt - g_v))) <= float(np.sum(diff * pushed)) + slack
    return bool(np.all(per_state)) and aggregate


def masked_xlogx(x):
    """x ln x with the log taken over the positive entries only, 0 ln 0 = +0.0.

    A reference for ``core._xlogx``, which floors its input at the smallest
    subnormal instead of masking the log; the two must give the same bits.
    """
    out = np.zeros(np.shape(x))
    np.log(x, out=out, where=x > 0.0)
    out *= x
    return out


def rescan_average_policy(history, j):
    """Occupancy-weighted average of the first ``j`` (flow, policy) iterates, row by row.

    Row s of day n is sum_i mf_i(n, s) pi_i(n, s, .) over sum_i mf_i(n, s),
    each sum by ``math.fsum``, then divided by its own sum; a row that no
    iterate visits is uniform.
    """
    n_days, m = np.shape(history[0][0])
    out = np.empty((n_days, m, m))
    for n in range(n_days):
        for s in range(m):
            weights = [float(mf[n][s]) for mf, _ in history[:j]]
            den = math.fsum(weights)
            if den == 0.0:
                out[n, s] = 1.0 / m
                continue
            row = [math.fsum(w * float(pol[n][s][x])
                             for w, (_, pol) in zip(weights, history[:j])) / den
                   for x in range(m)]
            total = math.fsum(row)
            out[n, s] = [r / total for r in row]
    return out


def hybr(residual, x0):
    """scipy's hybr at xtol 1e-14, restarted once from where it stopped."""
    sol = root(residual, x0, method="hybr", options={"xtol": 1e-14})
    if not np.max(np.abs(sol.fun)) <= HYBR_TOL:
        sol = root(residual, sol.x, method="hybr", options={"xtol": 1e-14})
    return sol


def hybr_pair(cm):
    """The stationary pair of ``cm`` by scipy's hybr, by continuation in the inertia.

    Solves the full pair equations, G V = V + lambda and K_pi mu = mu with
    V(0) = 0 and mu in logit form, priced by the public ``bellman_apply``
    and ``forward_step``.  It starts at the logit pair, exact without
    inertia: mu the logit equilibrium mu = softmax(-theta f(mu)) (itself
    solved by hybr in logit form from the uniform split), V = f(mu) -
    f(mu)(0) and lambda = f(mu)(0) - ln sum exp(-theta V) / theta.  It then
    scales the inertia by 0.25, 0.5, 0.75 and 1, each solve started from the
    last answer.  Raises RuntimeError unless both residuals of the returned
    pair are within HYBR_TOL.
    """
    m = cm.M

    def logit_form(z):
        f = cm.cost(softmax(np.concatenate([[0.0], z])))
        return z + cm.theta * (f[1:] - f[0])

    z = hybr(logit_form, np.zeros(m - 1)).x
    mu = softmax(np.concatenate([[0.0], z]))
    f = cm.cost(mu)
    v = f - f[0]
    lam = f[0] - math.log(float(np.exp(-cm.theta * v).sum())) / cm.theta
    x = np.concatenate([v[1:], [lam], z])

    def unpack(x):
        return (np.concatenate([[0.0], x[:m - 1]]), float(x[m - 1]),
                softmax(np.concatenate([[0.0], x[m:]])))

    def residuals(x, model):
        v, lam, mu = unpack(x)
        backed, pi = bellman_apply(v, mu, model)
        return backed - v - lam, forward_step(pi, mu) - mu, pi

    for scale in (0.25, 0.5, 0.75, 1.0):
        scaled = CostModel(cost=cm.cost, inertia_matrix=scale * cm.inertia_matrix,
                           theta=cm.theta, bound_C=cm.bound_C)

        def equations(x):
            g, balance, _ = residuals(x, scaled)
            return np.concatenate([g, balance[1:]])

        x = hybr(equations, x).x
    v, lam, mu = unpack(x)
    g, balance, pi = residuals(x, cm)
    r1, r2 = float(np.max(np.abs(g))), float(np.max(np.abs(balance)))
    if not max(r1, r2) <= HYBR_TOL:
        raise RuntimeError(f"hybr pair not certified: residuals ({r1:.2e}, {r2:.2e})")
    return StationaryPair(V_bar=v, mu_bar=mu, lambda_bar=lam, pi_bar=pi)
