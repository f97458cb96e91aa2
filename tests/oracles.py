"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the slow, obvious way (pure Python
loops, explicit formulas) so it shares no code path with the package.  The
log-domain sweep and push are numpy day loops, but their own: the log form
the package's scaling-form sweep replaced.  The one exception,
``concavity_check``, tests a property of the package's own public backup and
push rather than recomputing them.
"""

from __future__ import annotations

import math

import numpy as np

from mfgcommute.core import bellman_apply, forward_step


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
