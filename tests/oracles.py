"""Independent reference implementations used only to derive expected
test values. Everything here is plain dense linear algebra or exhaustive
search, deliberately sharing no code with the package under test."""

import math

import numpy as np

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
IDENTITY = np.eye(2, dtype=complex)


def phase_matrix(theta: float) -> np.ndarray:
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * theta)]], dtype=complex)


def expand_single(mat: np.ndarray, target: int, num_qubits: int) -> np.ndarray:
    """Embed a 1-qubit matrix; qubit 0 is the least-significant index bit,
    so it is the rightmost Kronecker factor."""
    ops = [IDENTITY] * num_qubits
    ops[target] = mat
    out = np.array([[1.0 + 0j]])
    for q in range(num_qubits - 1, -1, -1):
        out = np.kron(out, ops[q])
    return out


def cx_matrix(control: int, target: int, num_qubits: int) -> np.ndarray:
    dim = 1 << num_qubits
    c_mask, t_mask = 1 << control, 1 << target
    mat = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        j = i ^ t_mask if i & c_mask else i
        mat[j, i] = 1.0
    return mat


def second_order_map_unitary(x, repetitions: int = 2, entanglement: str = "full") -> np.ndarray:
    """Matrix-product expansion of the feature map definition: per
    repetition H on all qubits, PHASE(2*x_i), and for each pair i<j (only
    j = i+1 with ``linear`` entanglement) the
    CX / PHASE(2*(pi-x_i)*(pi-x_j)) / CX block."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    U = np.eye(1 << n, dtype=complex)
    for _ in range(repetitions):
        for q in range(n):
            U = expand_single(HADAMARD, q, n) @ U
        for q in range(n):
            U = expand_single(phase_matrix(2.0 * x[q]), q, n) @ U
        for i in range(n):
            for j in range(i + 1, n):
                if entanglement == "linear" and j != i + 1:
                    continue
                block = (
                    cx_matrix(i, j, n)
                    @ expand_single(
                        phase_matrix(2.0 * (math.pi - x[i]) * (math.pi - x[j])), j, n
                    )
                    @ cx_matrix(i, j, n)
                )
                U = block @ U
    return U


def mapped_state(x, repetitions: int = 2, entanglement: str = "full") -> np.ndarray:
    U = second_order_map_unitary(x, repetitions, entanglement)
    e0 = np.zeros(U.shape[0], dtype=complex)
    e0[0] = 1.0
    return U @ e0


def overlap_fidelity(x, y, repetitions: int = 2) -> float:
    """|<psi(y)|psi(x)>|^2 by direct statevector inner product."""
    a = mapped_state(x, repetitions)
    b = mapped_state(y, repetitions)
    return float(abs(np.vdot(b, a)) ** 2)


def compute_uncompute_fidelity(x, y, repetitions: int = 2) -> float:
    """All-zeros probability of the compute-uncompute circuit
    U(y)^-1 U(x) |0...0>."""
    column = second_order_map_unitary(y, repetitions).conj().T @ second_order_map_unitary(
        x, repetitions)[:, 0]
    return float(abs(column[0]) ** 2)


def rbf_value(x, y, gamma: float) -> float:
    """exp(-gamma * ||x - y||^2), the squared distance summed term by term."""
    return math.exp(-gamma * sum((float(a) - float(b)) ** 2 for a, b in zip(x, y)))


def pair_seed(master_seed: int, i: int, j: int) -> int:
    """Seed of sampled Gram entry (i, j): the first uint64 word of
    ``SeedSequence([master_seed mod 2**64, i, j])``."""
    entropy = [master_seed % (1 << 64), i, j]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def shot_estimate(seed: int, shots: int, p: float) -> float:
    """Fraction of all-zeros outcomes in ``shots`` runs whose all-zeros
    probability is ``p``, drawn from a fresh ``default_rng(seed)``."""
    return int(np.random.default_rng(seed).binomial(shots, p)) / shots


def shot_noise_edge(K_exact, shots: int) -> float:
    """Spectral edge of the shot noise in a sampled Gram whose off-diagonal
    entries are independent binomial fractions of ``shots`` runs with means
    ``K_exact``: 2 sqrt(mean over i of sum_{j != i} p_ij (1 - p_ij) / shots),
    the semicircle scale that bounds the noise matrix's norm (Bandeira & van
    Handel, Ann. Probab. 2016). A low-rank exact Gram leaves the sampled
    Gram's most negative eigenvalue near minus this edge."""
    P = np.array(K_exact, dtype=float)
    var = P * (1.0 - P) / shots
    np.fill_diagonal(var, 0.0)
    return 2.0 * math.sqrt(var.sum(axis=1).mean())


def dual_value(alpha, y, K) -> float:
    coef = alpha * y
    return float(alpha.sum() - 0.5 * coef @ K @ coef)


def brute_force_dual_max(K, y, C: float, grid_points: int = 13) -> float:
    """Maximum of the soft-margin dual by exhaustive grid search on the
    equality-constraint surface, polished with a generic SLSQP solve."""
    from scipy.optimize import minimize

    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    vals = np.linspace(0.0, C, grid_points)
    grids = np.meshgrid(*([vals] * (n - 1)), indexing="ij")
    head = np.stack([g.ravel() for g in grids], axis=1)
    last = -y[-1] * (head @ y[:-1])
    ok = (last >= -1e-12) & (last <= C + 1e-12)
    alphas = np.concatenate(
        [head[ok], np.clip(last[ok], 0.0, C)[:, None]], axis=1
    )
    Q = np.outer(y, y) * K
    objs = alphas.sum(axis=1) - 0.5 * np.einsum("ri,ij,rj->r", alphas, Q, alphas)
    best_idx = int(np.argmax(objs))
    best = float(objs[best_idx])

    def neg_obj(a):
        return -dual_value(a, y, K)

    constraint = {"type": "eq", "fun": lambda a: float(a @ y)}
    bounds = [(0.0, C)] * n
    starts = [alphas[best_idx], np.zeros(n), np.full(n, C / 2)]
    for start in starts:
        res = minimize(
            neg_obj, start, method="SLSQP", bounds=bounds,
            constraints=[constraint],
            options={"maxiter": 500, "ftol": 1e-14},
        )
        if res.success and abs(float(res.x @ y)) < 1e-8:
            best = max(best, -float(res.fun))
    return best


def platt_smo(K, y, C: float, tol: float, max_passes: int = 10_000,
              step_eps: float = 1e-12, bound_eps: float = 1e-8):
    """Platt's SMO with the plain partner search: each examined point tries
    the free point of largest |E1 - E2|, then every free point, then every
    point, in index order. The package solver skips partners that cannot
    move but must return the same bits; returns (alpha, bias, converged)."""
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    alpha = np.zeros(n)
    f = np.zeros(n)
    b = 0.0

    def delta(t, a1o, a2o, y1, y2, f1, f2, k11, k12, k22):
        d2 = t - a2o
        d1 = -y1 * y2 * d2
        return (d1 + d2 - d1 * y1 * f1 - d2 * y2 * f2
                - 0.5 * (d1 * d1 * k11 + d2 * d2 * k22) - d1 * d2 * y1 * y2 * k12)

    def take_step(i1, i2):
        nonlocal b, f
        if i1 == i2:
            return False
        a1o, a2o, y1, y2 = alpha[i1], alpha[i2], y[i1], y[i2]
        e1, e2 = f[i1] + b - y1, f[i2] + b - y2
        s = y1 * y2
        if s > 0:
            lo, hi = max(0.0, a1o + a2o - C), min(C, a1o + a2o)
        else:
            lo, hi = max(0.0, a2o - a1o), min(C, C + a2o - a1o)
        if hi - lo < step_eps:
            return False
        k11, k12, k22 = K[i1, i1], K[i1, i2], K[i2, i2]
        eta = k11 + k22 - 2.0 * k12
        if eta > step_eps:
            a2 = min(max(a2o + y2 * (e1 - e2) / eta, lo), hi)
        else:
            obj_lo = delta(lo, a1o, a2o, y1, y2, f[i1], f[i2], k11, k12, k22)
            obj_hi = delta(hi, a1o, a2o, y1, y2, f[i1], f[i2], k11, k12, k22)
            if obj_lo > obj_hi + step_eps:
                a2 = lo
            elif obj_hi > obj_lo + step_eps:
                a2 = hi
            else:
                return False
        if abs(a2 - a2o) < step_eps * (a2 + a2o + step_eps):
            return False
        a1 = min(max(a1o + s * (a2o - a2), 0.0), C)
        d1, d2 = y1 * (a1 - a1o), y2 * (a2 - a2o)
        b1 = b - e1 - d1 * k11 - d2 * k12
        b2 = b - e2 - d1 * k12 - d2 * k22
        if bound_eps * C < a1 < C * (1 - bound_eps):
            b = b1
        elif bound_eps * C < a2 < C * (1 - bound_eps):
            b = b2
        else:
            b = 0.5 * (b1 + b2)
        f += d1 * K[:, i1] + d2 * K[:, i2]
        alpha[i1], alpha[i2] = a1, a2
        return True

    def examine(i2):
        e2 = f[i2] + b - y[i2]
        r2 = e2 * y[i2]
        if not ((r2 < -tol and alpha[i2] < C) or (r2 > tol and alpha[i2] > 0)):
            return False
        nonbound = np.flatnonzero((alpha > 0) & (alpha < C))
        if nonbound.size > 1:
            errors = f + b - y
            if take_step(int(nonbound[np.argmax(np.abs(errors[nonbound] - e2))]), i2):
                return True
        return any(take_step(int(i1), i2) for i1 in nonbound) or any(
            take_step(i1, i2) for i1 in range(n))

    converged = False
    examine_all = True
    for _ in range(max_passes):
        targets = range(n) if examine_all else np.flatnonzero((alpha > 0) & (alpha < C))
        changed = sum(examine(int(i)) for i in targets)
        if examine_all:
            if changed == 0:
                converged = True
                break
            examine_all = False
        elif changed == 0:
            examine_all = True

    eps = bound_eps * C
    free = (alpha > eps) & (alpha < C - eps)
    residual = y - f
    if np.any(free):
        return alpha, float(residual[free].mean()), converged
    at_zero, at_c = alpha <= eps, alpha >= C - eps
    lower = residual[(at_zero & (y > 0)) | (at_c & (y < 0))]
    upper = residual[(at_zero & (y < 0)) | (at_c & (y > 0))]
    if lower.size and upper.size:
        return alpha, float(0.5 * (lower.max() + upper.min())), converged
    if upper.size:
        return alpha, float(upper.min()), converged
    if lower.size:
        return alpha, float(lower.max()), converged
    return alpha, 0.0, converged


def kkt_certificate(K, y, alpha, bias: float, C: float, bound_eps: float):
    """Optimality certificate of a soft-margin SVM dual solution, independent
    of the solver that produced it. Returns (gap, equality residual, relative
    duality gap):

    - gap is the maximal-violating-pair gap max F(I_low) - min F(I_up), with
      F_i = sum_j alpha_j y_j K_ij - y_i, over the index sets of Keerthi,
      Shevade, Bhattacharyya & Murthy (2001); a coefficient within
      bound_eps * C of 0 or C counts as on that bound. It is <= 0 if and
      only if alpha is optimal, and a solver that stops at per-point
      tolerance tol leaves it <= 2 * tol;
    - the equality residual is |sum alpha_i y_i|;
    - the relative duality gap is (P - D) / P between the hinge-loss primal
      P = w.w / 2 + C sum max(0, 1 - y_i (w.x_i + bias)), at the model's own
      bias, and the dual D = sum alpha - w.w / 2. It is meaningful only for a
      positive semi-definite K, where w.w = (alpha y)' K (alpha y) >= 0."""
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    coef = alpha * y
    wx = K @ coef
    F = wx - y
    eps = bound_eps * C
    below_c, above_zero = alpha < C - eps, alpha > eps
    up = ((y > 0) & below_c) | ((y < 0) & above_zero)
    low = ((y > 0) & above_zero) | ((y < 0) & below_c)
    gap = float(F[low].max(initial=-np.inf) - F[up].min(initial=np.inf))
    ww = float(coef @ wx)
    primal = 0.5 * ww + C * float(np.maximum(0.0, 1.0 - y * (wx + bias)).sum())
    dual = float(alpha.sum()) - 0.5 * ww
    return gap, abs(float(coef.sum())), (primal - dual) / primal
