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
