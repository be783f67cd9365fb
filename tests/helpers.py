"""Independent oracles used by the tests.

Everything here recomputes expected values by a different route than the
library (naive double loops, closed-form root formulas, a generic ODE
integrator, one complex eigen-expansion per time) so agreement is
meaningful.
"""
import math

import numpy as np


def naive_matrix(kernel, potential, half_width):
    # assemble straight from the definition, one entry at a time
    sites = np.arange(-half_width, half_width + 1)
    d = sites.size
    diag = potential.diagonal_values(sites) + potential.perturbation_values(sites)
    out = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            if i == j:
                out[i, j] = diag[i]
            else:
                out[i, j] = kernel.amplitude(int(sites[i] - sites[j]))
    return out


def full_tridiagonal_residuals(H, lam, vec):
    """Column norms of H @ vec - vec * lam for a tridiagonal H, summed
    over its three diagonals on whole d x d arrays at once: the formula
    the blocked residual gate must reproduce bit for bit."""
    diag, lower = H.diagonal(), H.diagonal(-1)
    r = np.subtract.outer(diag, lam)
    r *= vec
    r[1:] += lower[:, np.newaxis] * vec[:-1]
    r[:-1] += lower.conj()[:, np.newaxis] * vec[1:]
    return np.linalg.norm(r, axis=0)


def full_gram_defect(vec):
    """max |<phi_i, phi_j> - delta_ij| from the whole Gram matrix: the
    formula the blocked orthonormality gate must reproduce bit for bit."""
    gram = vec.conj().T @ vec
    np.fill_diagonal(gram, gram.diagonal() - 1.0)
    return float(np.max(np.abs(gram)))


def symmetric_cubic_roots(matrix):
    """Eigenvalues of a real symmetric 3x3 matrix via the trigonometric
    solution of its characteristic polynomial. No eigensolver involved."""
    h = np.asarray(matrix, dtype=float)
    assert h.shape == (3, 3)
    tr = h[0, 0] + h[1, 1] + h[2, 2]
    minors = (h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
              + h[0, 0] * h[2, 2] - h[0, 2] * h[2, 0]
              + h[1, 1] * h[2, 2] - h[1, 2] * h[2, 1])
    det = (h[0, 0] * (h[1, 1] * h[2, 2] - h[1, 2] * h[2, 1])
           - h[0, 1] * (h[1, 0] * h[2, 2] - h[1, 2] * h[2, 0])
           + h[0, 2] * (h[1, 0] * h[2, 1] - h[1, 1] * h[2, 0]))
    # x^3 - tr x^2 + minors x - det = 0; depress with x = y + tr/3
    p = minors - tr * tr / 3.0
    q = 2.0 * tr ** 3 / 27.0 - tr * minors / 3.0 + det
    # symmetric matrix: three real roots, p < 0 unless the matrix is scalar
    if p >= 0:
        return sorted([tr / 3.0] * 3)
    m = 2.0 * math.sqrt(-p / 3.0)
    arg = min(1.0, max(-1.0, 3.0 * q / (p * m)))
    theta = math.acos(arg) / 3.0
    return sorted(m * math.cos(theta - 2.0 * math.pi * k / 3.0) + tr / 3.0
                  for k in range(3))


def rk45_amplitudes(op, source, t):
    """Reference time evolution: integrate i u' = H u with scipy's RK45 on
    the real-stacked system. Slow but entirely independent of the
    eigen-expansion route."""
    from scipy.integrate import solve_ivp

    h = np.array(op.matrix, dtype=complex)
    d = h.shape[0]
    u0 = np.zeros(d, dtype=complex)
    u0[np.flatnonzero(op.sites == source)] = 1.0

    def rhs(_, y):
        u = y[:d] + 1j * y[d:]
        du = -1j * (h @ u)
        return np.concatenate([du.real, du.imag])

    y0 = np.concatenate([u0.real, u0.imag])
    sol = solve_ivp(rhs, (0.0, t), y0, method="RK45",
                    rtol=1e-10, atol=1e-12, dense_output=False)
    assert sol.success
    yT = sol.y[:, -1]
    return yT[:d] + 1j * yT[d:]


def evolved_amplitudes(sd, source, t):
    """psi_t of a packet released at ``source``: one complex
    matrix-vector product of the eigen-expansion at a single time, where
    the library propagates many times at once by real cos/sin GEMMs."""
    coeffs = np.exp(-1j * sd.eigenvalues * t)
    coeffs *= sd.eigenvectors[np.flatnonzero(sd.sites == source)[0]].conj()
    return sd.eigenvectors @ coeffs


def stepped_amplitudes(sd, amplitudes, dt):
    """Any state evolved by dt: project on the eigenbasis, turn each
    coefficient's phase, and sum the modes back up."""
    coeffs = sd.eigenvectors.conj().T @ amplitudes
    coeffs *= np.exp(-1j * sd.eigenvalues * dt)
    return sd.eigenvectors @ coeffs


def moment_of(sites, amplitudes, q):
    """sum_n |n|**q |psi(n)|**2, one site at a time."""
    return math.fsum(abs(int(n)) ** q * abs(a) ** 2
                     for n, a in zip(sites, amplitudes))


def majorant_defect(amplitudes, majorant):
    """Largest excess of |psi_t(n)| over B(n, k); row n of amplitudes
    holds site n at one or more times."""
    amps = np.reshape(amplitudes, (len(majorant), -1))
    return float(np.max(np.abs(amps) - np.asarray(majorant)[:, None]))
