import numpy as np
import pytest

from dpfilt import RationalFilter, TransferMatrix


def random_poly_from_roots(rng, n_roots, radius):
    """Real-coefficient polynomial (in z) with roots inside `radius`."""
    roots = []
    n = n_roots
    while n > 0:
        if n >= 2 and rng.random() < 0.5:
            r = radius * np.sqrt(rng.random())
            th = rng.uniform(0, np.pi)
            roots += [r * np.exp(1j * th), r * np.exp(-1j * th)]
            n -= 2
        else:
            roots.append(rng.uniform(-radius, radius))
            n -= 1
    return np.real(np.poly(roots)) if roots else np.array([1.0])


def delay(k):
    """The pure delay z^-k."""
    return RationalFilter(np.eye(k + 1)[k])


def random_rational(rng, max_order=3, radius=0.85):
    n_poles = int(rng.integers(0, max_order + 1))
    n_zeros = int(rng.integers(0, max_order + 1))
    den = random_poly_from_roots(rng, n_poles, radius)
    num = random_poly_from_roots(rng, n_zeros, 1.5) * rng.uniform(0.2, 2.0)
    return RationalFilter(num, den)


def random_transfer_matrix(rng, p, m, max_order=3, radius=0.85):
    return TransferMatrix([[random_rational(rng, max_order, radius)
                            for _ in range(m)] for _ in range(p)])


def random_fir_matrix(rng, p, m, max_lag=3):
    rows = []
    for _ in range(p):
        row = []
        for _ in range(m):
            taps = rng.normal(size=int(rng.integers(1, max_lag + 2)))
            row.append(RationalFilter(taps))
        rows.append(row)
    return TransferMatrix(rows)


def random_state_space(rng, n, p, radius=0.8):
    """A random pair (A, C): A is n-by-n with spectral radius below
    `radius`, C is p-by-n."""
    A = rng.normal(size=(n, n))
    if n:
        rho = np.max(np.abs(np.linalg.eigvals(A)))
        if rho > 0:
            A *= radius / rho * rng.uniform(0.5, 1.0)
    return A, rng.normal(size=(p, n))


def h2_impulse_oracle(sys, tol=1e-14, max_len=200000):
    """Independent H2 oracle: truncated impulse-response energy sum."""
    n = 512
    while True:
        h = sys.impulse(n)
        energy = np.sum(h ** 2)
        tail = np.sum(h[-16:] ** 2)
        if tail <= tol * max(energy, 1e-300) or n >= max_len:
            return float(np.sqrt(energy))
        n *= 2


def gramian_series_oracle(A, C, T=2000):
    """Truncated series sum_{t=0}^{T} (A^t)^T C^T C A^t."""
    n = A.shape[0]
    P = np.zeros((n, n))
    M = np.eye(n)
    for _ in range(T + 1):
        P += M.T @ C.T @ C @ M
        M = A @ M
    return P


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def feedback_impulse(P, n):
    """Matrix impulse response (n, m, m) of the DF feedback B = P^-1 of a
    monic polynomial P (K+1, m, m), by monic_inverse_filter: column c's
    impulse is row c of the recursion's output."""
    from dpfilt.lms import monic_inverse_filter
    m = P.shape[1]
    delta = np.zeros((n, m, m))
    delta[0] = np.eye(m)
    return np.swapaxes(monic_inverse_filter(P, delta), 1, 2)
