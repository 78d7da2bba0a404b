"""Causal discrete-time LTI systems: rational filters, transfer matrices,
frequency grids, Gramian energies, H2 norms and simulation.

Conventions: transfer functions are written in ascending powers of z^-1
with a monic denominator; a frequency grid is an (N+1, d1, d2) complex
array of samples on omega_q = q*pi/N for q = 0..N, and real-coefficient
systems extend to [-pi, 0) by conjugation.
"""

from __future__ import annotations

import numpy as np

from .errors import (DimensionMismatch, ImproperTransferFunction,
                     LyapunovFailure, UnstableSystem)

STABILITY_TOL = 1e-9
DEFAULT_GRID = 1024
GRAMIAN_TOL = 1e-12
GRAMIAN_MAX_ITER = 200
EFFECTIVE_TAIL_TOL = 1e-8
EFFECTIVE_LENGTH_CAP = 65536
# Samples per block of IirBank (raised to the largest order). A recursive
# bank chains its blocks through a carried state, and fewer, longer blocks
# round less along that chain; a bank of FIR filters carries nothing and
# does the least work per sample in short blocks.
IIR_BLOCK = 128
FIR_BLOCK = 32


def _trim(coefs) -> np.ndarray:
    c = np.atleast_1d(np.asarray(coefs, dtype=float)).ravel()
    nz = np.nonzero(c)[0]
    if nz.size == 0:
        return np.zeros(1)
    return c[: nz[-1] + 1].copy()


class RationalFilter:
    """Scalar rational transfer function num(z^-1)/den(z^-1), den monic."""

    def __init__(self, num, den=(1.0,)):
        num = np.atleast_1d(np.asarray(num, dtype=float)).ravel()
        den = _trim(den)
        if den[0] == 0.0:
            raise ImproperTransferFunction(
                "denominator leading (lag-0) coefficient is zero")
        self.num = (num / den[0]).copy()
        self.den = (den / den[0]).copy()
        self.num.setflags(write=False)
        self.den.setflags(write=False)

    def __repr__(self):
        return f"RationalFilter(num={self.num.tolist()}, den={self.den.tolist()})"

    @property
    def is_fir(self) -> bool:
        return self.den.size == 1

    @property
    def order(self) -> int:
        return max(self.num.size, self.den.size) - 1

    def is_zero(self) -> bool:
        return not np.any(self.num)

    def poles(self) -> np.ndarray:
        if self.den.size == 1:
            return np.zeros(0, dtype=complex)
        return np.roots(self.den)

    def zeros(self) -> np.ndarray:
        nz = _trim(self.num)
        if nz.size == 1:
            return np.zeros(0, dtype=complex)
        return np.roots(nz)

    def is_stable(self) -> bool:
        p = self.poles()
        return bool(p.size == 0 or np.max(np.abs(p)) < 1.0 - STABILITY_TOL)

    def is_minimum_phase(self) -> bool:
        """Zeros strictly inside the unit circle and a nonzero lag-0 tap:
        a leading z^-1 is a zero at infinity, whose inverse is acausal."""
        z = self.zeros()
        return bool(self.num[:1].any()) and bool(
            z.size == 0 or np.max(np.abs(z)) < 1.0 - STABILITY_TOL)

    def eval(self, z):
        """Value of the transfer function at complex point(s) z."""
        zi = 1.0 / np.asarray(z, dtype=complex)
        n = np.polyval(self.num[::-1], zi)
        d = np.polyval(self.den[::-1], zi)
        return n / d

    def freq(self, omega):
        return self.eval(np.exp(1j * np.asarray(omega, dtype=float)))

    def tail_energy(self, lag: int = 0) -> tuple[float, float]:
        """Impulse-response energy from `lag` on, sum_{t >= lag} h(t)^2,
        and a slack for the Gramian's tolerance in it.

        FIR taps are summed exactly, with no slack. Otherwise the energy
        is x' P0 x on the controllable canonical form (A, b, c, d), where
        h(0) = d and h(t) = c A^(t-1) b, x = A^(lag-1) b and P0 is the
        observability Gramian of (A, c); lag 0 adds d^2. The form and P0
        are built on first use and kept, since the coefficients are
        read-only.
        """
        if self.is_fir:
            return float(np.sum(self.num[lag:] ** 2)), 0.0
        if "_gramian" not in self.__dict__:
            n = self.order
            a = np.zeros(n + 1)
            a[:self.den.size] = self.den
            b = np.zeros(n + 1)
            b[:self.num.size] = self.num
            A = np.zeros((n, n))
            A[0, :] = -a[1:]
            A[1:, :-1] = np.eye(n - 1)
            c = b[1:] - b[0] * a[1:]
            self._gramian = (A, c, b[0], observability_gramian(A, c))
        A, c, d, P0 = self._gramian
        x = np.linalg.matrix_power(A, max(lag, 1) - 1)[:, 0]
        energy = float(x @ P0 @ x)
        if lag == 0:
            energy += d * d
        return energy, GRAMIAN_TOL * max(1.0, float(c @ c)) * float(x @ x)


ZERO_FILTER = RationalFilter([0.0])


class TransferMatrix:
    """A p-by-m grid of RationalFilter entries sharing the z^-1 convention."""

    def __init__(self, entries):
        self.entries = [list(row) for row in entries]
        self.p = len(self.entries)
        self.m = len(self.entries[0]) if self.p else 0
        for row in self.entries:
            if len(row) != self.m:
                raise DimensionMismatch("ragged transfer matrix")
            for e in row:
                if not isinstance(e, RationalFilter):
                    raise TypeError("entries must be RationalFilter")

    def __getitem__(self, idx) -> RationalFilter:
        i, j = idx
        return self.entries[i][j]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.p, self.m)

    @staticmethod
    def identity(m: int) -> "TransferMatrix":
        return TransferMatrix.diagonal([RationalFilter([1.0])] * m)

    @staticmethod
    def diagonal(filters) -> "TransferMatrix":
        filters = list(filters)
        m = len(filters)
        return TransferMatrix([[filters[i] if i == j else ZERO_FILTER
                                for j in range(m)] for i in range(m)])

    def is_stable(self) -> bool:
        return all(e.is_stable() for row in self.entries for e in row)

    def is_diagonal(self) -> bool:
        if self.p != self.m:
            return False
        return all(self.entries[i][j].is_zero()
                   for i in range(self.p) for j in range(self.m) if i != j)

    def diagonal_entries(self) -> list[RationalFilter]:
        return [self.entries[i][i] for i in range(min(self.p, self.m))]

    def is_fir(self) -> bool:
        return all(e.is_fir for row in self.entries for e in row)

    def freq(self, omega) -> np.ndarray:
        """RationalFilter.freq of every entry, with z^-1 computed once;
        zero entries stay 0."""
        omega = np.atleast_1d(np.asarray(omega, dtype=float))
        zi = 1.0 / np.exp(1j * omega)
        out = np.zeros((omega.size, self.p, self.m), dtype=complex)
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                if not e.is_zero():
                    out[:, i, j] = (np.polyval(e.num[::-1], zi)
                                    / np.polyval(e.den[::-1], zi))
        return out

    def dc_gain(self) -> np.ndarray:
        """F(1), kept read-only after the first call, as bank() is."""
        if "_dc_gain" not in self.__dict__:
            self._dc_gain = np.array([[e.eval(1.0) for e in row]
                                      for row in self.entries]).real
            self._dc_gain.setflags(write=False)
        return self._dc_gain

    def apply(self, v: np.ndarray) -> np.ndarray:
        return simulate(self, v)

    def margins(self) -> tuple[int, int]:
        return effective_length(self), 0

    def impulse(self, n: int) -> np.ndarray:
        """Matrix impulse response, shape (n, p, m): the bank of
        simulate run on a unit impulse in each input column."""
        out = np.empty((n, self.p, self.m))
        x = np.zeros((n, self.m))
        for j in range(self.m):
            x[:1, j] = 1.0
            out[:, :, j] = self.bank().run(x)
            x[:1, j] = 0.0
        return out

    def bank(self) -> "IirBank":
        """The IirBank that runs this matrix: its nonzero entries grouped
        by (row, denominator). Built on first use and kept, since entries
        are not modified after construction."""
        if "_bank" not in self.__dict__:
            groups = {}
            for i, row in enumerate(self.entries):
                for j, e in enumerate(row):
                    if not e.is_zero():
                        groups.setdefault((i, e.den.tobytes()),
                                          (i, e.den, []))[2].append((j, e.num))
            self._bank = IirBank(list(groups.values()), self.p)
        return self._bank


def grid_omega(N: int) -> np.ndarray:
    return np.arange(N + 1) * np.pi / N


def taps_grid(taps, N: int, first_lag: int = 0) -> np.ndarray:
    """Sum_k taps[k] exp(-j omega_q (k + first_lag)) on omega_q = q pi / N.

    taps is a real array (L, ...) with tap k at lag k + first_lag; the
    result has shape (N+1, ...). Since exp(-j omega_q 2N) = 1 on this
    grid, the taps fold onto 2N points by lag mod 2N and one rfft of
    length 2N gives every grid value exactly, for any L and any sign of
    first_lag.
    """
    taps = np.asarray(taps, dtype=float)
    n = 2 * N
    L = taps.shape[0]
    start = first_lag % n
    wraps = -(-(start + L) // n)
    buf = np.zeros((wraps * n,) + taps.shape[1:])
    buf[start:start + L] = taps
    if wraps > 1:
        buf = buf.reshape((wraps, n) + taps.shape[1:]).sum(axis=0)
    return np.fft.rfft(buf, axis=0)


def next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer (2^a 3^b 5^c) >= n: a fast FFT size."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # smallest power of two that lifts p35 to at least n
            cand = p35 << max(-(-n // p35) - 1, 0).bit_length()
            best = min(best, cand)
            p35 *= 3
        p5 *= 5
    return best


def trapezoid_mean(values: np.ndarray) -> np.ndarray:
    """(1/2pi) * integral over [-pi, pi] of an even function sampled on the
    [0, pi] grid, by the trapezoidal rule."""
    values = np.asarray(values)
    return np.tensordot(trapezoid_weights(values.shape[0] - 1), values,
                        axes=(0, 0))


def trapezoid_weights(N: int) -> np.ndarray:
    """Weights of trapezoid_mean on the N+1 grid points."""
    w = np.ones(N + 1)
    w[0] = w[-1] = 0.5
    return w / N


def _require_stable(sys) -> None:
    if not sys.is_stable():
        raise UnstableSystem("system has poles on or outside the unit circle")


def as_matrix(sys):
    """A RationalFilter as a 1x1 TransferMatrix; a TransferMatrix as is."""
    return TransferMatrix([[sys]]) if isinstance(sys, RationalFilter) else sys


def freq_response(sys, N: int = DEFAULT_GRID) -> np.ndarray:
    """Sample the transfer matrix at z = exp(j*q*pi/N), q = 0..N: a
    (N+1, p, m) complex array."""
    if N < 8:
        raise ValueError("grid size N must be at least 8")
    sys = as_matrix(sys)
    _require_stable(sys)
    return sys.freq(grid_omega(N))


def observability_gramian(A, C) -> np.ndarray:
    """Solve A^T P0 A - P0 + C^T C = 0 by fixed-point doubling."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if A.shape[0] == 0:
        return np.zeros((0, 0))
    if np.max(np.abs(np.linalg.eigvals(A))) >= 1.0 - STABILITY_TOL:
        raise UnstableSystem("Gramian requires spectral radius(A) < 1")
    P = C.T @ C
    M = A.copy()
    scale = max(1.0, float(np.linalg.norm(P)))
    for _ in range(GRAMIAN_MAX_ITER):
        incr = M.T @ P @ M
        P = P + incr
        M = M @ M
        if np.linalg.norm(incr) <= GRAMIAN_TOL * scale:
            return 0.5 * (P + P.T)
    raise LyapunovFailure("Lyapunov doubling did not converge")


def column_energies(sys, lag: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Per input column j, the impulse-response energy from `lag` on,
    sum_i sum_{t >= lag} h_ij(t)^2, and the slack of the Gramian's
    tolerance in it: RationalFilter.tail_energy summed down the column."""
    sys = as_matrix(sys)
    energy = np.zeros(sys.m)
    slack = np.zeros(sys.m)
    for row in sys.entries:
        for j, e in enumerate(row):
            ej, sj = e.tail_energy(lag)
            energy[j] += ej
            slack[j] += sj
    return energy, slack


def h2_norm(sys) -> float:
    """H2 norm: sqrt of total impulse-response energy over all input/
    output pairs, summed from column_energies (exact coefficient sums for
    FIR entries, Gramians otherwise)."""
    sys = as_matrix(sys)
    _require_stable(sys)
    return float(np.sqrt(max(float(np.sum(column_energies(sys)[0])), 0.0)))


class IirBank:
    """A bank of rational filters run over the columns of one signal.

    Group g = (o, a, members) adds (1 / a) * sum over members (j, b) of
    b * x[:, j] to output column o, from zero initial state, for monic
    denominators a of order at most P.

    Time runs in blocks of B >= P samples. With w the block's input
    window (its B samples of a member column and the q - 1 before them,
    q the group's longest numerator) and y_prev the last P outputs of the
    block before, the recursion a * y = b * x over the block reads
    Ta y = Bt w - Ay y_prev, Ta the lower-triangular Toeplitz matrix of a,
    so

        y_block = M w + Z y_prev,  [M | Z] = Ta^-1 [Bt | -Ay].

    M and Z are built once. A run visits the live input columns one at a
    time and, for each member on the column, adds its matmul over all
    blocks at once (the Toeplitz matmul) into the member's output row
    and the product's last P samples into its group's tails. A loop over
    blocks then chains the tails into the carried y_prev (the P-state
    carry), and one matmul per group adds Z y_prev. So a run holds its
    output, the (groups, blocks, P) tails, one padded input column and
    one block product. A row fed by one group sums its members in the
    order of a per-group run; a row fed by several sums their products
    interleaved. The float64 carry is ill-conditioned on clustered
    high-gain poles: on (1 - 0.9 z^-1)^5 a run is up to 1.3e-10 of its
    peak from a long-double recursion, where lfilter is up to 2.1e-11.
    """

    def __init__(self, groups, n_out: int):
        groups = [(int(o), np.asarray(a, dtype=float),
                   [(int(j), np.atleast_1d(np.asarray(b, dtype=float)))
                    for j, b in members]) for o, a, members in groups]
        self.n_out = n_out
        self.out = [o for o, _, _ in groups]
        self.cols = [[j for j, _ in members] for _, _, members in groups]
        self.q = [max(b.size for _, b in members) for _, _, members in groups]
        self.P = P = max((a.size - 1 for _, a, _ in groups), default=0)
        self.Q = max(self.q, default=1)
        G = len(groups)
        a = np.zeros((G, P + 1))
        for g, (_, ag, _) in enumerate(groups):
            a[g, :ag.size] = ag
        self.recursive = bool(np.any(a[:, 1:]))
        self.B = B = max(IIR_BLOCK if self.recursive else FIR_BLOCK, P)
        # Ta^-1 is the lower-triangular Toeplitz matrix of h, the first B
        # taps of 1 / a, taken by the recursion in long double so that no
        # rounding compounds along it
        h = np.zeros((G, B), dtype=np.longdouble)
        h[:, 0] = 1.0
        a_ld = a.astype(np.longdouble)
        for t in range(1, B):
            k = min(t, P)
            h[:, t] = -np.einsum("gi,gi->g", a_ld[:, 1:k + 1],
                                 h[:, t - 1::-1][:, :k])
        r = np.arange(B)[:, None]
        lag = r - np.arange(B)[None, :]
        ta_inv = np.where(lag >= 0, h.astype(float)[:, np.maximum(lag, 0)],
                          0.0)
        # y_prev[p] is y at t0 - P + p, so Ay[r, p] = a[r + P - p] for
        # 1 <= r + P - p <= P
        ai = r + P - np.arange(P)[None, :]
        ay = np.where((ai >= 1) & (ai <= P), a[:, np.minimum(ai, P)], 0.0)
        self.Zt = -np.swapaxes(ta_inv @ ay, 1, 2).copy()     # (G, P, B)
        self.zt_tail = self.Zt[:, :, B - P:].copy()
        # per member M transposed, (B + q - 1, B), so that a run multiplies
        # the (n_blocks, B + q - 1) window matrix from the right; listed
        # by input column, then group, then member
        by_col = {}
        for g, (_, _, members) in enumerate(groups):
            q = self.q[g]
            lb = r + q - 1 - np.arange(B + q - 1)[None, :]
            band = (lb >= 0) & (lb < q)
            for j, b in members:
                bp = np.zeros(q)
                bp[:b.size] = b
                bt = np.where(band, bp[np.clip(lb, 0, q - 1)], 0.0)
                by_col.setdefault(j, []).append(
                    (g, q, (ta_inv[g] @ bt).T.copy()))
        self.by_col = sorted(by_col.items())

    def run(self, x: np.ndarray) -> np.ndarray:
        """Outputs (T, n_out) for an input signal x of shape (T, m)."""
        x = np.asarray(x, dtype=float)
        T = x.shape[0]
        B, P, Q = self.B, self.P, self.Q
        nb = -(-T // B)
        out = np.zeros((self.n_out, nb, B))
        # tails[g, k]: the last P outputs of block k from group g's members
        tails = np.zeros((len(self.out), nb, P))
        carried = self.recursive and nb > 1
        xj = np.zeros(Q - 1 + nb * B)
        cur = xj[Q - 1:].reshape(nb, B)
        # for a numerator of q taps, the q - 1 samples before each block
        s = xj.strides[0]
        past = {q: np.lib.stride_tricks.as_strided(
            xj[Q - q:], shape=(nb, q - 1), strides=(s * B, s),
            writeable=False) for q in set(self.q) if q > 1}
        # members on all-zero columns add nothing
        for j, members in self.by_col:
            xj[Q - 1:Q - 1 + T] = x[:, j]
            if not cur.any():
                continue
            for g, q, mt in members:
                row = out[self.out[g]]
                prod = cur @ mt[q - 1:]
                row += prod
                if carried:
                    tails[g] += prod[:, B - P:]
                if q > 1:
                    prod = past[q] @ mt[:q - 1]
                    row += prod
                    if carried:
                        tails[g] += prod[:, B - P:]
        if carried:
            # tails[:, k - 1] becomes y_prev of block k, the carry
            # tails[:, k - 1] + y_prev(k - 1) Zt_tail; block 0 has none
            for k in range(2, nb):
                tails[:, k - 1:k] += tails[:, k - 2:k - 1] @ self.zt_tail
            for g, o in enumerate(self.out):
                out[o, 1:] += tails[g, :nb - 1] @ self.Zt[g]
        return out.reshape(self.n_out, nb * B)[:, :T].T


def as_signal(u) -> np.ndarray:
    """Input as (T, m) floats; 1-D is T samples of one channel."""
    u = np.asarray(u, dtype=float)
    return u.reshape(-1, 1) if u.ndim < 2 else u


def simulate(sys, u: np.ndarray) -> np.ndarray:
    """Run a system over an input array (T, m) from zero initial state.

    Transfer-matrix entries that share a row and a denominator form one
    IirBank group: their numerator outputs are summed before one pass of
    the common recursion.
    """
    u = as_signal(u)
    sys = as_matrix(sys)
    if u.shape[1] != sys.m:
        raise DimensionMismatch(
            f"input has {u.shape[1]} channels, system expects {sys.m}")
    return sys.bank().run(u)


def effective_length(sys) -> int:
    """Shortest horizon after which the impulse-response tail energy is
    below EFFECTIVE_TAIL_TOL relative to the total (EFFECTIVE_LENGTH_CAP
    at most)."""
    sys = as_matrix(sys)
    if sys.is_fir():
        return max(max(e.num.size for row in sys.entries for e in row), 1)
    n = 256
    while n <= EFFECTIVE_LENGTH_CAP:
        h = sys.impulse(n)
        energy = np.cumsum(np.sum(h ** 2, axis=(1, 2)))
        total = energy[-1]
        if total == 0.0:
            return 1
        tail = total - energy
        idx = np.nonzero(tail <= EFFECTIVE_TAIL_TOL * total)[0]
        if idx.size and idx[0] < n - n // 4:
            return int(idx[0]) + 1
        n *= 2
    return EFFECTIVE_LENGTH_CAP
