"""Causal discrete-time LTI systems: rational filters, transfer matrices,
state-space realizations, frequency grids, H2 norms and simulation.

Conventions: transfer functions are written in ascending powers of z^-1
with a monic denominator; frequency grids sample omega_q = q*pi/N for
q = 0..N and real-coefficient systems extend to [-pi, 0) by conjugation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal

from .errors import (DimensionMismatch, ImproperTransferFunction,
                     LyapunovFailure, UnstableSystem)
from .streams import EventStream

STABILITY_TOL = 1e-9
DEFAULT_GRID = 1024
GRAMIAN_TOL = 1e-12


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

    def is_zero(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self.num) <= tol))

    def poles(self) -> np.ndarray:
        if self.den.size == 1:
            return np.zeros(0, dtype=complex)
        return np.roots(self.den)

    def zeros(self) -> np.ndarray:
        nz = _trim(self.num)
        if nz.size == 1:
            return np.zeros(0, dtype=complex)
        return np.roots(nz)

    def is_stable(self, tol: float = STABILITY_TOL) -> bool:
        p = self.poles()
        return bool(p.size == 0 or np.max(np.abs(p)) < 1.0 - tol)

    def is_minimum_phase(self, tol: float = STABILITY_TOL) -> bool:
        z = self.zeros()
        return (not self.is_zero()) and bool(
            z.size == 0 or np.max(np.abs(z)) < 1.0 - tol)

    def eval(self, z):
        """Value of the transfer function at complex point(s) z."""
        zi = 1.0 / np.asarray(z, dtype=complex)
        n = np.polyval(self.num[::-1], zi)
        d = np.polyval(self.den[::-1], zi)
        return n / d

    def freq(self, omega):
        return self.eval(np.exp(1j * np.asarray(omega, dtype=float)))

    def impulse(self, n: int) -> np.ndarray:
        x = np.zeros(n)
        x[0] = 1.0
        return signal.lfilter(self.num, self.den, x)

    def filt(self, x: np.ndarray) -> np.ndarray:
        return signal.lfilter(self.num, self.den, np.asarray(x, dtype=float))

    def cascade(self, other: "RationalFilter") -> "RationalFilter":
        return RationalFilter(np.convolve(self.num, other.num),
                              np.convolve(self.den, other.den))

    def scale(self, c: float) -> "RationalFilter":
        return RationalFilter(self.num * c, self.den)

    def inverse(self) -> "RationalFilter":
        num = _trim(self.num)
        if num[0] == 0.0:
            raise ImproperTransferFunction(
                "inverse of a filter with zero lag-0 coefficient is acausal")
        return RationalFilter(self.den, num)

    @staticmethod
    def constant(c: float) -> "RationalFilter":
        return RationalFilter([float(c)])

    @staticmethod
    def delay(k: int, gain: float = 1.0) -> "RationalFilter":
        num = np.zeros(k + 1)
        num[k] = gain
        return RationalFilter(num)


ZERO_FILTER = RationalFilter([0.0])


class TransferMatrix:
    """A p-by-m grid of RationalFilter entries sharing the z^-1 convention."""

    def __init__(self, entries):
        if isinstance(entries, RationalFilter):
            entries = [[entries]]
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
        one = RationalFilter([1.0])
        return TransferMatrix([[one if i == j else ZERO_FILTER
                                for j in range(m)] for i in range(m)])

    @staticmethod
    def diagonal(filters) -> "TransferMatrix":
        filters = list(filters)
        m = len(filters)
        return TransferMatrix([[filters[i] if i == j else ZERO_FILTER
                                for j in range(m)] for i in range(m)])

    @staticmethod
    def from_rows(rows) -> "TransferMatrix":
        return TransferMatrix(rows)

    def column(self, j: int) -> "TransferMatrix":
        return TransferMatrix([[self.entries[i][j]] for i in range(self.p)])

    def is_stable(self, tol: float = STABILITY_TOL) -> bool:
        return all(e.is_stable(tol) for row in self.entries for e in row)

    def is_diagonal(self) -> bool:
        if self.p != self.m:
            return False
        return all(self.entries[i][j].is_zero()
                   for i in range(self.p) for j in range(self.m) if i != j)

    def diagonal_entries(self) -> list[RationalFilter]:
        return [self.entries[i][i] for i in range(min(self.p, self.m))]

    def is_fir(self) -> bool:
        return all(e.is_fir for row in self.entries for e in row)

    def eval(self, z) -> np.ndarray:
        out = np.empty((self.p, self.m), dtype=complex)
        for i in range(self.p):
            for j in range(self.m):
                out[i, j] = self.entries[i][j].eval(z)
        return out

    def freq(self, omega) -> np.ndarray:
        omega = np.atleast_1d(np.asarray(omega, dtype=float))
        out = np.empty((omega.size, self.p, self.m), dtype=complex)
        for i in range(self.p):
            for j in range(self.m):
                out[:, i, j] = self.entries[i][j].freq(omega)
        return out

    def dc_gain(self) -> np.ndarray:
        return self.eval(1.0).real

    def impulse(self, n: int) -> np.ndarray:
        """Matrix impulse response, shape (n, p, m)."""
        out = np.zeros((n, self.p, self.m))
        for i in range(self.p):
            for j in range(self.m):
                out[:, i, j] = self.entries[i][j].impulse(n)
        return out

    def cascade_diag_inverse(self, g: "TransferMatrix") -> "TransferMatrix":
        """Entrywise right-division by a diagonal g: returns self * g^-1."""
        if not g.is_diagonal():
            raise NotImplementedError("only diagonal right-division supported")
        rows = []
        for i in range(self.p):
            row = []
            for j in range(self.m):
                e = self.entries[i][j]
                gj = g.entries[j][j]
                if e.is_zero():
                    row.append(ZERO_FILTER)
                else:
                    row.append(e.cascade(gj.inverse()))
            rows.append(row)
        return TransferMatrix(rows)


@dataclass
class StateSpace:
    """x_{t+1} = A x_t + B u_t, y_t = C x_t + D u_t, with x_0 = 0."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.B = np.atleast_2d(np.asarray(self.B, dtype=float))
        self.C = np.atleast_2d(np.asarray(self.C, dtype=float))
        self.D = np.atleast_2d(np.asarray(self.D, dtype=float))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise DimensionMismatch("A must be square")
        if self.B.shape[0] != n or self.C.shape[1] != n:
            raise DimensionMismatch("B/C dimensions inconsistent with A")
        if self.D.shape != (self.C.shape[0], self.B.shape[1]):
            raise DimensionMismatch("D dimensions inconsistent with B/C")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.p, self.m)

    def spectral_radius(self) -> float:
        if self.n == 0:
            return 0.0
        return float(np.max(np.abs(np.linalg.eigvals(self.A))))

    def is_stable(self, tol: float = STABILITY_TOL) -> bool:
        return self.spectral_radius() < 1.0 - tol

    def eval(self, z) -> np.ndarray:
        if self.n == 0:
            return self.D.astype(complex)
        zi = complex(z)
        x = np.linalg.solve(zi * np.eye(self.n) - self.A, self.B)
        return self.C @ x + self.D

    def freq(self, omega) -> np.ndarray:
        omega = np.atleast_1d(np.asarray(omega, dtype=float))
        out = np.empty((omega.size, self.p, self.m), dtype=complex)
        for q, w in enumerate(omega):
            out[q] = self.eval(np.exp(1j * w))
        return out

    def impulse(self, n: int) -> np.ndarray:
        out = np.zeros((n, self.p, self.m))
        out[0] = self.D
        x = self.B.copy()
        for t in range(1, n):
            out[t] = self.C @ x
            x = self.A @ x
        return out

    def simulate_array(self, u: np.ndarray) -> np.ndarray:
        u = np.atleast_2d(np.asarray(u, dtype=float))
        if u.shape[1] != self.m:
            raise DimensionMismatch(
                f"input has {u.shape[1]} channels, system expects {self.m}")
        T = u.shape[0]
        y = np.empty((T, self.p))
        x = np.zeros(self.n)
        for t in range(T):
            y[t] = self.C @ x + self.D @ u[t]
            x = self.A @ x + self.B @ u[t]
        return y


@dataclass
class SpectrumGrid:
    """Matrix-valued samples on omega_q = q*pi/N, q = 0..N."""

    samples: np.ndarray        # (N+1, d1, d2) complex

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim == 1:
            s = s[:, None, None]
        if s.ndim != 3:
            raise DimensionMismatch("samples must have shape (N+1, d1, d2)")
        self.samples = s

    @property
    def n_grid(self) -> int:
        return self.samples.shape[0] - 1

    @property
    def shape(self) -> tuple[int, int]:
        return self.samples.shape[1:]

    @property
    def omega(self) -> np.ndarray:
        N = self.n_grid
        return np.arange(N + 1) * np.pi / N

    def scalar(self) -> np.ndarray:
        if self.shape != (1, 1):
            raise DimensionMismatch("not a scalar grid")
        return self.samples[:, 0, 0]

    def hermitian_error(self) -> float:
        h = self.samples - np.conj(np.swapaxes(self.samples, 1, 2))
        return float(np.max(np.abs(h)))

    def min_eigenvalue(self) -> float:
        sym = 0.5 * (self.samples + np.conj(np.swapaxes(self.samples, 1, 2)))
        return float(np.min(np.linalg.eigvalsh(sym)))


def grid_omega(N: int) -> np.ndarray:
    return np.arange(N + 1) * np.pi / N


def trapezoid_mean(values: np.ndarray) -> np.ndarray:
    """(1/2pi) * integral over [-pi, pi] of an even function sampled on the
    [0, pi] grid, by the trapezoidal rule."""
    values = np.asarray(values)
    N = values.shape[0] - 1
    w = np.ones(N + 1)
    w[0] = w[-1] = 0.5
    w = w / N
    return np.tensordot(w, values, axes=(0, 0))


def _require_stable(sys) -> None:
    if not sys.is_stable():
        raise UnstableSystem("system has poles on or outside the unit circle")


def freq_response(sys, N: int = DEFAULT_GRID) -> SpectrumGrid:
    """Sample the transfer matrix at z = exp(j*q*pi/N), q = 0..N."""
    if N < 8:
        raise ValueError("grid size N must be at least 8")
    if isinstance(sys, RationalFilter):
        sys = TransferMatrix([[sys]])
    _require_stable(sys)
    return SpectrumGrid(sys.freq(grid_omega(N)))


def observability_gramian(ss: StateSpace, tol: float = GRAMIAN_TOL,
                          max_iter: int = 200) -> np.ndarray:
    """Solve A^T P0 A - P0 + C^T C = 0 by fixed-point doubling."""
    if ss.n == 0:
        return np.zeros((0, 0))
    if not ss.is_stable():
        raise UnstableSystem("Gramian requires spectral radius(A) < 1")
    P = ss.C.T @ ss.C
    M = ss.A.copy()
    scale = max(1.0, float(np.linalg.norm(P)))
    for _ in range(max_iter):
        incr = M.T @ P @ M
        P = P + incr
        M = M @ M
        if np.linalg.norm(incr) <= tol * scale:
            return 0.5 * (P + P.T)
    raise LyapunovFailure("Lyapunov doubling did not converge")


def realize_state_space(tm: TransferMatrix) -> StateSpace:
    """Stack per-column controllable canonical forms block-diagonally.

    Each column gets a common denominator (product of its distinct entry
    denominators); no minimality is attempted.
    """
    if isinstance(tm, RationalFilter):
        tm = TransferMatrix([[tm]])
    p, m = tm.shape
    blocks = []
    for j in range(m):
        dens = []
        for i in range(p):
            d = tm[i, j].den
            if not any(np.array_equal(d, seen) for seen in dens):
                dens.append(d)
        common = np.array([1.0])
        for d in dens:
            common = np.convolve(common, d)
        nums = []
        for i in range(p):
            mult = np.array([1.0])
            used = False
            for d in dens:
                if not used and np.array_equal(d, tm[i, j].den):
                    used = True
                    continue
                mult = np.convolve(mult, d)
            nums.append(np.convolve(tm[i, j].num, mult))
        n = max(common.size - 1, max(v.size - 1 for v in nums))
        a = np.zeros(n + 1)
        a[: common.size] = common
        A = np.zeros((n, n))
        if n:
            A[0, :] = -a[1:]
            A[1:, :-1] = np.eye(n - 1)
        Bcol = np.zeros((n, 1))
        if n:
            Bcol[0, 0] = 1.0
        C = np.zeros((p, n))
        D = np.zeros((p, 1))
        for i, v in enumerate(nums):
            b = np.zeros(n + 1)
            b[: v.size] = v
            D[i, 0] = b[0]
            if n:
                C[i, :] = b[1:] - b[0] * a[1:]
        blocks.append((A, Bcol, C, D))
    n_tot = sum(b[0].shape[0] for b in blocks)
    A = np.zeros((n_tot, n_tot))
    B = np.zeros((n_tot, m))
    C = np.zeros((p, n_tot))
    D = np.zeros((p, m))
    at = 0
    for j, (Aj, Bj, Cj, Dj) in enumerate(blocks):
        nj = Aj.shape[0]
        A[at: at + nj, at: at + nj] = Aj
        B[at: at + nj, j: j + 1] = Bj
        C[:, at: at + nj] = Cj
        D[:, j: j + 1] = Dj
        at += nj
    return StateSpace(A, B, C, D)


def h2_norm(sys, method: str = "auto", N: int = DEFAULT_GRID) -> float:
    """H2 norm: sqrt of total impulse-response energy over all input/
    output pairs.

    method 'gramian' uses trace(B^T P0 B + D^T D) on a realization,
    'frequency' uses trapezoidal integration of Tr(G*G) on the grid,
    'auto' picks the exact coefficient sum for FIR systems and the
    Gramian path otherwise.
    """
    if isinstance(sys, RationalFilter):
        sys = TransferMatrix([[sys]])
    _require_stable(sys)
    if method == "frequency":
        g = freq_response(sys, N).samples if isinstance(sys, TransferMatrix) \
            else sys.freq(grid_omega(N))
        tr = np.einsum("qij,qij->q", np.conj(g), g).real
        return float(np.sqrt(trapezoid_mean(tr)))
    if isinstance(sys, TransferMatrix):
        if method == "auto" and sys.is_fir():
            total = sum(float(np.sum(e.num ** 2))
                        for row in sys.entries for e in row)
            return float(np.sqrt(total))
        ss = realize_state_space(sys)
    else:
        ss = sys
    P0 = observability_gramian(ss)
    val = float(np.trace(ss.B.T @ P0 @ ss.B) + np.trace(ss.D.T @ ss.D))
    return float(np.sqrt(max(val, 0.0)))


def simulate(sys, stream):
    """Run a system over a stream (or raw array) from zero initial state."""
    arr_in = isinstance(stream, np.ndarray)
    u = np.atleast_2d(stream) if arr_in else stream.data
    if isinstance(sys, RationalFilter):
        sys = TransferMatrix([[sys]])
    if isinstance(sys, StateSpace):
        y = sys.simulate_array(u)
    else:
        p, m = sys.shape
        if u.shape[1] != m:
            raise DimensionMismatch(
                f"input has {u.shape[1]} channels, system expects {m}")
        y = np.zeros((u.shape[0], p))
        for i in range(p):
            for j in range(m):
                e = sys.entries[i][j]
                if not e.is_zero():
                    y[:, i] += e.filt(u[:, j])
    if arr_in:
        return y
    return EventStream(y, [f"y{i + 1}" for i in range(y.shape[1])],
                       stream.dt_label)


def effective_length(sys, tol: float = 1e-8, cap: int = 65536) -> int:
    """Shortest horizon after which the impulse-response tail energy is
    below tol relative to the total."""
    if isinstance(sys, RationalFilter):
        sys = TransferMatrix([[sys]])
    if isinstance(sys, TransferMatrix) and sys.is_fir():
        return max(max(e.num.size for row in sys.entries for e in row), 1)
    n = 256
    while n <= cap:
        h = sys.impulse(n)
        energy = np.cumsum(np.sum(h ** 2, axis=(1, 2)))
        total = energy[-1]
        if total == 0.0:
            return 1
        tail = total - energy
        idx = np.nonzero(tail <= tol * total)[0]
        if idx.size and idx[0] < n - n // 4:
            return int(idx[0]) + 1
        n *= 2
    return cap
