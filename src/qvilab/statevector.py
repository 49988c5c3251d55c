"""Exact small-register statevector realization of binary-oracle mean estimation.

This module rebuilds the whole pipeline from first principles: fixed-point
binary oracles, the amplitude-encoding unitary built from Hadamards and a
controlled rotation, the product state whose flag-zero weight is the scaled
mean, phase-estimation-based amplitude estimation, and median boosting.  It
exists to verify the query-model emulation layer's contracts on instances
small enough to simulate exactly.

The prepared state is held on its support: the value register is uncomputed
to |0>, so of the 2**(n+q+2) amplitudes over index (n qubits), dist_flag,
value (q qubits) and rot_flag only the 4 * 2**n of :func:`psi2_support` can be
nonzero.  :func:`qmebo_exact` estimates a stack of rows from them in one call;
:func:`prepare_psi2` scatters them into the full register for circuit checks.

Amplitude estimation reduces to the two-dimensional invariant subspace of the
reflection product (eigenphases ±2θ with a = sin²θ) and samples the exact
phase-estimation outcome law in closed form: one sine over the T outcomes per
row, mirrored for the -2θ half (:func:`ae_outcome_distribution`).
:func:`ae_outcome_distribution_circuit` simulates the phase-estimation circuit
on the full register instead; it is feasible only for small widths and is the
reference the closed form is checked against.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .emulation import check_binary_query

NORM_TOL = 1e-10

# the circuit simulation refuses to build anything larger than this many amplitudes
_FULL_REGISTER_CAP = 2**24


@dataclass(frozen=True)
class FixedPointFormat:
    """Unsigned fixed-point layout: ``total_bits`` wide, ``frac_bits`` fractional.

    Encodes reals in [0, 2**(total_bits - frac_bits)) to the nearest multiple
    of 2**-frac_bits; the round trip errs by at most 2**-frac_bits.
    """

    total_bits: int = 16
    frac_bits: int = 12

    def __post_init__(self):
        if self.total_bits < 1:
            raise ValueError("total_bits must be >= 1")
        if not 0 <= self.frac_bits <= self.total_bits:
            raise ValueError("frac_bits must lie in [0, total_bits]")

    @property
    def resolution(self) -> float:
        return 2.0**-self.frac_bits

    @property
    def max_value(self) -> float:
        return 2.0 ** (self.total_bits - self.frac_bits)

    def encode(self, x):
        """Round ``x`` to its fixed-point word(s)."""
        arr = np.asarray(x, dtype=np.float64)
        if arr.min() < 0 or arr.max() >= self.max_value:
            raise ValueError(
                f"value out of representable range [0, {self.max_value!r}): {arr!r}"
            )
        return np.rint(arr * 2.0**self.frac_bits).astype(np.int64)

    def decode(self, word):
        return np.asarray(word, dtype=np.float64) * self.resolution

    def quantize(self, x):
        return self.decode(self.encode(x))


class PureState:
    """Dense statevector over named qubit registers.

    The first register is the most significant block of the basis index.
    Squared amplitudes must sum to 1 within 1e-10.
    """

    __slots__ = ("registers", "amplitudes")

    def __init__(self, registers, amplitudes):
        registers = tuple((str(name), int(width)) for name, width in registers)
        if any(width < 1 for _, width in registers):
            raise ValueError("register widths must be >= 1")
        amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        total = sum(width for _, width in registers)
        if amps.size != 2**total:
            raise ValueError(
                f"amplitude vector has length {amps.size}, expected 2**{total}"
            )
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm!r}")
        self.registers = registers
        self.amplitudes = amps

    @property
    def total_width(self) -> int:
        return sum(width for _, width in self.registers)

    def _shifts(self) -> dict:
        shifts = {}
        below = self.total_width
        for name, width in self.registers:
            below -= width
            shifts[name] = (below, width)
        return shifts

    def mask(self, **fixed) -> np.ndarray:
        """Boolean mask selecting basis states with the given register values."""
        shifts = self._shifts()
        idx = np.arange(self.amplitudes.size)
        keep = np.ones(self.amplitudes.size, dtype=bool)
        for name, value in fixed.items():
            if name not in shifts:
                raise ValueError(f"no register named {name!r} in layout {self.registers}")
            shift, width = shifts[name]
            keep &= ((idx >> shift) & (2**width - 1)) == value
        return keep

    def probability(self, mask: np.ndarray) -> float:
        if mask.shape != self.amplitudes.shape:
            raise ValueError("projector mask is incompatible with the register layout")
        return float(np.sum(np.abs(self.amplitudes[mask]) ** 2))


@dataclass(frozen=True)
class BinaryOracleSpec:
    """A binary oracle writing fixed-point function values into an ancilla.

    The unitary action |i>|m> -> |i>|m XOR word(f_i)> is a basis permutation,
    hence an involution.
    """

    values: np.ndarray
    fmt: FixedPointFormat

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if arr.size == 0:
            raise ValueError("oracle needs at least one value")
        object.__setattr__(self, "values", arr)

    @property
    def domain_size(self) -> int:
        return self.values.size

    @property
    def index_width(self) -> int:
        return _index_width(self.domain_size)

    def words(self) -> np.ndarray:
        return self.fmt.encode(self.values)

    def permutation(self) -> np.ndarray:
        """Basis permutation over (index ⊗ value) for XOR-write semantics.

        ``perm[x]`` is the image of basis state x.  The index register spans
        2**index_width slots; entries beyond ``domain_size`` act as identity.
        """
        n_index = 2**self.index_width
        q = self.fmt.total_bits
        words = np.zeros(n_index, dtype=np.int64)
        words[: self.domain_size] = self.words()
        idx = np.arange(n_index * 2**q)
        i_part = idx >> q
        m_part = idx & (2**q - 1)
        return (i_part << q) | (m_part ^ words[i_part])

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """Apply the oracle to a vector over (index ⊗ value)."""
        perm = self.permutation()
        out = np.zeros_like(amplitudes)
        out[perm] = amplitudes
        return out


def _index_width(n: int) -> int:
    """Qubits of the index register over n outcomes (at least one)."""
    return max(1, math.ceil(math.log2(n)))


def _padded(x: np.ndarray) -> np.ndarray:
    """``x`` with its last axis padded with zeros to a power of two (at least 2)."""
    pad = 2 ** _index_width(x.shape[-1]) - x.shape[-1]
    return np.concatenate([x, np.zeros(x.shape[:-1] + (pad,))], axis=-1)


def _rotation_block(v: float) -> np.ndarray:
    """Single-qubit rotation sending |0> to sqrt(v)|0> + sqrt(1-v)|1>."""
    v = min(max(v, 0.0), 1.0)
    c, s = math.sqrt(v), math.sqrt(1.0 - v)
    return np.array([[c, -s], [s, c]])


def build_up_hat(p, fmt: FixedPointFormat) -> np.ndarray:
    """Amplitude-encoding unitary over (index register ⊗ 1 flag qubit).

    Built from Hadamards on the index register, the distribution's binary
    oracle, a controlled rotation reading the fixed-point word, and the
    oracle's inverse.  Because the oracle writes and later erases the word
    deterministically, the composite restricted to a cleared value register
    collapses to an index-controlled rotation; this function returns that
    (2N x 2N) restriction directly.  On |0>|0> it prepares
    sum_i sqrt(p_i/N) |i>|0> + sum_i sqrt((1-p_i)/N) |i>|1>.

    The distribution is padded with zeros to the next power of two.
    """
    probs, _ = check_binary_query(p, np.zeros(np.size(p)))
    probs = _padded(probs)
    n_full, width = probs.size, _index_width(probs.size)
    nonzero = probs[probs > 0]
    if nonzero.size and fmt.resolution > nonzero.min() / 4.0:
        warnings.warn(
            "fixed-point resolution is coarse relative to the smallest nonzero "
            f"probability ({nonzero.min()!r}); encoded amplitudes may collapse",
            RuntimeWarning,
            stacklevel=2,
        )
    quantized = fmt.quantize(probs)
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    h_n = np.array([[1.0]])
    for _ in range(width):
        h_n = np.kron(h_n, hadamard)
    # Index-controlled rotation: block diagonal over index values.
    out = np.zeros((2 * n_full, 2 * n_full))
    for j in range(n_full):
        block = _rotation_block(float(quantized[j]))
        out[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = block
    return out @ np.kron(h_n, np.eye(2))


def psi2_support(probs: np.ndarray, values: np.ndarray, fmt: FixedPointFormat) -> np.ndarray:
    """Amplitudes of :func:`prepare_psi2`'s state on its support, per row.

    ``probs`` holds checked probability rows (..., N) and ``values`` the
    function (N,) in [0, 1]; both are padded with zeros to 2**n entries and
    quantized to ``fmt``.  Returns real amplitudes of shape (..., 2**n, 2, 2)
    over (index, dist_flag, rot_flag) with the value register at 0; every
    other amplitude of the full register is zero.  Raises ``ValueError`` if a
    row's squared amplitudes do not sum to 1 within ``NORM_TOL``.
    """
    pq = fmt.quantize(_padded(probs))
    fq = fmt.quantize(_padded(values))
    scale = 1.0 / math.sqrt(fq.size)
    amps = np.empty(pq.shape + (2, 2))
    amps[..., 0, 0] = scale * np.sqrt(pq * fq)
    amps[..., 0, 1] = scale * np.sqrt(pq * (1.0 - fq))
    amps[..., 1, 0] = scale * np.sqrt((1.0 - pq) * fq)
    amps[..., 1, 1] = scale * np.sqrt((1.0 - pq) * (1.0 - fq))
    norm = np.reshape(np.sum(amps**2, axis=(-3, -2, -1)), -1)
    off = np.abs(norm - 1.0) > NORM_TOL
    if off.any():
        raise ValueError(f"state is not normalized: |psi|^2 = {float(norm[off][0])!r}")
    return amps


def prepare_psi2(p, f, fmt: FixedPointFormat) -> PureState:
    """Product state whose flag-zero projection weight is (1/N) p.f.

    Registers: index (n), dist_flag (1), value (q, returned to zero after the
    function oracle is reverted), rot_flag (1).  The amplitudes are
    :func:`psi2_support`'s, computed with the fixed-point-quantized entries,
    so the projection weight matches (1/N) p.f up to the per-entry rounding
    of p and f.
    """
    probs, values = check_binary_query(p, f)
    if probs.ndim != 1:
        raise ValueError("prepare_psi2 prepares the state of one distribution")
    support = psi2_support(probs, values, fmt)
    q = fmt.total_bits
    # Basis index layout: index | dist_flag | value | rot_flag.
    amps = np.zeros((support.shape[0], 2, 2**q, 2), dtype=np.complex128)
    amps[:, :, 0, :] = support
    registers = (("index", _index_width(values.size)), ("dist_flag", 1), ("value", q),
                 ("rot_flag", 1))
    return PureState(registers, amps)


def mean_projector(state: PureState) -> np.ndarray:
    """Mask of the all-ancilla-zero subspace used by the mean pipeline."""
    return state.mask(dist_flag=0, value=0, rot_flag=0)


# ---------------------------------------------------------------------------
# Amplitude estimation
# ---------------------------------------------------------------------------


def ae_outcome_distribution(a: float, t: int) -> np.ndarray:
    """Outcome law of t-point amplitude estimation for true amplitude ``a``.

    The estimating measurement lives in the two-dimensional invariant
    subspace of the reflection product, whose eigenphase fractions ±omega,
    omega = arcsin(sqrt(a))/pi, carry half the weight each.  Each half is the
    Fejér kernel sin²(pi(t omega - y)) / (t sin(pi(omega - y/t)))², the -omega
    one mirrored by y -> (t - y) mod t.  Off the grid y/t the numerator does
    not depend on y, so the law is 1/sin²(pi(omega - y/t)) plus its mirror,
    normalised; on it (a in {0, 1} among others), a point mass plus its mirror.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if not 0.0 <= a <= 1.0 + 1e-12:
        raise ValueError(f"amplitude must lie in [0, 1], got {a!r}")
    omega = math.asin(math.sqrt(min(a, 1.0))) / math.pi
    k = round(t * omega)
    if abs(omega - k / t) < 1e-14:
        return np.bincount([k % t, -k % t], minlength=t) / 2.0
    y = np.arange(t)
    law = 1.0 / np.sin(np.pi * (omega - y / t)) ** 2
    law += law[-y]
    return law / law.sum()


def estimate_from_outcome(y, t):
    """The amplitude sin²(pi y / t) read from outcome y of t points, elementwise on arrays."""
    return (np.sin(np.pi * np.asarray(y) / t) ** 2)[()]


def ae_error_bound(a: float, t: int) -> float:
    """Guaranteed estimation error at confidence 8/pi^2."""
    return 2.0 * math.pi * math.sqrt(a * (1.0 - a)) / t + math.pi**2 / t**2


def ae_outcome_distribution_circuit(state: PureState, mask: np.ndarray, t: int) -> np.ndarray:
    """Outcome law from simulating the phase-estimation circuit itself.

    The counting register is a single dimension-t slot (Fourier transform
    over Z_t), the reflections are applied as linear maps, and the final
    inverse transform is evaluated exactly.  Only feasible for small states.
    """
    if mask.shape != state.amplitudes.shape:
        raise ValueError("projector mask is incompatible with the register layout")
    dim = state.amplitudes.size
    if dim * t > _FULL_REGISTER_CAP:
        raise ValueError(
            f"full-register simulation of dimension {dim} x {t} exceeds the cap; "
            "use ae_outcome_distribution"
        )
    psi = state.amplitudes
    # Reflection product: (2|psi><psi| - I)(I - 2P) applied vectorwise.
    def grover(v: np.ndarray) -> np.ndarray:
        w = v.copy()
        w[mask] *= -1.0
        return 2.0 * np.vdot(psi, w) * psi - w

    powers = np.empty((t, dim), dtype=np.complex128)
    powers[0] = psi
    for k in range(1, t):
        powers[k] = grover(powers[k - 1])
    # Inverse Fourier transform over the counting register, then measure it.
    k = np.arange(t)
    phases = np.exp(-2.0j * np.pi * np.outer(k, k) / t) / t
    spectrum = phases @ powers
    dist = np.sum(np.abs(spectrum) ** 2, axis=1)
    return dist / dist.sum()


def powering_median(trials):
    """Median of repeated estimates along the last axis (lower median for even counts)."""
    values = np.sort(np.asarray(trials, dtype=np.float64), axis=-1)
    if values.shape[-1] == 0:
        raise ValueError("median of an empty sequence")
    return values[..., (values.shape[-1] - 1) // 2][()]


def ae_repetitions(n: int, eps: float) -> int:
    """Reflections per trial needed for a final mean error of eps over n outcomes.

    Solves eps*t^2 - pi^2*sqrt(n)*t - pi^2*n >= 0 for the minimal integer t,
    which makes the per-trial amplitude error at most eps/n with the stated
    confidence.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    pi2 = math.pi**2
    root = (pi2 * math.sqrt(n) + math.sqrt(pi2**2 * n + 4.0 * eps * pi2 * n)) / (2.0 * eps)
    t = max(1, math.ceil(root))
    while eps * t * t - pi2 * math.sqrt(n) * t - pi2 * n < 0:  # float-safety nudge
        t += 1
    return t


@dataclass(frozen=True)
class QmeboExactRun:
    """Outcome of exact-statevector mean estimation, for one row or a stack.

    ``encoding_offset`` is the exact shift of the estimation target caused by
    fixed-point rounding of the inputs: the trials concentrate around
    ``true_mean + encoding_offset`` rather than ``true_mean``.  For one row
    the fields are Python numbers and ``trials`` a tuple; for a stack of rows
    each field but ``repeats`` is an array with one entry per row, and
    ``trials`` has shape (..., repeats).
    """

    estimate: float
    true_mean: float
    amplitude: float
    encoding_offset: float
    grover_powers: int
    repeats: int
    trials: tuple


def qmebo_exact(
    p,
    f,
    eps,
    delta: float,
    fmt: FixedPointFormat,
    rng: np.random.Generator,
    kappa: float = 2.0,
) -> QmeboExactRun:
    """Exact-statevector mean estimation of p.f for f in [0, 1]^N.

    ``p`` is one distribution (N,) or a stack of them (..., N), and ``eps`` a
    scalar or one value per row.  Each row runs K = ceil(kappa * ln(1/delta))
    independent amplitude estimations with T reflections each on its prepared
    product state and returns N times the median, at a cost of 2*T*K queries
    per row to each binary oracle.  With probability at least 1 - delta a row's
    estimate is within eps of p.f up to the reported encoding offset.

    The rows are checked once and prepared together on their support (see
    :func:`psi2_support`).  Draw protocol: row after row in C order, each row
    builds its outcome law and draws K uniforms, ``rng.random(K)``, inverted
    through the law's cdf (cumsum over its last entry, ``searchsorted`` with
    ``side="right"``), as ``rng.choice(T, size=K, p=law)`` would.  So a stack
    draws what its rows' one-row calls draw and holds one law at a time (its
    cdf is built in place); the stack's outcomes are then decoded in one call.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    probs, values = check_binary_query(p, f)
    shape = probs.shape[:-1]
    rows = probs.reshape(-1, values.size)
    support = psi2_support(rows, values, fmt)
    n_full = support.shape[1]
    row_eps = np.broadcast_to(eps, shape).reshape(-1).tolist()
    t_of = {e: ae_repetitions(n_full, e) for e in set(row_eps)}
    t_row = np.array([t_of[e] for e in row_eps], dtype=np.int64)
    repeats = max(1, math.ceil(kappa * math.log(1.0 / delta)))
    # Each row's projection weight on the all-ancilla-zero subspace.
    amplitude = np.sum(support[:, :, 0, 0] ** 2, axis=-1)
    true_mean = rows @ values
    outcomes = np.empty((len(rows), repeats), dtype=np.int64)
    for i, t in enumerate(t_row.tolist()):
        law = ae_outcome_distribution(float(amplitude[i]), t)
        cdf = np.cumsum(law, out=law)
        cdf /= cdf[-1]
        outcomes[i] = cdf.searchsorted(rng.random(repeats), side="right")
    trials = estimate_from_outcome(outcomes, t_row[:, None])
    estimate = n_full * powering_median(trials)
    fields = (estimate, true_mean, amplitude, n_full * amplitude - true_mean, t_row)
    if probs.ndim == 1:
        return QmeboExactRun(*(x[0].item() for x in fields), repeats, tuple(trials[0].tolist()))
    return QmeboExactRun(*(x.reshape(shape) for x in fields), repeats,
                         trials.reshape(shape + (repeats,)))
