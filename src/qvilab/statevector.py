"""Exact small-register statevector realization of binary-oracle mean estimation.

This module rebuilds the whole pipeline from first principles: fixed-point
binary oracles, the amplitude-encoding unitary built from Hadamards and a
controlled rotation, the product state whose flag-zero weight is the scaled
mean, phase-estimation-based amplitude estimation, and median boosting.  It
exists to verify the query-model emulation layer's contracts on instances
small enough to simulate exactly.

Amplitude estimation comes in two modes:

* ``subspace_exact`` reduces to the two-dimensional invariant subspace of the
  reflection product (eigenphases ±2θ with a = sin²θ) and samples the exact
  phase-estimation outcome law in closed form.  Cheap, any size.
* ``full_register`` simulates the phase-estimation circuit on the full
  register (counting register of dimension T, reflections applied as linear
  maps).  Feasible only for small widths; used to cross-check the closed form.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ledger import QueryLedger
from .mdp import as_probability_vector

NORM_TOL = 1e-10

# full_register mode refuses to build anything larger than this many amplitudes
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

    def basis_index(self, **values) -> int:
        shifts = self._shifts()
        index = 0
        for name, value in values.items():
            shift, width = shifts[name]
            if not 0 <= value < 2**width:
                raise ValueError(f"value {value} does not fit register {name!r}")
            index |= value << shift
        return index

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

    def dump_amplitudes(self) -> dict:
        """Debug dump: basis string (registers ':'-separated) -> [re, im]."""
        if self.total_width > 12:
            raise ValueError("amplitude dumps are limited to widths <= 12 qubits")
        out = {}
        for idx, amp in enumerate(self.amplitudes):
            if amp == 0:
                continue
            parts = []
            below = self.total_width
            for name, width in self.registers:
                below -= width
                parts.append(format((idx >> below) & (2**width - 1), f"0{width}b"))
            out[":".join(parts)] = [float(amp.real), float(amp.imag)]
        return out


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
        return max(1, math.ceil(math.log2(self.domain_size)))

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


def _pad_to_power_of_two(p: np.ndarray, f: Optional[np.ndarray] = None):
    n = p.size
    width = max(1, math.ceil(math.log2(n)))
    full = 2**width
    if full != n:
        p = np.concatenate([p, np.zeros(full - n)])
        if f is not None:
            f = np.concatenate([f, np.zeros(full - n)])
    return (p, f, width) if f is not None else (p, width)


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
    probs = as_probability_vector(p)
    probs, width = _pad_to_power_of_two(probs)
    n_full = 2**width
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


def prepare_psi2(p, f, fmt: FixedPointFormat) -> PureState:
    """Product state whose flag-zero projection weight is (1/N) p.f.

    Registers: index (n), dist_flag (1), value (q, returned to zero after the
    function oracle is reverted), rot_flag (1).  All amplitudes are computed
    with the fixed-point-quantized entries, so the projection weight matches
    (1/N) p.f up to the per-entry rounding of p and f.
    """
    probs = as_probability_vector(p)
    values = np.asarray(f, dtype=np.float64).reshape(-1)
    if values.shape != probs.shape:
        raise ValueError("distribution and function must have the same length")
    if values.min() < 0 or values.max() > 1:
        raise ValueError("function values must lie in [0, 1]")
    probs, values, width = _pad_to_power_of_two(probs, values)
    n_full = 2**width
    pq = fmt.quantize(probs)
    fq = fmt.quantize(values)
    q = fmt.total_bits
    registers = (("index", width), ("dist_flag", 1), ("value", q), ("rot_flag", 1))
    amps = np.zeros(2 ** (width + q + 2), dtype=np.complex128)
    # Basis index layout: index | dist_flag | value | rot_flag.
    base = np.arange(n_full) << (q + 2)
    scale = 1.0 / math.sqrt(n_full)
    amps[base + 0] = scale * np.sqrt(pq * fq)  # dist 0, rot 0
    amps[base + 1] = scale * np.sqrt(pq * (1.0 - fq))  # dist 0, rot 1
    flag = 1 << (q + 1)
    amps[base + flag + 0] = scale * np.sqrt((1.0 - pq) * fq)
    amps[base + flag + 1] = scale * np.sqrt((1.0 - pq) * (1.0 - fq))
    return PureState(registers, amps)


def mean_projector(state: PureState) -> np.ndarray:
    """Mask of the all-ancilla-zero subspace used by the mean pipeline."""
    return state.mask(dist_flag=0, value=0, rot_flag=0)


# ---------------------------------------------------------------------------
# Amplitude estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AEConfig:
    """Amplitude-estimation schedule: reflections per trial and trial count."""

    grover_powers: int
    powering_repeats: int = 1
    mode: str = "subspace_exact"

    def __post_init__(self):
        if self.grover_powers < 1 or self.powering_repeats < 1:
            raise ValueError("grover_powers and powering_repeats must be >= 1")
        if self.mode not in ("subspace_exact", "full_register"):
            raise ValueError("mode must be 'subspace_exact' or 'full_register'")


def _pe_kernel(f: float, t: int) -> np.ndarray:
    """Exact t-point phase-estimation outcome law for eigenphase fraction f."""
    y = np.arange(t)
    delta = f - y / t
    frac = delta - np.round(delta)
    out = np.empty(t)
    on_grid = np.abs(frac) < 1e-14
    out[on_grid] = 1.0
    safe = ~on_grid
    out[safe] = (np.sin(np.pi * t * frac[safe]) ** 2) / (
        (t * np.sin(np.pi * frac[safe])) ** 2
    )
    return out


def ae_outcome_distribution(a: float, t: int) -> np.ndarray:
    """Outcome law of t-point amplitude estimation for true amplitude ``a``.

    The estimating measurement lives in the two-dimensional invariant
    subspace of the reflection product, whose eigenphase fractions are
    ±arcsin(sqrt(a))/pi, each carrying half the weight (degenerate at
    a in {0, 1}).
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if not 0.0 <= a <= 1.0 + 1e-12:
        raise ValueError(f"amplitude must lie in [0, 1], got {a!r}")
    a = min(a, 1.0)
    if a == 0.0:
        return _pe_kernel(0.0, t)
    if a == 1.0:
        return _pe_kernel(0.5, t)
    omega = math.asin(math.sqrt(a)) / math.pi
    dist = 0.5 * _pe_kernel(omega, t) + 0.5 * _pe_kernel(1.0 - omega, t)
    return dist / dist.sum()


def estimate_from_outcome(y: int, t: int) -> float:
    return math.sin(math.pi * y / t) ** 2


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
            "use subspace_exact mode"
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


def amplitude_estimation(
    state: PureState,
    mask: np.ndarray,
    t: int,
    rng: np.random.Generator,
    mode: str = "subspace_exact",
) -> float:
    """One amplitude-estimation trial; returns an estimate of <psi|P|psi>.

    Uses 2t reflections.  The estimate satisfies
    |estimate - a| <= 2 pi sqrt(a(1-a))/t + pi^2/t^2 with probability at
    least 8/pi^2.
    """
    if mode == "subspace_exact":
        a = state.probability(mask)
        dist = ae_outcome_distribution(a, t)
    elif mode == "full_register":
        dist = ae_outcome_distribution_circuit(state, mask, t)
    else:
        raise ValueError("mode must be 'subspace_exact' or 'full_register'")
    y = int(rng.choice(t, p=dist))
    return estimate_from_outcome(y, t)


def powering_median(trials) -> float:
    """Median of repeated estimates (lower median for even counts)."""
    values = sorted(float(x) for x in trials)
    if not values:
        raise ValueError("median of an empty sequence")
    return values[(len(values) - 1) // 2]


def ae_repetitions(n: int, eps: float, rule: str = "quadratic") -> int:
    """Reflections per trial needed for a final mean error of eps over n outcomes.

    ``quadratic`` solves eps*t^2 - pi^2*sqrt(n)*t - pi^2*n >= 0 for the
    minimal integer t, which makes the per-trial amplitude error at most
    eps/n with the stated confidence.  ``simple`` is the bare
    ceil(sqrt(n)/eps + sqrt(n/eps)) scaling law without constants; it charges
    fewer reflections but does not guarantee the eps target at small sizes.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if rule == "simple":
        return max(1, math.ceil(math.sqrt(n) / eps + math.sqrt(n / eps)))
    if rule != "quadratic":
        raise ValueError("rule must be 'quadratic' or 'simple'")
    pi2 = math.pi**2
    root = (pi2 * math.sqrt(n) + math.sqrt(pi2**2 * n + 4.0 * eps * pi2 * n)) / (2.0 * eps)
    t = max(1, math.ceil(root))
    while eps * t * t - pi2 * math.sqrt(n) * t - pi2 * n < 0:  # float-safety nudge
        t += 1
    return t


@dataclass(frozen=True)
class QmeboExactRun:
    """Outcome of one exact-statevector mean estimation.

    ``encoding_offset`` is the exact shift of the estimation target caused by
    fixed-point rounding of the inputs: the trials concentrate around
    ``true_mean + encoding_offset`` rather than ``true_mean``.
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
    eps: float,
    delta: float,
    fmt: FixedPointFormat,
    rng: np.random.Generator,
    ledger: Optional[QueryLedger] = None,
    kappa: float = 2.0,
    t_rule: str = "quadratic",
    mode: str = "subspace_exact",
    state: Optional[PureState] = None,
    schedule: Optional[AEConfig] = None,
) -> QmeboExactRun:
    """Exact-statevector mean estimation of p.f for f in [0, 1]^N.

    Runs K = ceil(kappa * ln(1/delta)) independent amplitude estimations with
    T reflections each on the prepared product state and returns N times the
    median.  Charges 2*T*K queries to each binary oracle.  With probability
    at least 1 - delta the estimate is within eps of p.f up to the reported
    encoding offset.

    Monte-Carlo callers repeating trials on one instance can pass the
    ``prepare_psi2`` output as ``state`` to skip rebuilding it per call.  An
    explicit ``schedule`` overrides the derived (T, K, mode) triple.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    probs = as_probability_vector(p)
    values = np.asarray(f, dtype=np.float64).reshape(-1)
    true_mean = float(probs @ values)
    if state is None:
        state = prepare_psi2(probs, values, fmt)
    n_full = 2 ** dict(state.registers)["index"]
    if schedule is not None:
        t, repeats, mode = schedule.grover_powers, schedule.powering_repeats, schedule.mode
    else:
        t = ae_repetitions(n_full, eps, rule=t_rule)
        repeats = max(1, math.ceil(kappa * math.log(1.0 / delta)))
    # Projection weight of the all-ancilla-zero subspace, via reshape (cheaper
    # than materializing an index mask for wide value registers).
    shape = tuple(2**width for _, width in state.registers)
    good = state.amplitudes.reshape(shape)[:, 0, 0, 0]
    amplitude = float(np.sum(np.abs(good) ** 2))
    if mode == "subspace_exact":
        dist = ae_outcome_distribution(amplitude, t)
    else:
        dist = ae_outcome_distribution_circuit(state, mean_projector(state), t)
    outcomes = rng.choice(t, size=repeats, p=dist)
    trials = tuple(estimate_from_outcome(int(y), t) for y in outcomes)
    estimate = n_full * powering_median(trials)
    if ledger is not None:
        ledger.charge("dist_binary", 2 * t * repeats)
        ledger.charge("func_binary", 2 * t * repeats)
    return QmeboExactRun(
        estimate=float(estimate),
        true_mean=true_mean,
        amplitude=amplitude,
        encoding_offset=float(n_full * amplitude - true_mean),
        grover_powers=t,
        repeats=repeats,
        trials=trials,
    )
