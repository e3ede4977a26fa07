"""Complex linear algebra for small quantum systems, plus the measurement catalog.

Everything here works on plain complex numpy arrays of dimension at most 12
(the largest space used anywhere is C^2 x C^6).  States are density matrices,
measurements are POVMs (lists of effects summing to identity), and qubit
states are freely converted to and from Bloch vectors.  Pure states are kept
as normalized kets with a canonical global phase so that equality tests are
bit-stable; projectors are built on demand.

``assert_density_matrix`` remembers the states that passed it.  Each ndarray
input is keyed by ``state_key``: its dtype, shape and bytes.  A key that
passed before returns at once, so the runners and encoders of many protocols
check each distinct state once.  The memo holds at most
``CHECKED_STATES_MAX`` keys, dropping the oldest first, and never keys an
input above ``CHECKED_STATE_MAX_BYTES``.  Only passes are stored, so a state
that fails raises on every call, and a state changed in place has new bytes
and is checked again.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np

# Tolerances used throughout: matrix-level identities (POVM completeness,
# instrument completeness) at 1e-10, scalar traces and normalization at 1e-12.
ATOL_MATRIX = 1e-10
ATOL_SCALAR = 1e-12

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


class QmathError(ValueError):
    """Base error for invalid quantum objects."""


class DimensionError(QmathError):
    """Operands have incompatible or unsupported dimensions."""


class InvalidBlochVectorError(QmathError):
    """Bloch vector lies outside the unit ball beyond tolerance."""


class UnknownMeasurementError(QmathError):
    """Requested catalog entry does not exist."""


def _as_matrix(m, stack: bool = False) -> np.ndarray:
    """A finite complex square matrix or, with ``stack``, a stack of them on the last two axes."""
    a = np.asarray(m, dtype=complex)
    if (a.ndim < 2 if stack else a.ndim != 2) or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"expected square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise QmathError("matrix has non-finite entries")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.conj(np.swapaxes(np.asarray(m), -1, -2))


def is_hermitian(m: np.ndarray, atol: float = ATOL_SCALAR) -> bool:
    a = np.asarray(m)
    return bool(np.max(np.abs(a - dagger(a))) <= atol)


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, or of each matrix in a stack, ascending.

    The 2x2 case uses the closed-form discriminant so invariant checks do not
    depend on iterative-solver variance; larger dimensions fall back to
    numpy's Hermitian solver.
    """
    a = _as_matrix(m, stack=True)
    if a.shape[-2:] == (2, 2):
        half_trace = 0.5 * (a[..., 0, 0].real + a[..., 1, 1].real)
        radius = np.hypot(0.5 * (a[..., 0, 0].real - a[..., 1, 1].real), np.abs(a[..., 0, 1]))
        return np.stack([half_trace - radius, half_trace + radius], axis=-1)
    return np.linalg.eigvalsh(a)


def state_key(psi) -> tuple | None:
    """The memo key of a state or a list of them, or None when it has none.

    An array's key is its dtype, shape and bytes, so equal arrays share a key
    and an array changed in place gets a new one; a list or tuple of arrays
    is keyed by the tuple of their keys.  Object arrays and anything else
    have no key.
    """
    if isinstance(psi, np.ndarray):
        return None if psi.dtype.hasobject else (psi.dtype.str, psi.shape, psi.tobytes())
    if isinstance(psi, (list, tuple)) and all(isinstance(s, np.ndarray) for s in psi):
        keys = tuple(state_key(s) for s in psi)
        return None if None in keys else keys
    return None


class StateMemo:
    """The tables of at most ``size`` sender states, keyed by ``state_key``.

    ``get(psi, compute)`` returns the table kept for ``psi``'s key, or runs
    ``compute(psi)``, keeps the result read-only and drops the oldest table
    past ``size``.  A state without a key keeps nothing, nor does a
    ``compute`` that raises or returns a non-finite entry, so such states
    run ``compute`` on every call.
    """

    def __init__(self, size: int):
        self.size = size
        self._tables: dict = {}  # in insertion order, so the first key is the oldest

    def __len__(self) -> int:
        return len(self._tables)

    def get(self, psi, compute) -> np.ndarray:
        key = state_key(psi)
        tables = self._tables
        table = None if key is None else tables.get(key)
        if table is not None:
            return table
        table = compute(psi)
        if key is not None and np.isfinite(table).all():
            table.setflags(write=False)
            tables[key] = table
            if len(tables) > self.size:
                del tables[next(iter(tables))]
        return table


# The memo of states that passed assert_density_matrix: the largest space used
# anywhere is 12-dimensional (2,304 bytes as complex128), and one
# simulate-protocols op checks 32 distinct states.
CHECKED_STATES_MAX = 64
CHECKED_STATE_MAX_BYTES = 4096
_checked_states: OrderedDict = OrderedDict()


def assert_density_matrix(rho: np.ndarray, name: str = "state") -> np.ndarray:
    """``rho`` as a complex matrix, checked to be Hermitian with unit trace and no negative eigenvalue.

    An ndarray of at most ``CHECKED_STATE_MAX_BYTES`` whose ``state_key``
    passed before is not checked again; failures are never remembered.
    """
    key = state_key(rho) if isinstance(rho, np.ndarray) and rho.nbytes <= CHECKED_STATE_MAX_BYTES else None
    if key is not None and key in _checked_states:
        return np.asarray(rho, dtype=complex)
    rho = _check_density_matrix(rho, name)
    if key is not None:
        _checked_states[key] = None
        while len(_checked_states) > CHECKED_STATES_MAX:
            try:
                _checked_states.popitem(last=False)
            except KeyError:  # another thread emptied it first
                break
    return rho


def _check_density_matrix(rho, name: str) -> np.ndarray:
    rho = _as_matrix(rho)
    if not is_hermitian(rho):
        raise QmathError(f"{name} is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > ATOL_SCALAR:
        raise QmathError(f"{name} has trace {np.trace(rho).real!r}, expected 1")
    if hermitian_eigenvalues(rho)[0] < -ATOL_SCALAR:
        raise QmathError(f"{name} has a negative eigenvalue")
    return rho


def assert_measurements(effects) -> np.ndarray:
    """Check a stack of measurements, shape (..., outcomes, d, d).

    Every effect must be Hermitian with eigenvalues in [0, 1], and the effects
    of each measurement must sum to the identity.
    """
    e = _as_matrix(effects, stack=True)
    if e.ndim < 3 or e.size == 0:
        raise DimensionError(f"expected a non-empty stack of effects, got shape {e.shape}")
    if not is_hermitian(e):
        raise QmathError("effect is not Hermitian")
    eigs = hermitian_eigenvalues(e)
    if eigs.min() < -ATOL_SCALAR or eigs.max() > 1.0 + ATOL_SCALAR:
        raise QmathError(f"effects have eigenvalues outside [0, 1]: {eigs.min()}, {eigs.max()}")
    if np.max(np.abs(e.sum(axis=-3) - np.eye(e.shape[-1]))) > ATOL_MATRIX:
        raise QmathError("effects do not sum to identity")
    return e


def ket(*amplitudes) -> np.ndarray:
    """Normalized state vector with canonical global phase."""
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise QmathError("cannot normalize the zero vector")
    return canonical_phase(v / norm)


def canonical_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the first non-negligible amplitude is real positive."""
    v = np.asarray(vec, dtype=complex).copy()
    for a in v:
        if abs(a) > 1e-12:
            v *= np.conj(a) / abs(a)
            break
    return v


def orthogonal_ket(v: np.ndarray) -> np.ndarray:
    """The state orthogonal to a qubit ket (unique up to phase)."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.shape != (2,):
        raise DimensionError("orthogonal_ket is defined for qubits only")
    return canonical_phase(np.array([-np.conj(v[1]), np.conj(v[0])]))


def projector(vec: np.ndarray) -> np.ndarray:
    v = np.asarray(vec, dtype=complex).reshape(-1)
    return np.outer(v, np.conj(v))


KET0 = ket(1, 0)
KET1 = ket(0, 1)
KET_PLUS = ket(1, 1)
KET_MINUS = ket(1, -1)

# The two tilted single-qubit states used by the twisted-butterfly measurement,
# both lying in the x-z plane at Bloch vectors (+-2*sqrt(2)/3, 0, -+1/3).
ALPHA = ket(1.0 / math.sqrt(3.0), math.sqrt(2.0 / 3.0))
BETA = ket(math.sqrt(2.0 / 3.0), 1.0 / math.sqrt(3.0))
ALPHA_PERP = orthogonal_ket(ALPHA)
BETA_PERP = orthogonal_ket(BETA)

SINGLET = ket(0, 1, -1, 0)


def bloch_to_density(n: Sequence[float]) -> np.ndarray:
    """Qubit density matrix (I + n . sigma) / 2 for a Bloch vector of norm <= 1."""
    v = np.asarray(n, dtype=float).reshape(-1)
    if v.shape != (3,):
        raise InvalidBlochVectorError(f"Bloch vector must have 3 components, got {v.shape}")
    return bloch_stack_to_density(v[None])[0]


def bloch_stack_to_density(v: np.ndarray) -> np.ndarray:
    """``bloch_to_density`` of every row of an (n, 3) array, checked and built at once.

    Each row's norm is ``np.vecdot`` of the row with itself, the product
    ``np.linalg.norm`` takes, so a row gives the matrix it gives alone.
    """
    norms = np.sqrt(np.vecdot(v, v))
    over = norms > 1.0 + 1e-12
    if over.any():
        raise InvalidBlochVectorError(f"Bloch vector has norm {norms[over][0]!r} > 1")
    x, y, z = (v[:, k, None, None] for k in range(3))
    return 0.5 * (I2 + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)


def density_to_bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch vector n_k = tr(rho sigma_k); inverse of bloch_to_density."""
    rho = _as_matrix(rho)
    if rho.shape != (2, 2):
        raise DimensionError("density_to_bloch needs a 2x2 matrix")
    return np.array([np.trace(rho @ s).real for s in PAULIS])


def bloch_to_ket(n: Sequence[float]) -> np.ndarray:
    """Pure qubit ket for a unit Bloch vector."""
    v = np.asarray(n, dtype=float).reshape(-1)
    if v.shape != (3,) or abs(np.linalg.norm(v) - 1.0) > 1e-12:
        raise InvalidBlochVectorError("bloch_to_ket needs a unit 3-vector")
    theta = math.acos(min(1.0, max(-1.0, v[2])))
    phi = math.atan2(v[1], v[0])
    return canonical_phase(
        np.array([math.cos(theta / 2.0), math.sin(theta / 2.0) * np.exp(1j * phi)])
    )


def tensor(*operands: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices (or vectors)."""
    if not operands:
        raise QmathError("tensor needs at least one operand")
    out = np.asarray(operands[0], dtype=complex)
    for op in operands[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def _same_shapes(matrices, what: str) -> None:
    dims = {np.shape(m) for m in matrices}
    if len(dims) != 1:
        raise DimensionError(f"{what} have mixed shapes: {dims}")


def _stack_of(a: np.ndarray, what: str) -> None:
    if a.ndim != 4 or 0 in a.shape[:2]:
        raise DimensionError(f"expected a (count, outcomes, d, d) stack of {what}, got shape {a.shape}")


def checked_effects(effects, labels) -> np.ndarray:
    """A (count, outcomes, d, d) stack of measurements, all with ``labels``, as one checked array.

    The conditions of the ``Povm`` constructor run once over the whole
    stack: one ``assert_measurements`` call, and the labels checked once for
    length and uniqueness.  A stack with any bad member raises what that
    member alone would raise.  The effects are copied into one read-only
    complex array.
    """
    e = np.array(effects, dtype=complex)
    _stack_of(e, "effects")
    labels = tuple(labels)
    if len(labels) != e.shape[1]:
        raise QmathError("labels and effects must have the same length")
    if len(set(labels)) != len(labels):
        raise QmathError("outcome labels must be unique")
    e = assert_measurements(e)
    e.setflags(write=False)
    return e


def checked_kraus(kraus) -> np.ndarray:
    """A (count, outcomes, d, d) stack of instruments' Kraus operators as one checked array.

    The conditions of the ``Instrument`` constructor run once over the whole
    stack: finite square blocks, and sum_k K_k^dag K_k equal to the identity
    within ``ATOL_MATRIX`` for each instrument.  A stack with any bad member
    raises what that member alone would raise.  The operators are copied
    into one read-only complex array.
    """
    k = np.array(kraus, dtype=complex)
    _stack_of(k, "Kraus operators")
    k = _as_matrix(k, stack=True)
    total = (dagger(k) @ k).sum(axis=1)
    if np.max(np.abs(total - np.eye(k.shape[-1]))) > ATOL_MATRIX:
        raise QmathError("Kraus operators are not complete")
    k.setflags(write=False)
    return k


def _rows_of(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields``, without running ``__post_init__``."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class Povm:
    """A measurement: effects summing to identity, with one label per outcome."""

    effects: tuple[np.ndarray, ...]
    labels: tuple[Hashable, ...]

    def __post_init__(self):
        _same_shapes(self.effects, "effects")
        labels = tuple(self.labels)
        (checked,) = Povm._rows(checked_effects([self.effects], labels), labels)
        object.__setattr__(self, "effects", checked.effects)
        object.__setattr__(self, "labels", checked.labels)

    @classmethod
    def _rows(cls, effects: np.ndarray, labels: tuple) -> tuple["Povm", ...]:
        """One measurement per row of an array that ``checked_effects`` returned for ``labels``, unchecked."""
        return tuple(_rows_of(cls, effects=tuple(rows), labels=labels) for rows in effects)

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    def __len__(self) -> int:
        return len(self.effects)

    def padded(self, outcomes: Sequence[Hashable]) -> np.ndarray:
        """The effects in ``outcomes`` order, zero for outcomes this measurement does not name."""
        out = np.zeros((len(outcomes), self.dim, self.dim), dtype=complex)
        out[[list(outcomes).index(label) for label in self.labels]] = self.effects
        return out

    @classmethod
    def from_effects(cls, effects: Iterable[np.ndarray], labels=None) -> "Povm":
        effects = tuple(np.asarray(e, dtype=complex) for e in effects)
        if labels is None:
            labels = tuple(range(len(effects)))
        return cls(effects=effects, labels=tuple(labels))


@dataclass(frozen=True)
class Instrument:
    """A measurement with post-measurement states, given by Kraus operators.

    One Kraus operator per classical outcome; completeness means
    sum_k K_k^dag K_k = identity.  The k-th (unnormalized) post-measurement
    state of rho is K_k rho K_k^dag, whose trace is the outcome probability.
    """

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        _same_shapes(self.kraus, "Kraus operators")
        (checked,) = Instrument._rows(checked_kraus([self.kraus]))
        object.__setattr__(self, "kraus", checked.kraus)

    @classmethod
    def _rows(cls, kraus: np.ndarray) -> tuple["Instrument", ...]:
        """One instrument per row of an array that ``checked_kraus`` returned, unchecked."""
        return tuple(_rows_of(cls, kraus=tuple(rows)) for rows in kraus)

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    def __len__(self) -> int:
        return len(self.kraus)


@dataclass(frozen=True)
class ProductRank1Effect:
    """A weighted product of pure-state projectors, one factor per party."""

    weight: float
    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not (0.0 < self.weight <= 1.0 + ATOL_SCALAR):
            raise QmathError(f"weight {self.weight!r} is outside (0, 1]")
        frozen = []
        for f in self.factors:
            v = np.asarray(f, dtype=complex).reshape(-1)
            if abs(np.linalg.norm(v) - 1.0) > ATOL_SCALAR:
                raise QmathError("product factor is not normalized")
            v = canonical_phase(v)
            v.setflags(write=False)
            frozen.append(v)
        object.__setattr__(self, "factors", tuple(frozen))
        object.__setattr__(self, "weight", float(self.weight))

    @property
    def n_parties(self) -> int:
        return len(self.factors)

    def matrix(self) -> np.ndarray:
        return self.weight * tensor(*(projector(f) for f in self.factors))


def product_effects_matrix_sum(effects: Sequence[ProductRank1Effect]) -> np.ndarray:
    return sum(e.matrix() for e in effects)


def assert_product_povm(effects: Sequence[ProductRank1Effect]) -> None:
    total = product_effects_matrix_sum(effects)
    dim = total.shape[0]
    if np.max(np.abs(total - np.eye(dim))) > ATOL_MATRIX:
        raise QmathError("product effects do not sum to identity")


def born(state: np.ndarray, m: Povm) -> np.ndarray:
    """Outcome probabilities p_k = tr(state E_k)."""
    state = _as_matrix(state)
    if state.shape[0] != m.dim:
        raise DimensionError(f"state dim {state.shape[0]} != POVM dim {m.dim}")
    return np.array([np.trace(state @ e).real for e in m.effects])


def depolarize(rho: np.ndarray, eta: float) -> np.ndarray:
    """Qubit depolarizing channel: eta * rho + (1 - eta) * I/2."""
    rho = _as_matrix(rho)
    if rho.shape != (2, 2):
        raise DimensionError("depolarize acts on qubits")
    if not (0.0 <= eta <= 1.0):
        raise QmathError(f"noise parameter {eta!r} outside [0, 1]")
    return eta * rho + (1.0 - eta) * 0.5 * I2


def singlet_probability(psi_hat: Sequence[float], phi_hat: Sequence[float]) -> float:
    """Probability of the singlet outcome on a product of two pure qubits.

    Equals (1 - psi_hat . phi_hat) / 4; vanishes iff both Bloch vectors
    coincide and reaches 1/2 for antipodal pairs.
    """
    a = np.asarray(psi_hat, dtype=float).reshape(-1)
    b = np.asarray(phi_hat, dtype=float).reshape(-1)
    for v in (a, b):
        if v.shape != (3,) or abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise InvalidBlochVectorError("singlet_probability needs unit Bloch vectors")
    return 0.25 * (1.0 - float(np.dot(a, b)))


# ---------------------------------------------------------------------------
# Measurement catalog
# ---------------------------------------------------------------------------

_TWIST_KAPPA = 0.75


def _catalog_product_terms(name: str) -> tuple[tuple[float, tuple[np.ndarray, ...], str], ...]:
    if name == "comp":
        return (
            (1.0, (KET0, KET0), "00"),
            (1.0, (KET0, KET1), "01"),
            (1.0, (KET1, KET0), "10"),
            (1.0, (KET1, KET1), "11"),
        )
    if name == "twistB":
        return (
            (1.0, (KET0, KET0), "z+ z+"),
            (1.0, (KET0, KET1), "z+ z-"),
            (1.0, (KET1, KET_PLUS), "z- x+"),
            (1.0, (KET1, KET_MINUS), "z- x-"),
        )
    if name == "twistA":
        return (
            (1.0, (KET0, KET0), "z+ z+"),
            (1.0, (KET1, KET0), "z- z+"),
            (1.0, (KET_PLUS, KET1), "x+ z-"),
            (1.0, (KET_MINUS, KET1), "x- z-"),
        )
    if name == "tb":
        k = _TWIST_KAPPA
        return (
            (1.0, (KET0, KET1), "1"),
            (k, (ALPHA_PERP, KET0), "21"),
            (k, (KET1, ALPHA), "22"),
            (k, (BETA, KET0), "31"),
            (k, (KET1, BETA_PERP), "32"),
        )
    if name == "shift":
        return (
            (1.0, (KET0, KET0, KET0), "000"),
            (1.0, (KET1, KET1, KET1), "111"),
            (1.0, (KET_PLUS, KET0, KET1), "+01"),
            (1.0, (KET_MINUS, KET0, KET1), "-01"),
            (1.0, (KET0, KET1, KET_PLUS), "01+"),
            (1.0, (KET0, KET1, KET_MINUS), "01-"),
            (1.0, (KET1, KET_PLUS, KET0), "1+0"),
            (1.0, (KET1, KET_MINUS, KET0), "1-0"),
        )
    raise UnknownMeasurementError(f"no product form for measurement {name!r}")


def catalog_product_effects(name: str) -> tuple[ProductRank1Effect, ...]:
    """Product-form catalog entries (everything except the singlet measurement)."""
    terms = _catalog_product_terms(name)
    effects = tuple(ProductRank1Effect(weight=w, factors=f) for w, f, _ in terms)
    assert_product_povm(effects)
    return effects


def catalog_labels(name: str) -> tuple[str, ...]:
    if name == "singlet":
        return ("singlet", "rest")
    return tuple(label for _, _, label in _catalog_product_terms(name))


CATALOG_NAMES = ("comp", "twistA", "twistB", "tb", "singlet", "shift")


def catalog_measurement(name: str) -> Povm:
    """One of the named measurements: comp, twistA, twistB, tb, singlet, shift."""
    if name == "singlet":
        p = projector(SINGLET)
        return Povm(effects=(p, I4 - p), labels=catalog_labels(name))
    if name not in CATALOG_NAMES:
        raise UnknownMeasurementError(f"unknown measurement {name!r}")
    effects = catalog_product_effects(name)
    return Povm(
        effects=tuple(e.matrix() for e in effects),
        labels=catalog_labels(name),
    )


def verify_s3_identities() -> dict:
    """Check that the twisted-butterfly measurement separates its three marker states.

    The markers are |01>, (|phi-> - |10>)/sqrt(2) and (|phi-> + |10>)/sqrt(2)
    with |phi-> = (|00> - |11>)/sqrt(2).  The first effect responds only to the
    first marker, and each grouped pair of effects responds only to its own
    marker.  Returns the computed overlap tables and the largest deviation
    from the Kronecker-delta pattern.
    """
    phi_minus = ket(1, 0, 0, -1)
    states = (
        ket(0, 1, 0, 0),
        canonical_phase((phi_minus - ket(0, 0, 1, 0)) / math.sqrt(2.0)),
        canonical_phase((phi_minus + ket(0, 0, 1, 0)) / math.sqrt(2.0)),
    )
    tb = catalog_measurement("tb")
    effects = dict(zip(tb.labels, tb.effects))
    grouped = {
        1: effects["1"],
        2: effects["21"] + effects["22"],
        3: effects["31"] + effects["32"],
    }
    first_row = [np.trace(effects["1"] @ projector(s)).real for s in states]
    table = {
        i: [np.trace(grouped[i] @ projector(s)).real for s in states]
        for i in (2, 3)
    }
    deviation = max(abs(p - (1.0 if j == 0 else 0.0)) for j, p in enumerate(first_row))
    for i in (2, 3):
        for j, p in enumerate(table[i]):
            expected = 1.0 if (i - 1) == j else 0.0
            deviation = max(deviation, abs(p - expected))
    return {
        "first_effect_overlaps": first_row,
        "grouped_overlaps": table,
        "max_deviation": deviation,
        "passed": deviation <= ATOL_SCALAR,
    }


# ---------------------------------------------------------------------------
# Random sampling helpers (shared by tests and Monte Carlo modules)
# ---------------------------------------------------------------------------

def haar_ket(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state: normalized complex Gaussian vector."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return ket(*v)


def random_bloch(rng: np.random.Generator) -> np.ndarray:
    """Uniformly random point on the Bloch sphere."""
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)
