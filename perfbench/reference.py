"""Reference computations the benchmark checks the program against.

Nothing here imports qchansim: every value is computed from plain numpy
arrays, plain JSON documents, or objects that merely expose the attributes
the evaluators read.  The checks in ``workloads.py`` compare the program's
outputs with these values.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# Depolarizing codebooks: E[max_i u . omega_i] over the uniform sphere
# ---------------------------------------------------------------------------

def _band_quadrature(vectors: np.ndarray, n_theta: int) -> tuple[float, float]:
    """Moments of the gap 1 - max_i u . omega_i by a midpoint rule in (theta, phi).

    The grid has n_theta bands of equal angle and 2 n_theta cells per band;
    each cell carries its exact area as weight, so constants integrate
    exactly and the error is O(h^2), from the kinks of the max.
    """
    edges = np.linspace(0.0, math.pi, n_theta + 1)
    theta = 0.5 * (edges[1:] + edges[:-1])
    band_weight = 0.5 * (np.cos(edges[:-1]) - np.cos(edges[1:]))  # sums to 1
    n_phi = 2 * n_theta
    phi = (np.arange(n_phi) + 0.5) * (2.0 * math.pi / n_phi)
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    first = second = 0.0
    for t, w in zip(theta, band_weight):
        s, c = math.sin(t), math.cos(t)
        gap = 1.0 - np.max(
            np.outer(s * cos_phi, vectors[:, 0])
            + np.outer(s * sin_phi, vectors[:, 1])
            + c * vectors[:, 2],
            axis=1,
        )
        first += w * gap.mean()
        second += w * np.square(gap).mean()
    return first, second


def eta_moments(vectors, n_theta: int = 128) -> tuple[float, float]:
    """Mean and variance of max_i u . omega_i for u uniform on the sphere.

    Richardson extrapolation of the band rule at n_theta and 2 n_theta
    removes its h^2 term.  Working with the gap to 1 keeps the variance
    accurate when it is tiny (about 6e-6 for 256 codewords).  At the default
    the antipodal pair and the cube come out within 1e-9 of 1/2 and sqrt(3)/2;
    n_theta = 512 gives the tetrahedron within 2e-8 of 0.7448573.
    """
    v = np.asarray(vectors, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ValueError(f"codebook vectors must have shape (n, 3), got {v.shape}")
    coarse = _band_quadrature(v, n_theta)
    fine = _band_quadrature(v, 2 * n_theta)
    gap, gap_sq = ((4.0 * f - c) / 3.0 for f, c in zip(fine, coarse))
    return 1.0 - gap, gap_sq - gap * gap


# ---------------------------------------------------------------------------
# Born probabilities of product measurements
# ---------------------------------------------------------------------------

def density(ket) -> np.ndarray:
    v = np.asarray(ket, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def haar_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    return density(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def bloch_density(n) -> np.ndarray:
    x, y, z = (float(c) for c in n)
    return 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])


def bloch_ket(n) -> np.ndarray:
    """A ket whose Bloch vector is the unit vector n."""
    x, y, z = (float(c) for c in n)
    theta = math.acos(max(-1.0, min(1.0, z)))
    r = math.hypot(x, y)
    phase = complex(x, y) / r if r > 1e-15 else 1.0
    return np.array([math.cos(theta / 2.0), math.sin(theta / 2.0) * phase])


def product_born(terms, states) -> np.ndarray:
    """p_k = w_k prod_p <f_kp| rho_p |f_kp> for terms (w_k, (f_k1, f_k2, ...)).

    ``states`` holds one density matrix per party, in factor order.
    """
    out = np.empty(len(terms))
    for k, (weight, factors) in enumerate(terms):
        if len(factors) != len(states):
            raise ValueError("every term needs one factor per party")
        p = float(weight)
        for f, rho in zip(factors, states):
            f = np.asarray(f, dtype=complex).reshape(-1)
            p *= float(np.real(np.vdot(f, rho @ f)))
        out[k] = p
    return out


# ---------------------------------------------------------------------------
# Odd-depth interactive protocols: direct nested sum
# ---------------------------------------------------------------------------

def odd_round_direct(protocol, psi: np.ndarray, phi: np.ndarray) -> dict:
    """Outcome distribution of an odd-depth protocol, by summing every transcript.

    ``protocol`` exposes ``randomness.probabilities``, ``sender_alphabets``,
    ``receiver_alphabets``, ``outcomes``, ``coins[t](psi, x, transcript)``,
    ``instruments[t](x, transcript).kraus`` and
    ``final_povm(x, transcript)`` with ``labels`` and ``effects``.  Returns
    a dict from outcome label to probability.
    """
    out = {label: 0.0 for label in protocol.outcomes}
    n_receiver = len(protocol.receiver_alphabets)

    def descend(x, t, transcript, rho, weight):
        coin = np.asarray(protocol.coins[t](psi, x, transcript), dtype=float)
        for m_a, q in enumerate(coin):
            if q == 0.0:
                continue
            after = transcript + (m_a,)
            if t == n_receiver:
                povm = protocol.final_povm(x, after)
                for label, effect in zip(povm.labels, povm.effects):
                    out[label] += weight * q * float(np.real(np.trace(effect @ rho)))
                continue
            for m_b, k in enumerate(protocol.instruments[t](x, after).kraus):
                k = np.asarray(k)
                descend(x, t + 1, after + (m_b,), k @ rho @ k.conj().T, weight * q)

    for x, p_atom in enumerate(protocol.randomness.probabilities):
        descend(x, 0, (), np.asarray(phi, dtype=complex), float(p_atom))
    return out


def collapsed_message_count(sender_sizes, receiver_sizes) -> int:
    """Message count after collapsing, folding the rounds from the last one back.

    A sender round followed by a reply with r outcomes and the already
    folded tail L becomes a round of a * L^r messages.
    """
    if len(sender_sizes) != len(receiver_sizes) + 1:
        raise ValueError("an odd-depth protocol has one more sender round than replies")
    count = int(sender_sizes[-1])
    for a, r in zip(reversed(sender_sizes[:-1]), reversed(receiver_sizes)):
        count = int(a) * count ** int(r)
    return count


# ---------------------------------------------------------------------------
# Plain-JSON readers for the CLI's artifacts
# ---------------------------------------------------------------------------

def matrix_from_json(obj: dict) -> np.ndarray:
    dim = int(obj["dim"])
    flat = np.array([complex(re, im) for re, im in obj["entries"]])
    return flat.reshape(dim, dim)


def tabulated_stats(obj: dict, phi: np.ndarray) -> np.ndarray:
    """Statistics of a tabulated one-round protocol at every state of its grid.

    Row g is sum_x p(x) sum_m table[x][g][m] tr(phi E_{m,x,b}), with the
    outcomes b in the order of the document's ``outcomes`` list.
    """
    outcomes = [json_label(o) for o in obj["outcomes"]]
    index = {label: i for i, label in enumerate(outcomes)}
    table = np.asarray(obj["encoder"]["table"], dtype=float)  # (atoms, grid, messages)
    probs = np.zeros(table.shape[:1] + table.shape[2:] + (len(outcomes),))
    for x, per_atom in enumerate(obj["decoders"]):
        for m, povm in enumerate(per_atom):
            for label, effect in zip(povm["labels"], povm["effects"]):
                probs[x, m, index[json_label(label)]] += np.real(np.trace(phi @ matrix_from_json(effect)))
    atoms = np.asarray(obj["atoms"], dtype=float)
    return np.einsum("x,xgm,xmb->gb", atoms, table, probs)


def json_label(obj):
    if isinstance(obj, dict) and set(obj) == {"tuple"}:
        return tuple(json_label(x) for x in obj["tuple"])
    return obj


# ---------------------------------------------------------------------------
# Finite-message witness: the error of a written strategy
# ---------------------------------------------------------------------------

def strategy_errors(strategy: dict, grid) -> np.ndarray:
    """Per-state operator-norm error of a strategy from a ``.strategies.json`` row.

    The effective effect for grid state j is
    sum_{x,m} p(x) encoder[j][x][m] w[m][x] (I + a_{m,x} . sigma) / 2 and the
    forced target is half the projector onto -psi_j.  The norm of each
    Hermitian 2x2 difference is its largest |eigenvalue| (eigvalsh).
    """
    p = np.asarray(strategy["atom_probs"], dtype=float)
    enc = np.asarray(strategy["encoder"], dtype=float)
    w = np.asarray(strategy["effect_weights"], dtype=float)
    axes = np.asarray(strategy["effect_axes"], dtype=float)
    errors = np.empty(len(grid))
    for j, psi_hat in enumerate(np.asarray(grid, dtype=float)):
        effect = np.zeros((2, 2), dtype=complex)
        for x in range(p.size):
            for m in range(w.shape[0]):
                effect += p[x] * enc[j, x, m] * w[m, x] * bloch_density(axes[m, x])
        diff = effect - 0.5 * bloch_density(-psi_hat)
        errors[j] = np.max(np.abs(np.linalg.eigvalsh(diff)))
    return errors
