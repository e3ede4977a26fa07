"""Shared test utilities: random measurement generators and Born-rule oracles."""

import itertools
import math
from itertools import compress

import numpy as np

from qchansim import decompose, multiround, qmath, serialize
from qchansim.multiround import OddRoundProtocol, collapsed_message_count
from qchansim.protocols import SharedRandomness, check_distributions
from qchansim.qmath import (
    Instrument,
    Povm,
    ProductRank1Effect,
    bloch_to_ket,
    dagger,
    haar_ket,
    orthogonal_ket,
    tensor,
)

TRINE_BLOCH = [
    (0.0, 0.0, 1.0),
    (math.sqrt(3) / 2, 0.0, -0.5),
    (-math.sqrt(3) / 2, 0.0, -0.5),
]
TETRA_BLOCH = [
    (1.0, 1.0, 1.0),
    (1.0, -1.0, -1.0),
    (-1.0, 1.0, -1.0),
    (-1.0, -1.0, 1.0),
]


def random_rotation_matrix(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_local_rank1_povm(rng: np.random.Generator, kind: str) -> list[tuple[float, np.ndarray]]:
    """A random single-qubit rank-1 measurement as (weight, ket) pairs."""
    if kind == "basis":
        v = haar_ket(2, rng)
        return [(1.0, v), (1.0, orthogonal_ket(v))]
    rot = random_rotation_matrix(rng)
    if kind == "trine":
        vecs = [rot @ np.asarray(b) for b in TRINE_BLOCH]
        return [(2.0 / 3.0, bloch_to_ket(v)) for v in vecs]
    if kind == "tetra":
        vecs = [rot @ (np.asarray(b) / math.sqrt(3.0)) for b in TETRA_BLOCH]
        return [(0.5, bloch_to_ket(v)) for v in vecs]
    raise ValueError(f"unknown kind {kind!r}")


def random_product_povm(rng: np.random.Generator, kinds=("basis", "basis")) -> list[ProductRank1Effect]:
    """Product of two random local rank-1 measurements on C^2 x C^2."""
    left = random_local_rank1_povm(rng, kinds[0])
    right = random_local_rank1_povm(rng, kinds[1])
    return [
        ProductRank1Effect(weight=wa * wb, factors=(a, b))
        for wa, a in left
        for wb, b in right
    ]


def mixed_product_povm(rng: np.random.Generator) -> list[ProductRank1Effect]:
    """Convex mixture of two random product-basis measurements (8 outcomes)."""
    w = float(rng.uniform(0.2, 0.8))
    first = random_product_povm(rng, ("basis", "basis"))
    second = random_product_povm(rng, ("basis", "basis"))
    out = []
    for weight, e in [(w, t) for t in first] + [(1.0 - w, t) for t in second]:
        out.append(ProductRank1Effect(weight=weight * e.weight, factors=e.factors))
    return out


def product_povm_matrix(effects) -> Povm:
    return Povm.from_effects([e.matrix() for e in effects], labels=range(len(effects)))


def born_product_oracle(effects, psi, phi) -> np.ndarray:
    """Direct Born probabilities of a two-party product measurement on psi x phi."""
    joint_state = tensor(psi, phi)
    return np.array([np.trace(joint_state @ e.matrix()).real for e in effects])


def nested_sum_odd_round(p, psi, phi) -> np.ndarray:
    """Odd-depth statistics by a depth-first walk of the transcript tree.

    The oracle that the level-wise ``multiround.run_odd_round`` must equal
    bit for bit: one coin check, product and trace per branch, and each
    final contribution added as the walk reaches it.
    """
    phi = qmath.assert_density_matrix(phi, "receiver state")
    index = {label: i for i, label in enumerate(p.outcomes)}
    out = np.zeros(len(p.outcomes))
    n_receiver = len(p.receiver_alphabets)

    def descend(x, t, transcript, state, weight):
        size = len(p.sender_alphabets[t])
        coin = check_distributions(p.coins[t](psi, x, transcript), (size,), f"coin {t}")
        for m_a in range(size):
            if coin[m_a] <= 0.0:
                continue
            after_a = transcript + (m_a,)
            w_a = weight * coin[m_a]
            if t == n_receiver:
                povm = p.final_povm(x, after_a)
                for label, effect in zip(povm.labels, povm.effects):
                    out[index[label]] += w_a * np.trace(effect @ state).real
                continue
            for m_b, kraus in enumerate(p.instruments[t](x, after_a).kraus):
                updated = kraus @ state @ dagger(kraus)
                if np.trace(updated).real <= 1e-15:
                    continue  # zero-probability branch
                descend(x, t + 1, after_a + (m_b,), updated, w_a)

    for x, p_atom in enumerate(p.randomness.probabilities):
        descend(x, 0, (), phi, p_atom)
    return out


def oracle_state_coin(rng: np.random.Generator, size: int):
    """One state coin drawn and evaluated on its own: the oracle of the generator's coin rounds.

    Two flat-simplex draws and a random Bloch axis, in that order; the coin
    mixes the draws by the clipped overlap of the state with the axis.
    """
    base0 = rng.dirichlet(np.ones(size))
    base1 = rng.dirichlet(np.ones(size))
    axis = qmath.bloch_to_density(qmath.random_bloch(rng))

    def coin(psi: np.ndarray) -> np.ndarray:
        f = min(max(float((axis @ psi).trace().real), 0.0), 1.0)
        return f * base0 + (1.0 - f) * base1

    return coin


def oracle_isometry_blocks(rng: np.random.Generator, n_outcomes: int, dim: int) -> tuple[np.ndarray, ...]:
    """The n_outcomes square blocks of one Haar-random isometry from C^dim, drawn and factored alone."""
    z = rng.normal(size=(n_outcomes * dim, dim)) + 1j * rng.normal(size=(n_outcomes * dim, dim))
    q, _ = np.linalg.qr(z)
    return tuple(q[i * dim : (i + 1) * dim, :] for i in range(n_outcomes))


def oracle_random_rounds(seed, rounds, n_atoms, n_outcomes, dim, *, table_order, atom_major):
    """The seeded random protocol with every table drawn one key at a time.

    The oracle that ``multiround._random_rounds`` must equal bit for bit, and
    whose random stream it must leave in the same state: each coin, instrument
    and measurement drawn alone, in ``table_order``, atom by atom
    (``atom_major``) or transcript by transcript within a table.
    """
    collapsed_message_count(rounds[0::2], rounds[1::2])
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    atom_probs = rng.dirichlet(np.ones(n_atoms))
    atom_probs = atom_probs / atom_probs.sum()
    depth = len(rounds)
    tables = {}
    for length in table_order:
        if length == depth:
            def make():
                blocks = oracle_isometry_blocks(rng, n_outcomes, dim)
                return Povm(effects=tuple(dagger(k) @ k for k in blocks), labels=tuple(range(n_outcomes)))
        elif length % 2 == 0:
            def make():
                return oracle_state_coin(rng, rounds[length])
        else:
            def make():
                return Instrument(kraus=oracle_isometry_blocks(rng, rounds[length], dim))
        transcripts = list(np.ndindex(*rounds[:length]))
        keys = itertools.product(range(n_atoms), transcripts) if atom_major else (
            (x, tr) for tr in transcripts for x in range(n_atoms)
        )
        tables[length] = {key: make() for key in keys}

    def coin(table):
        return lambda psi, x, tr: table[(x, tuple(tr))](psi)

    def instrument(table):
        return lambda x, tr: table[(x, tuple(tr))]

    return rng, OddRoundProtocol(
        randomness=SharedRandomness(probabilities=tuple(atom_probs)),
        sender_alphabets=tuple(tuple(range(n)) for n in rounds[0::2]),
        receiver_alphabets=tuple(tuple(range(n)) for n in rounds[1::2]),
        outcomes=tuple(range(n_outcomes)),
        coins=tuple(coin(tables[length]) for length in range(0, depth, 2)),
        instruments=tuple(instrument(tables[length]) for length in range(1, depth, 2)),
        final_povm=lambda x, tr: tables[depth][(x, tuple(tr))],
    )


def one_round_protocol_to_obj(p, psi_grid, tables=None) -> dict:
    """A one-round protocol on a grid of sender states, built as one tree of lists and dicts.

    The oracle that ``serialize.one_round_protocol_chunks`` must equal: its
    text is byte for byte ``json.dumps`` of this object with sorted keys and
    an indent of 2.  Complex entries are [re, im] pairs.
    """
    if tables is None:
        tables = [p.encoder_matrix(psi) for psi in psi_grid]
    if len(tables) != len(psi_grid):
        raise serialize.SerializationError(f"{len(tables)} encoder tables for {len(psi_grid)} grid states")
    encoder_table = np.stack(tables, axis=1).tolist()
    outcome_objs = [serialize._label_to_obj(o) for o in p.outcomes]
    decoders = [
        [
            serialize._measurement_to_obj(list(compress(outcome_objs, named)), list(compress(effects, named)))
            for effects, named in zip(effects_x, p.named[x])
        ]
        for x, effects_x in enumerate(serialize._matrix_objs(p.effects))
    ]
    return {
        "kind": "one_round_protocol",
        "atoms": [float(q) for q in p.randomness.probabilities],
        "messages": [serialize._label_to_obj(m) for m in p.messages],
        "outcomes": outcome_objs,
        "cost_bits": int(p.cost_bits),
        "construction": str(p.meta.get("construction", "table")),
        "encoder": {
            "kind": "table",
            "psi_grid": serialize._bloch_list(psi_grid),
            "table": encoder_table,
        },
        "decoders": decoders,
    }


def _oracle_effect_vectors(weights, axes):
    return np.concatenate([0.5 * weights[..., None], 0.5 * weights[..., None] * axes], axis=-1)


def _oracle_target_vectors(targets):
    return np.concatenate([np.full((len(targets), 1), 0.25), -0.25 * targets.grid], axis=1)


def nogo_effects_step_oracle(
    targets, enc: np.ndarray, p: np.ndarray,
    weights: np.ndarray, axes: np.ndarray, state_weights: np.ndarray,
) -> None:
    """The no-go effects step with one fancy-indexed update per (m, x) effect.

    The oracle that ``nogo._effects_step`` must equal bit for bit: Gauss-Seidel
    over the (m, x) effects, the starts batched, arrays updated in place.
    """
    c = p[:, None, None, :] * np.swapaxes(enc, -1, -2)   # (S, N, M, K)
    g = _oracle_effect_vectors(weights, axes)             # (S, M, K, 4)
    tau = _oracle_target_vectors(targets)                 # (N, 4)
    z = np.einsum("sjmx,smxd->sjd", c, g)                 # effective 4-vectors
    # The encoder is fixed in this step, so every column c[s, :, m, x], its
    # weighted form and its denominator are known up front; the grid axis is
    # laid out last so that each denominator is summed as one contiguous row.
    cols = np.ascontiguousarray(np.moveaxis(c, 1, -1))   # (S, M, K, N)
    weighted = state_weights[:, None, None, :] * cols
    denoms = (weighted * cols).sum(axis=-1)
    live = denoms > 1e-18
    # h holds (1, axis) per effect, so that a * h is the effect's 4-vector.
    h = np.concatenate([np.ones_like(weights)[..., None], axes], axis=-1)
    any_live, all_live = live.any(axis=0).tolist(), live.all(axis=0).tolist()
    for m, x in np.ndindex(*live.shape[1:]):
        if not any_live[m][x]:
            continue
        on = slice(None) if all_live[m][x] else np.flatnonzero(live[:, m, x])
        cj = cols[on, m, x, :, None]
        rest = z[on] - cj * g[on, m, x][:, None]
        g_star = np.add.reduce(weighted[on, m, x, :, None] * (tau - rest), axis=1) / denoms[on, m, x, None]
        u = g_star[:, 1:]
        # vecdot is the dot product np.linalg.norm takes of one vector, bit for bit.
        norm_u = np.sqrt(np.vecdot(u, u))
        a_new = np.minimum(np.maximum(0.5 * (g_star[:, 0] + norm_u), 0.0), 0.5)
        h_mx = h[on, m, x]
        np.divide(u, norm_u[:, None], out=h_mx[:, 1:], where=norm_u[:, None] > 1e-15)
        g[on, m, x] = a_new[:, None] * h_mx
        weights[on, m, x] = 2.0 * a_new
        h[on, m, x] = h_mx
        z[on] = rest + cj * g[on, m, x][:, None]
    axes[...] = h[..., 1:]


def nogo_encoder_step_oracle(
    targets, enc: np.ndarray, p: np.ndarray,
    weights: np.ndarray, axes: np.ndarray,
) -> None:
    """The no-go encoder step that solves every support, one-message ones included.

    The oracle that ``nogo._encoder_step`` must equal bit for bit: one stacked
    pseudo-inverse per support size, every support included, and a sequential
    record scan in which a later candidate wins only when it is lower by more
    than 1e-15.
    """
    n_starts, n, k, m_count = enc.shape
    if m_count == 1:
        # The simplex is the single point 1.0, which the support solve writes
        # exactly (q / q); rows drawn from a Dirichlet may be 1 - eps before.
        enc[...] = 1.0
        return
    basis = p[:, :, None, None] * np.swapaxes(_oracle_effect_vectors(weights, axes), 1, 2)  # (S, K, M, 4)
    tau = _oracle_target_vectors(targets)
    # solve[s, x, c] maps the full right-hand side (2 basis[s, x] @ target, 1)
    # to the candidate row of support c, zero off the support.
    # Candidates are the non-empty supports, by size, each size in combinations order.
    solve = np.zeros((n_starts, k, 2**m_count - 1, m_count, m_count + 1))
    first = 0
    for size in range(1, m_count + 1):
        sups = np.array(list(itertools.combinations(range(m_count), size)))  # (C, size)
        cand = first + np.arange(len(sups))
        first += len(sups)
        b = basis[:, :, sups]  # (S, K, C, size, 4)
        kkt = np.ones((n_starts, k, len(sups), size + 1, size + 1))
        kkt[..., :size, :size] = 2.0 * b @ b.swapaxes(-1, -2)
        kkt[..., size, size] = 0.0
        inv = np.linalg.pinv(kkt, rtol=np.finfo(float).eps * (size + 1))
        cols = np.concatenate([sups, np.full((len(sups), 1), m_count)], axis=1)
        solve[:, :, cand[:, None, None], sups[:, :, None], cols[:, None, :]] = inv[..., :size, :]
    contrib = np.einsum("sjxm,sxmd->sjxd", enc, basis)  # (S, N, K, 4) per-atom effective parts
    rhs = np.ones((n_starts, n, m_count + 1))
    start_rows = np.arange(n_starts)[:, None]
    for x in range(k):
        target = tau - contrib[:, :, np.arange(k) != x].sum(axis=2)  # (S, N, 4)
        rhs[..., :m_count] = 2.0 * target @ basis[:, x].swapaxes(-1, -2)
        q = np.einsum("scmi,sji->sjcm", solve[:, x], rhs)  # (S, N, candidates, M)
        full = np.maximum(q, 0.0)
        total = full.sum(axis=3)
        feasible = (q.min(axis=3) >= -1e-12) & (total > 0.0)
        full /= np.where(feasible, total, 1.0)[..., None]
        vals = np.square(full @ basis[:, None, x] - target[:, :, None, :]).sum(axis=3)
        vals[~feasible] = np.inf
        best_val, choice = np.full((n_starts, n), np.inf), np.full((n_starts, n), -1)
        for c in range(solve.shape[2]):
            take = vals[..., c] < best_val - 1e-15
            best_val, choice = np.where(take, vals[..., c], best_val), np.where(take, c, choice)
        won = choice >= 0
        enc[:, :, x] = np.where(won[..., None], full[start_rows, np.arange(n), choice], enc[:, :, x])
        contrib[:, :, x] = enc[:, :, x] @ basis[:, x]


def sequential_record_scan(vals):
    """The encoder step's tie-break as a loop over candidates: the oracle of ``nogo._record_scan``.

    In candidate order, a value replaces the best so far only when it is lower
    by more than 1e-15; rows where nothing is taken get -1.
    """
    vals = np.asarray(vals)
    best_val, choice = np.full(vals.shape[:-1], np.inf), np.full(vals.shape[:-1], -1)
    for c in range(vals.shape[-1]):
        take = vals[..., c] < best_val - 1e-15
        best_val, choice = np.where(take, vals[..., c], best_val), np.where(take, c, choice)
    return choice

def count_solves(monkeypatch) -> list:
    """Record every ``decompose.solve_mixture`` call from here on; returns the list of calls."""
    calls = []
    solve = decompose.solve_mixture

    def counting(system, weights):
        calls.append(weights)
        return solve(system, weights)

    monkeypatch.setattr(decompose, "solve_mixture", counting)
    return calls


def count_coin_evaluations(monkeypatch) -> list:
    """Record (coin round, state) for every coin table a seeded generator evaluates from here on."""
    calls = []
    evaluate = multiround._CoinRound._evaluate

    def counting(coin_round, psi):
        calls.append((coin_round, psi))
        return evaluate(coin_round, psi)

    monkeypatch.setattr(multiround._CoinRound, "_evaluate", counting)
    return calls
