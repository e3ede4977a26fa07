"""Codebook protocol that realizes a depolarizing channel with m classical bits.

The two parties share a random rotation of the Bloch sphere and a codebook of
2^m unit vectors.  Given a known pure state, the sender picks the rotated
codeword with the largest overlap and transmits its index; the receiver
prepares that rotated codeword.  Averaged over the shared rotation the
prepared state is a depolarized copy of the input, with noise parameter

    eta = E[ max_i  psi_hat . (R omega_i) ],

independent of the input direction by rotational invariance.  Sampling the
shared unitary reduces to sampling a uniform rotation, since only the adjoint
action on Bloch vectors enters the protocol.  For the z input only the z row
of R enters, z_hat . R omega_i = (R^T z_hat) . omega_i, and for a uniform R
that row u = R^T z_hat is uniform on the sphere.  So ``estimate_eta`` draws u
itself, from two uniforms (a, b) per sample, by Archimedes' equal-area map
z = 1 - 2a, (x, y) = 2 sqrt(a (1 - a)) (cos 2 pi b, sin 2 pi b)
(``_directions``).

Both Monte Carlo paths split each batch into blocks of samples and draw
each block from the batch's generator in block order, so block k holds the
k-th draw and results do not depend on the block size.  ``estimate_eta``
(``_batch_scores``) draws two uniforms per sample and runs its blocks of
``_SAMPLE_BLOCK`` samples on up to one thread per CPU the process may use, as
many as fit their scratch in ``_SCRATCH_BYTES`` (``_worker_count``), or on
the caller's thread alone below ``_THREADED_WORDS`` codewords.  A worker
draws its next block under one lock, then maps it to directions and scores it
against the codewords in cache-sized (codewords x samples) blocks, outside
the lock, into the block's own rows of the batch's score vector.  Results
therefore do not depend on the number of threads either.
``simulate_average_state`` needs whole rotations: it runs on the caller's
thread, draws each block of at most ``_SAMPLE_BLOCK`` and ``_SCORE_ENTRIES``
/ (3 x codewords) samples with ``sample_rotations``, rotates every codeword
at once and keeps only the batch's chosen Bloch vectors.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qmath


class DepolarizeError(ValueError):
    """Invalid codebook or protocol parameter."""


_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

#: The most bits a spiral codebook may have.  Building one checks every pair
#: of its 2^m codewords, so the time grows as 4^m (about 4 s at m = 16).
MAX_BITS = 16

# Entries of a block held at once: (samples x codewords x 3) rotated codewords
# in simulate_average_state and rows x codewords of the codebook's Gram
# matrix.  8 MB of float64.
_SCORE_ENTRIES = 4096 * 256
# Bytes of scratch the workers of one estimate_eta batch may hold together,
# so peak memory does not grow with the CPU count: three workers at 128 or 256
# codewords (0.69 MB each) fit.
_SCRATCH_BYTES = 2**21
# estimate_eta starts threads only for codebooks of at least _THREADED_WORDS
# words.  A smaller codebook's block is a few numpy calls of a few us, each of
# which releases and retakes the GIL.  Medians of 60 interleaved
# 2·10^5-sample calls, one worker -> two, on 2 CPUs: m = 4 6.8 -> 7.1 ms
# (threads faster in 20 of 60), m = 5 8.5 -> 9.6 (4 of 60), m = 6 13.2 -> 14.1
# and 13.0 -> 12.9 in a second run (19 and 36 of 60), m = 7 22.6 -> 19.1
# (59 of 60).  So threads pay from 128 words, not at 64.
_THREADED_WORDS = 128
# Samples drawn and mapped at once by both Monte Carlo paths: a (block, 4)
# array of quaternions is 128 KB, a (block, 2) array of uniforms 64 KB.
_SAMPLE_BLOCK = 4096
# estimate_eta scores (codewords x samples) blocks of at most _SCORE_ROWS
# codewords and _CACHE_SCORE_ENTRIES entries (512 KB), so a block stays in
# cache; a larger codebook is scored in chunks of codewords.
_CACHE_SCORE_ENTRIES = 2**16
_SCORE_ROWS = 256
# OpenBLAS's larger gemm calls round the columns of a part-filled last panel of
# 8 differently, so a sample's score would depend on its place in its block;
# estimate_eta pads every block with zero columns to whole panels.
_PANEL = 8


def _score_columns(rows: int) -> int:
    """Samples per score block of ``rows`` codewords in estimate_eta, whole panels."""
    columns = min(_SAMPLE_BLOCK, _CACHE_SCORE_ENTRIES // rows)
    return columns - columns % _PANEL


def _max_pairwise_dot(v: np.ndarray) -> float:
    """Largest dot product of two different rows of v (-2 for a single row).

    The Gram matrix is built in row blocks of at most _SCORE_ENTRIES entries.
    """
    step = max(1, _SCORE_ENTRIES // len(v))
    best = -2.0
    for lo in range(0, len(v), step):
        gram = v[lo : lo + step] @ v.T
        gram[np.arange(len(gram)), np.arange(lo, lo + len(gram))] = -2.0
        best = max(best, float(np.max(gram)))
        del gram  # free this block before the next one is built
    return best


@dataclass(frozen=True)
class Codebook:
    """Pre-agreed unit Bloch vectors, indexed by the classical message."""

    vectors: np.ndarray
    name: str = ""

    def __post_init__(self):
        v = np.array(self.vectors, dtype=float)
        if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] < 1:
            raise DepolarizeError(f"codebook must have shape (n, 3), got {v.shape}")
        # NaN fails no comparison, so the norm and distinctness checks would pass it.
        if not np.all(np.isfinite(v)):
            raise DepolarizeError("codebook vectors must be finite")
        norms = np.linalg.norm(v, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise DepolarizeError("codebook vectors must be unit length")
        if _max_pairwise_dot(v) > 1.0 - 1e-12:
            raise DepolarizeError("codebook vectors must be pairwise distinct")
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def bits(self) -> int:
        return max(1, math.ceil(math.log2(len(self))))


def fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic near-uniform points on the unit sphere (golden-angle spiral)."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    az = _GOLDEN_ANGLE * i
    return np.column_stack([r * np.cos(az), r * np.sin(az), z])


def codebook(spec: str | int) -> Codebook:
    """Named codebooks (antipodal, tetrahedron, cube) or 2^m spiral points.

    The named entries are the natural small-m choices: two opposite poles,
    the regular tetrahedron, and the cube vertices.  For a general bit count
    m the codebook is the 2^m-point golden-angle spiral, which is
    deterministic and near-uniform.
    """
    if isinstance(spec, str):
        if spec == "antipodal":
            return Codebook(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]), name="antipodal")
        if spec == "tetrahedron":
            s = 1.0 / math.sqrt(3.0)
            verts = np.array(
                [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
            )
            return Codebook(s * verts, name="tetrahedron")
        if spec == "cube":
            s = 1.0 / math.sqrt(3.0)
            verts = np.array(
                [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)],
                dtype=float,
            )
            return Codebook(s * verts, name="cube")
        raise DepolarizeError(f"unknown codebook {spec!r}")
    m = int(spec)
    if not 1 <= m <= MAX_BITS:
        raise DepolarizeError(f"bit count must be between 1 and {MAX_BITS}, got {m}")
    return Codebook(fibonacci_sphere(2**m), name=f"fibonacci-{m}")


def _directions(uniforms: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Uniform unit vectors from uniforms (n, 2) in [0, 1), written into ``rows``.

    Row (a, b) maps to z = 1 - 2a, (x, y) = 2 sqrt(a (1 - a)) (cos 2 pi b,
    sin 2 pi b), Archimedes' equal-area map, so the points are uniform on the
    sphere.  cos 2 pi b and sin 2 pi b are taken as r - 1 and t r from
    t = tan(pi b) and r = 2 / (1 + t^2): one ``np.tan`` call costs a fifth of
    ``np.cos`` and ``np.sin`` together on 4,096 samples (8 against 72 us).
    ``rows`` is a (3, columns) array with columns >= n; columns past n are
    zeroed.  Every step is elementwise, so a point does not depend on how the
    batch is split.  Returns ``rows``.
    """
    n = uniforms.shape[0]
    a, b = uniforms[:, 0], uniforms[:, 1]
    rows[:, n:] = 0.0
    x, y, z = rows[0, :n], rows[1, :n], rows[2, :n]
    np.multiply(b, np.pi, out=y)
    np.tan(y, out=y)
    np.multiply(y, y, out=x)
    x += 1
    np.divide(2, x, out=x)
    y *= x
    x -= 1
    np.subtract(1, a, out=z)
    z *= a
    np.sqrt(z, out=z)
    z *= 2
    x *= z
    y *= z
    np.multiply(a, -2, out=z)
    z += 1
    return rows


def _quaternions_to_rotations(q: np.ndarray) -> np.ndarray:
    """Batch conversion of unit quaternions (n, 4) to rotation matrices (n, 3, 3)."""
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    out = np.empty((q.shape[0], 3, 3))
    out[:, 0, 0] = 1 - 2 * (y * y + z * z)
    out[:, 0, 1] = 2 * (x * y - z * w)
    out[:, 0, 2] = 2 * (x * z + y * w)
    out[:, 1, 0] = 2 * (x * y + z * w)
    out[:, 1, 1] = 1 - 2 * (x * x + z * z)
    out[:, 1, 2] = 2 * (y * z - x * w)
    out[:, 2, 0] = 2 * (x * z - y * w)
    out[:, 2, 1] = 2 * (y * z + x * w)
    out[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return out


def _cpu_count() -> int:
    """CPUs this process may run on (all of the machine's where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _worker_count(size: int, block: int, work_bytes: int) -> int:
    """Workers for a batch of ``size`` samples in blocks of ``block``.

    At most one per CPU and one per block, and only as many as fit their
    scratch in ``_SCRATCH_BYTES``: ``work_bytes`` each, the buffer its
    uniforms are drawn into included.  Always at least one.
    """
    fit = _SCRATCH_BYTES // work_bytes
    return max(1, min(_cpu_count(), -(-size // block), fit))


def sample_rotations(rng: np.random.Generator, n: int) -> np.ndarray:
    """n rotation matrices distributed uniformly (unit-quaternion construction)."""
    q = rng.standard_normal((n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return _quaternions_to_rotations(q)


def alice_index(psi_hat: Sequence[float], rotation: np.ndarray, c: Codebook) -> int:
    """Index of the rotated codeword with the largest overlap with the input state.

    The overlap of projectors is (1 + psi_hat . R omega_i)/2, so the argmax of
    the dot products is returned; ties break to the lowest index.
    """
    v = np.asarray(psi_hat, dtype=float)
    if abs(np.linalg.norm(v) - 1.0) > 1e-12:
        raise qmath.InvalidBlochVectorError("alice_index needs a unit Bloch vector")
    scores = (c.vectors @ rotation.T) @ v
    return int(np.argmax(scores))


def _batch_seeds(seed: int, n_batches: int) -> list[np.random.Generator]:
    """Independent per-batch generators spawned from the master seed.

    Batch k uses SeedSequence(seed).spawn()[k], so results do not depend on
    the batch size as long as batch boundaries are fixed.
    """
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n_batches)]


def _batches(n: int, batch: int, seed: int) -> list[tuple[np.random.Generator, int]]:
    """(generator, size) of each batch of the n samples: ``batch`` each, then any rest.

    Rejects a sample count or a batch size below 1.
    """
    if n < 1:
        raise DepolarizeError("sample count must be at least 1")
    if batch < 1:
        raise DepolarizeError("batch size must be at least 1")
    sizes = [batch] * (n // batch) + ([n % batch] if n % batch else [])
    return list(zip(_batch_seeds(seed, len(sizes)), sizes))


def simulate_average_state(
    psi: np.ndarray, c: Codebook, n: int, seed: int, batch: int = 100_000
) -> np.ndarray:
    """Average of the states the receiver prepares over n shared rotations.

    Converges to the depolarized input: Bloch vector along the input direction
    with length eta(c).
    """
    psi = qmath.assert_density_matrix(psi, "input state")
    psi_hat = qmath.density_to_bloch(psi)
    norm = np.linalg.norm(psi_hat)
    if abs(norm - 1.0) > 1e-9:
        raise DepolarizeError("the codebook protocol takes a pure input state")
    psi_hat = psi_hat / norm
    block = min(_SAMPLE_BLOCK, max(1, _SCORE_ENTRIES // (3 * len(c))))
    total = np.zeros(3)
    # One thread: np.einsum holds the GIL, and a second worker made a
    # 2·10^5-sample call slower (118 -> 123 ms at 2 codewords, 2 CPUs).
    for rng, size in _batches(n, batch, seed):
        # Rotate and score block by block, and sum the batch's choices at once.
        chosen = np.empty((size, 3))
        for lo in range(0, size, block):
            rows = min(block, size - lo)
            rotated = np.einsum("nij,kj->nki", sample_rotations(rng, rows), c.vectors)
            winners = np.argmax(rotated @ psi_hat, axis=1)
            chosen[lo : lo + rows] = rotated[np.arange(rows), winners]
        total += chosen.sum(axis=0)
    return qmath.bloch_to_density(total / n)


def _batch_scores(c: Codebook, rng: np.random.Generator, size: int) -> np.ndarray:
    """max_i u . omega_i for each of one batch's ``size`` uniform directions u.

    u stands for the z row R^T z_hat of a uniform rotation R, since
    z_hat . R omega_i = (R^T z_hat) . omega_i.  The batch's uniforms
    ``rng.random((size, 2))`` are drawn in blocks of ``_SAMPLE_BLOCK``
    samples.  Under one lock a worker takes the next block start and draws the
    block into its own buffer, so the block holds those rows of the batch's
    uniforms whichever thread runs it (the generator's stream does not depend
    on how it is split).  Outside the lock it maps them to directions
    (``_directions``) and writes each sample's score, the maximum over
    codewords of (codewords x samples) score blocks: ``_score_columns``
    samples, padded to whole panels, against near-equal chunks of at most
    ``_SCORE_ROWS`` codewords.  No chunk is one codeword (gemv) unless the
    codebook is, and a maximum does not round, so every score equals that of
    the batch's directions scored sample by sample.

    ``_worker_count`` workers run from ``_THREADED_WORDS`` codewords, one of
    them in the caller's thread, and one worker below.  All scratch is
    allocated in the caller's thread, since glibc gives each started thread a
    malloc arena of its own that keeps freed blocks resident: over
    estimate_eta calls at m = 1, 2, 3, 6 and 8, a second worker that
    allocated its own scratch added 2.3 MB of peak RSS, and one whose scratch
    is allocated here adds 1.0 MB.  An exception in any worker stops the
    others from taking blocks and is raised here once every thread has ended.
    """
    chunks = np.array_split(c.vectors, -(-len(c) // _SCORE_ROWS))
    columns = _score_columns(len(chunks[0]))
    block = _SAMPLE_BLOCK
    scores = np.empty(size)

    def panels(n: int) -> int:
        # A one-sample batch stays one column (gemv), as sample-major scoring has it.
        return n if size == 1 else -(-n // _PANEL) * _PANEL

    # Per worker: the uniforms, the directions and a score block.
    rows = min(block, size)
    work_bytes = 8 * (2 * rows + 3 * panels(rows) + (len(chunks[0]) + 1) * columns)
    workers = _worker_count(size, block, work_bytes) if len(c) >= _THREADED_WORDS else 1
    starts = iter(range(0, size, block))
    lock = threading.Lock()
    failures: list[BaseException] = []

    def scratch():
        return (
            np.empty((rows, 2)),
            np.empty((3, panels(rows))),
            np.empty((len(chunks[0]), columns)),  # every score block is written here
            np.empty(columns),
        )

    def worker(uniform_buffer, direction_buffer, products, chunk_best):
        try:
            while True:
                with lock:
                    lo = None if failures else next(starts, None)
                    if lo is None:
                        return
                    n_u = min(block, size - lo)
                    uniforms = rng.random(out=uniform_buffer[:n_u])
                directions = _directions(uniforms, direction_buffer[:, : panels(n_u)])
                for a in range(0, n_u, columns):
                    width = min(columns, directions.shape[1] - a)
                    best = scores[lo + a : lo + min(a + columns, n_u)]
                    best.fill(-np.inf)
                    for chunk in chunks:
                        out = products[: len(chunk), :width]
                        score_block = np.matmul(chunk, directions[:, a : a + width], out=out)
                        np.max(score_block[:, : len(best)], axis=0, out=chunk_best[: len(best)])
                        np.maximum(best, chunk_best[: len(best)], out=best)
        except BaseException as exc:  # raised again in the caller's thread below
            failures.append(exc)

    threads = []
    try:
        for _ in range(workers - 1):
            thread = threading.Thread(target=worker, args=scratch())
            thread.start()
            threads.append(thread)
        worker(*scratch())
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]
    return scores


def estimate_eta(
    c: Codebook, n: int, seed: int, batch: int = 200_000
) -> tuple[float, float]:
    """Monte Carlo estimate of the realized noise parameter, with standard error.

    Estimates E[max_i z_hat . R omega_i] = E[max_i u . omega_i] over uniform
    unit vectors u; by rotational invariance the value is the same for every
    input direction.  Each batch's scores come from ``_batch_scores``, which
    draws u directly from two uniforms per sample, not a whole rotation; the
    sum and then the sum of squares are taken over the batch's whole score
    vector, squared in place.
    """
    total = 0.0
    total_sq = 0.0
    for rng, size in _batches(n, batch, seed):
        scores = _batch_scores(c, rng, size)
        total += scores.sum()
        total_sq += np.square(scores, out=scores).sum()
    mean = total / n
    variance = max(total_sq / n - mean * mean, 0.0)
    stderr = math.sqrt(variance / n)
    return mean, stderr


def eta_cap(theta: float) -> float:
    """Noise parameter of the ideal spherical-cap model with apex angle theta.

    Equals (1 - cos 2 theta) / (4 (1 - cos theta)) = (1 + cos theta)/2 for
    theta in (0, pi], evaluated through half-angle sines so the ratio stays
    accurate near 0.  The theta -> 0 limit is 1 and is returned at theta = 0,
    where the defining ratio is singular.
    """
    if theta < 0.0 or theta > math.pi:
        raise DepolarizeError(f"apex angle {theta!r} outside [0, pi]")
    if theta == 0.0:
        return 1.0
    # 1 - cos(2 theta) = 2 sin(theta)^2 and 1 - cos(theta) = 2 sin(theta/2)^2.
    return 0.25 * math.sin(theta) ** 2 / math.sin(0.5 * theta) ** 2


#: Reference values quoted for the three small codebooks.  These equal the
#: cap model evaluated at half the minimum pairwise codebook angle; for the
#: antipodal codebook that model is exact (the selected direction really is
#: uniform over a hemisphere), but for the tetrahedron and cube the argmax
#: selection is not uniform over a cap, and the operational expectations sit
#: below these numbers (about 0.7449 and sqrt(3)/2).  ``reference_discrepancy``
#: quantifies the gap.
ETA_REFERENCE = {
    1: 0.5,
    2: (3.0 + math.sqrt(3.0)) / 6.0,
    3: (3.0 + math.sqrt(6.0)) / 6.0,
}
REFERENCE_CODEBOOKS = {1: "antipodal", 2: "tetrahedron", 3: "cube"}


def packing_cap_eta(c: Codebook) -> float:
    """Cap-model value at half the minimum pairwise angle of the codebook."""
    min_angle = math.acos(min(1.0, max(-1.0, _max_pairwise_dot(c.vectors))))
    return eta_cap(0.5 * min_angle)


def reference_discrepancy(m: int, n: int, seed: int) -> dict:
    """Sampled noise parameter for the named small codebook versus its reference value.

    Returns the estimate, its standard error, the reference value, and the
    deviation in units of the standard error, so callers can flag
    disagreement instead of asserting exact equality.
    """
    if m not in REFERENCE_CODEBOOKS:
        raise DepolarizeError(f"no reference value for m={m}")
    c = codebook(REFERENCE_CODEBOOKS[m])
    eta, se = estimate_eta(c, n, seed)
    reference = ETA_REFERENCE[m]
    sigma = abs(eta - reference) / se if se > 0 else math.inf
    return {
        "m": m,
        "codebook": c.name,
        "eta": eta,
        "stderr": se,
        "reference_eta": reference,
        "sigma_from_reference": sigma,
    }
