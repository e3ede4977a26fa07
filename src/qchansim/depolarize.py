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
k-th draw and results do not depend on the block size.  Both run on the
caller's thread.  ``estimate_eta`` (``_batch_scores``) draws two uniforms per
sample and scores each direction only against the codewords its sphere cell
can pick.  The sphere is cut into polar-angle bands and azimuth sectors; a
sample's cell follows from its own uniforms, and each cell holds the
candidates that a certificate (``_cell_index``) proves contain the largest
overlap of every point in the cell, so each score equals the maximum over
all codewords bit for bit.  A codebook's cell index is built on its first
``estimate_eta`` call and kept on the codebook.  ``simulate_average_state``
needs whole rotations: it draws each block of at most ``_SAMPLE_BLOCK`` and
``_SCORE_ENTRIES`` / (3 x codewords) samples with ``sample_rotations``,
rotates every codeword at once and keeps only the batch's chosen Bloch
vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

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
# Samples drawn and mapped at once by both Monte Carlo paths: a (block, 4)
# array of quaternions is 128 KB, a (block, 2) array of uniforms 64 KB.
_SAMPLE_BLOCK = 4096
# Bytes of candidate coordinates and lookups estimate_eta gathers and scores
# at once: whole 4,096-sample blocks up to 9 candidates per cell (0.86 MB at
# 7), sub-blocks for codebooks whose cells keep more.  A 256 KB budget, in
# blocks of 1,170 samples at 7 candidates, made 2·10^5-sample calls at
# m = 6 and 8 take 15.0 and 14.8 ms, against 12.0 and 12.8 ms.
_GATHER_BYTES = 2**20
# A codebook of at most _SINGLE_CELL_WORDS words is one cell that holds every
# word, and estimate_eta skips the lookup and the gather.  2·10^5-sample calls
# on spirals of 8, 16, 24 and 32 words (medians of 9, 2 cores): one cell 6.7,
# 10.0, 16.0 and 21.8 ms; a cell index 13.6, 13.9, 15.8 and 16.1 ms.
_SINGLE_CELL_WORDS = 16
# Cells per codeword of a larger codebook's index.  At 256 words, 4 cells per
# word give 1,000 cells and at most 7 candidates (3.5 on average) and take
# 2.4 ms to build; 8 give 6 candidates and 16 give 5, but take 6.1 and 10.7
# ms, and 2·10^5-sample calls, build included, were no faster.
_CELLS_PER_WORD = 4
# Angle added to each cell's corner radius.  It covers the rounding of the map
# from (a, b) to u (under 1e-14) and that of an arccos of a rounded dot
# product of unit vectors (under 1e-7 for a dot product within 2e-15).
_CELL_SLACK = 1e-6
# Margin of the exclusion rule: more than twice what a score may move by
# rounding and by the norms of u and of a word (under 1.01e-12).
_EXCLUSION_MARGIN = 4e-12
# Cells whose candidates _cell_index finds at once, and (cell, word) pairs it
# scores at once: together about 1 MB of scratch.
_BUILD_CELLS = 2**10
_BUILD_PAIRS = 2**13


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

    @cached_property
    def _cells(self) -> _CellIndex:
        """The cell index ``estimate_eta`` scores with, built on first use."""
        return _cell_index(self.vectors)


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
    ``rows`` is a (3, n) array.  Every step is elementwise, so a point does
    not depend on how the batch is split.  Returns ``rows``.
    """
    a, b = uniforms[:, 0], uniforms[:, 1]
    x, y, z = rows
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
    # NaN fails every comparison, so the finiteness checks come first.
    if v.shape != (3,) or not np.all(np.isfinite(v)) or abs(np.linalg.norm(v) - 1.0) > 1e-12:
        raise qmath.InvalidBlochVectorError("alice_index needs a finite unit Bloch vector")
    rotation = np.asarray(rotation, dtype=float)
    if rotation.shape != (3, 3) or not np.all(np.isfinite(rotation)):
        raise DepolarizeError("alice_index needs a finite 3 x 3 rotation")
    if np.linalg.norm(rotation.T @ rotation - np.eye(3)) > 1e-9 or np.linalg.det(rotation) <= 0:
        raise DepolarizeError("alice_index needs a proper orthogonal rotation")
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


class _CellIndex(NamedTuple):
    """A codebook's sphere cells and the candidate codewords of each.

    A sample with uniforms (a, b) lies in cell ``first_cell[g] +
    floor(b * sectors[g])`` for the a-grid step g = floor(a * grid).
    ``words[i * slots + k, j]`` is coordinate i of the k-th of cell j's
    ``slots`` candidates.  ``grid`` is 0, and there is no lookup, for a
    codebook that is one cell.
    """

    grid: int
    first_cell: np.ndarray | None
    sectors: np.ndarray | None
    words: np.ndarray
    slots: int


def _angles(dots: np.ndarray) -> np.ndarray:
    """Angles whose cosines are ``dots`` (clipped into [-1, 1]), computed in place."""
    return np.arccos(np.clip(dots, -1.0, 1.0, out=dots), out=dots)


class _Layout(NamedTuple):
    """The cells of a codebook's index, as ``_cell_layout`` cuts them.

    Band j spans the a-grid steps ``edges[j]`` to ``edges[j + 1]``, polar
    angles ``polar_edges[j]`` to ``polar_edges[j + 1]``, and is cut into
    ``sectors[j]`` cells from cell ``first[j]`` on, each of radius
    ``radius[j]`` about its centre.
    """

    grid: int
    edges: np.ndarray
    polar_edges: np.ndarray
    middle: np.ndarray
    sectors: np.ndarray
    first: np.ndarray
    radius: np.ndarray


def _cell_layout(words: int) -> _Layout:
    """Bands and sectors for a codebook of ``words`` words, with their radii.

    About ``_CELLS_PER_WORD`` cells per word: bands of equal polar angle,
    their edges in a = (1 - cos theta) / 2 rounded to whole steps of a
    power-of-two a-grid, each cut into at least 2 equal azimuth sectors,
    about as wide as the band is high.  A cell's centre lies on its band's
    middle polar angle and its sector's middle azimuth (``_cell_centres``);
    its radius is the largest angle from the centre to the cell's four
    corners, plus ``_CELL_SLACK``.  The cells of a band are turns of one
    another about the z axis, so each band's radius is that of its first cell.
    """
    bands = max(2, round(math.sqrt(math.pi * _CELLS_PER_WORD * words / 4)))
    # a * grid and its floor are exact.  The polar bands span sin^2(pi / 2 bands),
    # about 2.5 / bands^2 of a, so at least 2 bands^2 steps keep every edge apart.
    grid = 1 << math.ceil(math.log2(2 * bands * bands))
    edges = np.sin(np.arange(bands + 1) * (np.pi / (2 * bands))) ** 2
    edges = np.rint(edges * grid).astype(np.intp)
    polar_edges = np.arccos(1 - 2 * edges / grid)
    middle = 0.5 * (polar_edges[:-1] + polar_edges[1:])
    sectors = np.rint(2 * np.pi * np.sin(middle) / np.diff(polar_edges))
    sectors = np.maximum(2, sectors).astype(np.intp)
    layout = _Layout(grid, edges, polar_edges, middle, sectors, _starts(sectors), np.zeros(bands))
    _, centres = _cell_centres(layout, layout.first)
    for a in (edges[:-1] / grid, edges[1:] / grid):
        for b in (np.zeros(bands), 1 / sectors):
            corners = _directions(np.column_stack([a, b]), np.empty((3, bands)))
            np.maximum(layout.radius, _angles(np.sum(centres * corners, axis=0)), out=layout.radius)
    layout.radius[:] += _CELL_SLACK
    return layout


def _cell_centres(layout: _Layout, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The band of each of ``cells`` and their centres, as a (3, cells) array."""
    band = np.searchsorted(layout.first, cells, side="right") - 1
    sectors = layout.sectors[band]
    a = 0.5 * (1 - np.cos(layout.middle[band]))
    b = (cells - layout.first[band] + 0.5) / sectors
    return band, _directions(np.column_stack([a, b]), np.empty((3, len(cells))))


def _cell_index(vectors: np.ndarray) -> _CellIndex:
    """Cut the sphere into cells and list the codewords each cell can pick.

    A codebook of at most ``_SINGLE_CELL_WORDS`` words is one cell that holds
    every word.  A larger one is cut by ``_cell_layout``, and each cell keeps
    the words that the exclusion rule of ``_batch_scores`` does not leave out
    (``_cell_candidates``), found in runs of ``_BUILD_CELLS`` cells.
    """
    n = len(vectors)
    if n <= _SINGLE_CELL_WORDS:
        return _CellIndex(0, None, None, vectors.T.reshape(3 * n, 1), n)
    layout = _cell_layout(n)
    # Each word three times, at azimuths phi, phi + 2 pi and phi + 4 pi, keyed
    # 8 pi band + azimuth, so an azimuth range within a band is a key range.
    unit = (vectors / np.linalg.norm(vectors, axis=1, keepdims=True)).T.copy()
    polar = np.arctan2(np.hypot(unit[0], unit[1]), unit[2])
    azimuth = np.arctan2(unit[1], unit[0]) % (2 * np.pi)
    bands = len(layout.sectors)
    word_band = np.clip(np.searchsorted(layout.polar_edges, polar, side="right") - 1, 0, bands - 1)
    keys = np.concatenate([8 * np.pi * word_band + azimuth + turn * 2 * np.pi for turn in range(3)])
    order = np.argsort(keys)
    words = (unit, keys[order], np.tile(np.arange(n, dtype=np.int32), 3)[order])
    cells = int(layout.first[-1] + layout.sectors[-1])
    runs = [
        _cell_candidates(np.arange(lo, min(lo + _BUILD_CELLS, cells)), layout, words)
        for lo in range(0, cells, _BUILD_CELLS)
    ]
    slots = max(run.shape[1] for run in runs)
    table = np.empty((3, slots, cells))
    for lo, run in zip(range(0, cells, _BUILD_CELLS), runs):
        span = slice(lo, lo + len(run))
        table[:, : run.shape[1], span] = vectors[run].transpose(2, 1, 0)
        # Each cell's first candidate fills the slots past its own count.
        table[:, run.shape[1] :, span] = table[:, :1, span]
    steps = np.diff(layout.edges)
    first_cell, sectors = np.repeat(layout.first, steps), np.repeat(layout.sectors.astype(float), steps)
    return _CellIndex(layout.grid, first_cell, sectors, table.reshape(3 * slots, cells), slots)


def _cell_candidates(cells: np.ndarray, layout: _Layout, words: tuple) -> np.ndarray:
    """The candidate words of consecutive ``cells``, one int32 row each.

    A cell's centre is scored only against the words within ``reach`` of it,
    found among the words sorted by (band, azimuth): those of the bands that
    come within ``reach`` of the centre's polar angle, in the azimuth range
    that a cap of angle ``reach`` spans.  So the build is sub-quadratic.
    ``reach`` starts at twice the cell's radius plus the mean word spacing,
    and doubles until the rule leaves out a word at angle ``reach``, and with
    it every word the search skipped.  Pairs are scored in runs of about
    ``_BUILD_PAIRS``.  Each row is padded with its first candidate.
    """
    unit, keys, owner = words
    band, centres = _cell_centres(layout, cells)
    polar_c = layout.middle[band]
    azimuth_c = (cells - layout.first[band] + 0.5) * (2 * np.pi / layout.sectors[band])
    radius = layout.radius[band]
    reach = 2 * radius + math.sqrt(4 * math.pi / unit.shape[1])
    pending = np.arange(len(cells))
    kept_cells, kept_words = [], []
    while len(pending):
        theta, ball = polar_c[pending], reach[pending]
        # Margins of 1e-9 cover the rounding of the angles and keys of the search.
        low = np.searchsorted(layout.polar_edges, theta - ball - 1e-9, side="right") - 1
        low = np.maximum(low, 0)
        high = np.searchsorted(layout.polar_edges, theta + ball + 1e-9)
        high = np.minimum(high, len(layout.middle))
        # A cap of angle reach that misses both poles spans asin(sin reach / sin theta)
        # of azimuth either side of its centre; any other cap, whole bands.
        spread = np.sin(np.minimum(ball, np.pi / 2)) / np.sin(theta)
        partial = (ball < np.minimum(theta, np.pi - theta)) & (spread < 0.99)
        half = np.where(partial, np.arcsin(np.minimum(spread, 0.99)) + 1e-9, np.pi)
        # One entry per (cell, band of words): a range of keys.
        entry_cell = np.repeat(np.arange(len(pending)), high - low)
        centre = 8 * np.pi * _spans(low, high - low) + 2 * np.pi + azimuth_c[pending][entry_cell]
        start = np.searchsorted(keys, centre - half[entry_cell])
        stop = np.where(
            partial[entry_cell],
            np.searchsorted(keys, centre + half[entry_cell], side="right"),
            np.searchsorted(keys, centre + np.pi),
        )
        ends = np.cumsum(stop - start)[np.cumsum(high - low) - 1]
        sizes = np.diff(ends, prepend=0)
        runs = np.flatnonzero(np.diff((ends - sizes) // _BUILD_PAIRS)) + 1
        failed = []
        for lo, hi in zip(np.concatenate(([0], runs)), np.concatenate((runs, [len(pending)]))):
            entries = slice(*np.searchsorted(entry_cell, [lo, hi]))
            lengths = stop[entries] - start[entries]
            pair_cell = np.repeat(entry_cell[entries], lengths) - lo
            pair_word = owner[_spans(start[entries], lengths)]
            cell = pending[lo:hi]
            centre_of = cell[pair_cell]
            angle = centres[0, centre_of] * unit[0, pair_word]
            angle += centres[1, centre_of] * unit[1, pair_word]
            angle += centres[2, centre_of] * unit[2, pair_word]
            _angles(angle)
            filled = np.flatnonzero(sizes[lo:hi])
            bound = np.full(hi - lo, np.inf)
            if len(filled):
                nearest = np.minimum.reduceat(angle, _starts(sizes[lo:hi])[filled])
                nearest += radius[cell[filled]]
                bound[filled] = np.cos(np.minimum(np.pi, nearest)) - _EXCLUSION_MARGIN
            # The rule leaves out a word at angle reach, so every word the search skipped.
            beyond = np.cos(np.maximum(0.0, reach[cell] - radius[cell]))
            certified = (bound < np.inf) & ((reach[cell] >= np.pi) | (beyond < bound))
            keep = certified[pair_cell]
            keep &= np.cos(np.maximum(0.0, angle - radius[centre_of])) >= bound[pair_cell]
            kept_cells.append(centre_of[keep])
            kept_words.append(pair_word[keep])
            failed.append(cell[~certified])
        pending = np.concatenate(failed)
        reach[pending] *= 2
    kept = np.concatenate(kept_cells)
    order = np.argsort(kept, kind="stable")
    kept, chosen = kept[order], np.concatenate(kept_words)[order].astype(np.int32)
    counts = np.bincount(kept, minlength=len(cells))
    starts = _starts(counts)
    table = np.repeat(chosen[starts], counts.max()).reshape(len(cells), counts.max())
    table[kept, np.arange(len(kept)) - starts[kept]] = chosen
    return table


def _starts(counts: np.ndarray) -> np.ndarray:
    """Where each of consecutive runs of ``counts`` entries starts."""
    return np.cumsum(counts) - counts


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges starts[k], ..., starts[k] + lengths[k] - 1, one after another."""
    return np.arange(lengths.sum()) + np.repeat(starts - _starts(lengths), lengths)


def _batch_scores(c: Codebook, rng: np.random.Generator, size: int) -> np.ndarray:
    """max_i u . omega_i for each of one batch's ``size`` uniform directions u.

    u stands for the z row R^T z_hat of a uniform rotation R, since
    z_hat . R omega_i = (R^T z_hat) . omega_i.  The batch's uniforms
    ``rng.random((size, 2))`` are drawn in blocks of ``_SAMPLE_BLOCK`` samples
    and mapped to directions (``_directions``).  Each direction (x, y, z) is
    scored against the candidates of its cell in the codebook's index
    (``_cell_index``) as (x wx + y wy) + z wz, elementwise, and keeps the
    largest score.  The candidates of sub-blocks of samples are gathered and
    scored in at most ``_GATHER_BYTES``; a codebook that is one cell is
    scored a whole block at a time.  All scratch is allocated once per call,
    on the caller's thread.

    A sample's cell: its band is that of its a-grid step g = floor(a * grid),
    exact since the grid is a power of two and every band edge is a whole
    step, and its sector is floor(b * sectors), which puts b within 2^-52 of
    the sector's range and below the sector count for every b < 1.

    Exclusion rule.  Let a cell have centre c and radius r, let d_i be the
    angle from c to word i and d_min the least of them.  Word i is left out
    of the cell's candidates iff

        cos(max(0, d_i - r)) < cos(min(pi, d_min + r)) - delta,

    with delta = ``_EXCLUSION_MARGIN``.  Proof that the largest score over the
    candidates is that over all words, bit for bit.  (1) Every direction the
    cell receives lies within r of c.  Its (a, b) lie in the cell's band and,
    up to the rounding of b * sectors, in its sector, whose image under the
    exact map is the part of a band of polar angle between two meridians at
    most pi apart.  For a fixed polar angle theta the angle to c grows with
    the azimuth difference, so the farthest point is on an edge meridian;
    along it, cos of the angle to c is cos(theta_c) cos(theta) +
    sin(theta_c) cos(w) sin(theta) with a half-width w <= pi / 2, a sinusoid
    in theta that peaks in [0, pi] and falls away from its peak there, so
    its minimum over the band is at an edge.  The farthest point is a corner, and ``_CELL_SLACK`` covers
    the rounding of the map, of b * sectors and of the arccos of rounded dot
    products.  (2) Let word k be at d_min.  By the triangle inequality a
    direction u of the cell is at least d_i - r from word i and at most
    d_min + r from word k, so for the unit vectors the rule gives
    u . omega_i < u . omega_k - delta.  (3) A computed score differs from the
    unit vectors' dot product by at most the rounding of the formula
    (4e-16), the norm error of u (2e-15) and that of the word, which
    ``Codebook`` keeps within 1e-12; delta = 4e-12 is more than twice their
    sum, so the computed score of word i is below that of word k, which is
    a candidate.  (4) A word outside the windows ``_cell_candidates``
    searched is farther than ``reach`` from c, and the build checked that the
    rule leaves out a word at ``reach``.  Each word's score is the same float
    in whatever set it is scored, and a maximum does not round, so padding
    the cells with repeats of a candidate and leaving out excluded words
    change no score.
    """
    index = c._cells
    slots = index.slots
    block = min(_SAMPLE_BLOCK, size)
    # Per sample: its candidates' coordinates and five lookup entries.
    part = max(1, min(block, _GATHER_BYTES // (8 * (5 + 3 * slots)))) if index.grid else block
    uniforms = np.empty((block, 2))
    rows = np.empty((3, block))
    products = np.empty((3, slots, part))
    if index.grid:
        scaled, sectors = np.empty(part), np.empty(part)
        steps, firsts, cells = (np.empty(part, np.intp) for _ in range(3))
    else:
        words = index.words.reshape(3, slots, 1)
    scores = np.empty(size)
    for lo in range(0, size, block):
        u = rng.random(out=uniforms[: min(block, size - lo)])
        block_directions = _directions(u, rows[:, : len(u)])[:, np.newaxis, :]
        for start in range(0, len(u), part):
            width = min(part, len(u) - start)
            directions = block_directions[:, :, start : start + width]
            product = products[:, :, :width]
            if index.grid:
                step, cell = steps[:width], cells[:width]
                np.multiply(u[start : start + width, 0], index.grid, out=scaled[:width])
                step[...] = scaled[:width]  # floor, as a is not negative
                # Every index is in range, so mode="clip" clips nothing; it skips the checks.
                np.take(index.sectors, step, out=sectors[:width], mode="clip")
                np.multiply(u[start : start + width, 1], sectors[:width], out=scaled[:width])
                cell[...] = scaled[:width]
                cell += np.take(index.first_cell, step, out=firsts[:width], mode="clip")
                gathered = product.reshape(3 * slots, width)  # a view: only the last axis is cut
                np.take(index.words, cell, axis=1, out=gathered, mode="clip")
                np.multiply(product, directions, out=product)
            else:
                # A whole block: numpy broadcasts one word over 4,096 samples at a third of
                # the cost per entry it takes over 2,048.
                np.multiply(words, directions, out=product)
            score = product[0]
            score += product[1]
            score += product[2]
            np.max(score, axis=0, out=scores[lo + start : lo + start + width])
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
    if not 0.0 <= theta <= math.pi:  # NaN included
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
