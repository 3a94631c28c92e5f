"""Visual vocabulary, global embeddings (BoW / VLAD), and top-k retrieval.

The vocabulary is a flat k-medians clustering in Hamming space over binary
descriptors: assignment to the nearest centroid, centroid update by per-bit
majority vote.  Embeddings are L2-normalized; a frame with no features maps
to the all-zero vector, which never wins retrieval unless nothing else exists.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence

import numpy as np
import scipy.sparse

from pointloc.binio import ExactReader
from pointloc.features import DESCRIPTOR_BITS, DESCRIPTOR_BYTES, hamming_matrix

ZERO_VECTOR_DISTANCE = 2.0  # distance assigned to/from all-zero embeddings


class InsufficientDataError(Exception):
    pass


class EmptyIndexError(Exception):
    pass


@dataclass(frozen=True)
class Vocabulary:
    k: int
    centroids: np.ndarray  # (k, 32) uint8
    idf: np.ndarray  # (k,) float64
    training_seed: int

    def __post_init__(self) -> None:
        self.centroids.setflags(write=False)
        self.idf.setflags(write=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return (
            self.k == other.k
            and self.training_seed == other.training_seed
            and np.array_equal(self.centroids, other.centroids)
            and np.array_equal(self.idf, other.idf)
        )

    __hash__ = None


class RetrievalIndex:
    """The embedding rows of the database frames, one per frame (a frame's
    row number is its id), as compressed sparse rows: only the nonzero
    entries are stored.  Intra-normalized VLAD leaves the block of every word
    a frame does not use at exact zero, so most of a row is never stored.

    `matrix` holds the stored values (float64, row by row), `columns` their
    int32 columns and `row_starts` where each row's values begin; `zero_rows`
    (rows with no stored value) and `sq_norms` are derived from them.
    """

    def __init__(self, rows: Iterable[np.ndarray], dim: int) -> None:
        """Index the dense float64 rows of length dim.  Each row is read
        before the next is drawn, so the rows may be one reused buffer."""
        if dim >= 2**31:
            raise ValueError(f"index dim {dim} does not fit 32-bit columns")
        values, columns, starts, sq_norms = [np.zeros(0)], [np.zeros(0, np.intp)], [0], []
        for row in rows:
            # +-0.0 is left out: (+0.0 - q)^2 and (-0.0 - q)^2 have the same bits
            cols = np.flatnonzero(row != 0.0)
            stored = row[cols]
            values.append(stored)
            columns.append(cols)
            starts.append(starts[-1] + len(cols))
            sq_norms.append(stored @ stored)
        self._csr = scipy.sparse.csr_array(
            (
                np.concatenate(values),
                np.concatenate(columns, dtype=np.int32),
                np.array(starts, dtype=np.int32),
            ),
            shape=(len(sq_norms), dim),
        )
        self.matrix = self._csr.data
        self.columns = self._csr.indices
        self.row_starts = self._csr.indptr
        self.zero_rows = np.diff(self.row_starts) == 0
        self.sq_norms = np.array(sq_norms, dtype=np.float64)
        for value in (self.matrix, self.columns, self.row_starts, self.zero_rows, self.sq_norms):
            value.setflags(write=False)

    @property
    def dim(self) -> int:
        return self._csr.shape[1]

    def __len__(self) -> int:
        return self._csr.shape[0]

    def dense_rows(self, rows: Sequence[int]) -> np.ndarray:
        """The given rows as a new C-order (len(rows), dim) float64 array."""
        out = np.zeros((len(rows), self.dim))
        for dense, r in zip(out, rows):
            lo, hi = self.row_starts[r], self.row_starts[r + 1]
            dense[self.columns[lo:hi]] = self.matrix[lo:hi]
        return out


def assign_words(descriptors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid per descriptor by Hamming distance, ties to the
    lowest centroid index."""
    if len(descriptors) == 0:
        return np.zeros(0, dtype=np.int64)
    return np.argmin(hamming_matrix(descriptors, centroids), axis=1).astype(np.int64)


def train_vocabulary(
    frame_descriptors: Sequence[np.ndarray],
    k: int,
    seed: int = 0,
    max_iters: int = 50,
) -> Vocabulary:
    """k-medians over the pooled descriptors of all frames.

    Initialization is k-means++-style sampling (squared Hamming weights) from
    the seeded stream; updates take the per-bit majority, breaking exact ties
    with the bit of the lowest-index member.  The idf of word w is
    ln(n_frames / (1 + n_frames containing w)).
    """
    frame_descriptors = [np.asarray(f, dtype=np.uint8).reshape(-1, DESCRIPTOR_BYTES) for f in frame_descriptors]
    pool = (
        np.concatenate([f for f in frame_descriptors if len(f)], axis=0)
        if any(len(f) for f in frame_descriptors)
        else np.zeros((0, DESCRIPTOR_BYTES), dtype=np.uint8)
    )
    if len(pool) < k:
        raise InsufficientDataError(f"need at least k={k} descriptors, got {len(pool)}")
    if seed < 0:
        raise ValueError("training seed must be non-negative")
    rng = np.random.default_rng(seed)

    centroids = _kmeanspp_init(pool, k, rng)
    assignment = assign_words(pool, centroids)
    for _ in range(max_iters):
        centroids = _majority_update(pool, assignment, centroids, k)
        new_assignment = assign_words(pool, centroids)
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment

    n_frames = len(frame_descriptors)
    present = np.zeros((n_frames, k), dtype=bool)
    offset = 0
    for i, f in enumerate(frame_descriptors):
        words = assignment[offset : offset + len(f)]
        present[i, np.unique(words)] = True
        offset += len(f)
    df = present.sum(axis=0)
    idf = np.log(n_frames / (1.0 + df))
    return Vocabulary(k, centroids, idf, int(seed))


def _kmeanspp_init(pool: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(pool)
    chosen = [int(rng.integers(n))]
    d2 = hamming_matrix(pool, pool[chosen[-1] : chosen[-1] + 1])[:, 0].astype(np.float64) ** 2
    while len(chosen) < k:
        total = d2.sum()
        if total <= 0.0:
            raise InsufficientDataError(
                f"fewer than k={k} distinct descriptors in the training pool"
            )
        idx = int(rng.choice(n, p=d2 / total))
        chosen.append(idx)
        nd = hamming_matrix(pool, pool[idx : idx + 1])[:, 0].astype(np.float64) ** 2
        d2 = np.minimum(d2, nd)
    return pool[np.array(chosen)].copy()


def _majority_update(
    pool: np.ndarray, assignment: np.ndarray, old: np.ndarray, k: int
) -> np.ndarray:
    out = old.copy()
    bits = np.unpackbits(pool, axis=1)  # (n, 256)
    for w in range(k):
        members = np.nonzero(assignment == w)[0]
        if len(members) == 0:
            continue  # empty cluster keeps its previous centroid
        ones = bits[members].sum(axis=0)
        half = len(members) / 2.0
        majority = ones > half
        tie = ones == half
        if tie.any():
            majority = np.where(tie, bits[members[0]].astype(bool), majority)
        out[w] = np.packbits(majority.astype(np.uint8))
    return out


def embed_bow(
    descriptors: np.ndarray,
    vocab: Vocabulary,
    words: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """TF-IDF bag-of-words histogram, L2-normalized; empty input -> zeros.

    `words` are the descriptors' vocabulary words when already assigned;
    `out`, a zero-filled float64 row of length k, receives the values.
    """
    values = np.zeros(vocab.k) if out is None else out
    if len(descriptors):
        if words is None:
            words = assign_words(np.asarray(descriptors, dtype=np.uint8), vocab.centroids)
        values[:] = np.bincount(words, minlength=vocab.k) * vocab.idf
        norm = np.linalg.norm(values)
        if norm > 0:
            values /= norm
        else:
            values[:] = 0.0  # +0.0: a zero count times a negative idf is -0.0
    return values


def embed_vlad(
    descriptors: np.ndarray,
    vocab: Vocabulary,
    words: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-word residual aggregation over +/-1 descriptor vectors with
    intra-normalization, then global L2 normalization by the root of the
    nonzero block count; empty input -> zeros.

    `words` are the descriptors' vocabulary words when already assigned;
    `out`, a zero-filled float64 row of length k * 256, receives the values.

    A word's block is the sum of its members' +/-1 residuals s(d) - s(c),
    s = 2 b - 1 for the 0/1 bits b: twice the sum of their bit residuals
    b(d) - b(c).  One product, onehot @ bit residuals, sums them for all
    words at once.  Below 2**22 descriptors per frame every block entry is
    an integer below 2**24 and every sum of squares one below 2**53, so the
    float32 product is exact and each block norm is the square root of an
    exact integer: the values are bit for bit those of summing each word's
    members on its own.  The factor 2 is left out, which changes no bit of
    the normalized block: scaling by a power of two commutes with rounding.
    """
    k = vocab.k
    values = np.zeros(k * DESCRIPTOR_BITS) if out is None else out
    if len(descriptors):
        descriptors = np.asarray(descriptors, dtype=np.uint8)
        if words is None:
            words = assign_words(descriptors, vocab.centroids)
        present = np.bincount(words, minlength=k) > 0
        used = np.flatnonzero(present)
        onehot = np.zeros((len(used), len(words)), dtype=np.float32)
        onehot[np.cumsum(present)[words] - 1, np.arange(len(words))] = 1.0
        residuals = np.unpackbits(descriptors, axis=1).astype(np.float32)
        residuals -= np.unpackbits(vocab.centroids, axis=1)[words]
        sums = (onehot @ residuals).astype(np.float64)
        norms = np.sqrt(np.einsum("ij,ij->i", sums, sums))[:, None]
        nonzero = np.count_nonzero(norms)
        norms[norms == 0] = 1.0  # a zero block stays 0
        sums /= norms
        # Every nonzero block is now a unit vector, so the row's L2 norm is
        # the root of their count.  Taking it so, rather than summing the
        # squares of the k * 256 row, leaves the row independent of how a
        # BLAS library splits that sum across threads.
        if nonzero:
            sums /= np.sqrt(nonzero)
        values.reshape(k, DESCRIPTOR_BITS)[used] = sums  # words without members stay 0
    return values


def _ranked(index: RetrievalIndex, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the k best frames in rank order, and their exact distances.

    The exact distance of a row is the row sum of its squared difference to
    the query.  Zero embeddings (either side) sit at ZERO_VECTOR_DISTANCE and
    are ranked after every nonzero frame so that a featureless frame can only
    win when nothing else is there; equal distances go to the lowest row.
    """
    if len(index) == 0:
        raise EmptyIndexError("retrieval index is empty")
    if len(q) != index.dim:
        raise ValueError(f"query dim {len(q)} does not match index dim {index.dim}")
    k = min(max(0, k), len(index))
    if k == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    if not np.any(q):
        rows = np.argsort(index.zero_rows, kind="stable")[:k]
        return rows, np.full(k, ZERO_VECTOR_DISTANCE)

    # One sparse mat-vec ranks every row by ||d||^2 - 2 d.q + ||q||^2; only
    # rows that may be among the k best are then recomputed exactly.  With
    # u = 2^-53, m = dim + 2 and R = max ||d|| + ||q||, the standard
    # dot-product bound |fl(x.y) - x.y| <= gamma_m sum |x_i y_i|,
    # gamma_m = m u / (1 - m u), holds for every summation order of at most m
    # terms, so for the mat-vec and for sq_norms summed over the stored
    # values as for a dense BLAS product.  Summed over the three terms it
    # puts the ranking value within gamma_m R^2 of the true distance; the
    # exact sum of squared differences is also within gamma_m R^2 of it, so
    # the two differ by at most delta = 2 gamma_m R^2.  The k-th best exact
    # distance is then at most (k-th best ranking value) + delta, and every
    # row at or below it has a ranking value at most (k-th best ranking
    # value) + 2 delta: that is the margin.  For unit rows at dim 65,536
    # gamma_m is 7.3e-12 and the margin 1.2e-10.
    qq = float(q @ q)
    approx = index.sq_norms - 2.0 * (index._csr @ q) + qq
    approx[index.zero_rows] = np.inf
    mu = (index.dim + 2) * np.finfo(np.float64).eps / 2  # m u
    gamma = mu / (1.0 - mu)
    reach = float(np.sqrt(index.sq_norms.max())) + np.sqrt(qq)
    kth = np.partition(approx, k - 1)[k - 1]
    cand = np.flatnonzero(~(approx > kth + 4.0 * gamma * reach * reach))

    zero = index.zero_rows[cand]
    dist = np.full(len(cand), ZERO_VECTOR_DISTANCE)
    # The exact distance is taken over the dense row, whose unstored entries
    # are +0.0.  A row sum over axis 1 gives each row the same bits whatever
    # rows come with it (einsum does not: on a single 65,536-wide row it sums
    # in buffered chunks), so top-1 and top-k report identical distances.
    diff = index.dense_rows(cand[~zero])
    diff -= q
    diff *= diff
    dist[~zero] = diff.sum(axis=1)
    order = np.lexsort((cand, dist, zero))[:k]
    return cand[order], dist[order]


def query_top1(index: RetrievalIndex, q: np.ndarray) -> tuple[int, float]:
    """Row of the closest database frame by squared Euclidean distance
    between unit embeddings, and the distance; ties go to the lowest row."""
    rows, dist = _ranked(index, q, 1)
    return int(rows[0]), float(dist[0])


def query_topk(index: RetrievalIndex, q: np.ndarray, k: int) -> list[tuple[int, float]]:
    rows, dist = _ranked(index, q, k)
    return [(int(r), float(v)) for r, v in zip(rows, dist)]


# --- vocabulary files ----------------------------------------------------------
#
# The vocabulary body, k x 32 u8 centroids then k f64 idf weights
# (big-endian), follows a header in both the vocabulary file and the
# database file; write_vocabulary_body and read_vocabulary_body are its one
# writer and one reader.


def write_vocabulary_body(fh: BinaryIO, vocab: Vocabulary) -> None:
    fh.write(np.ascontiguousarray(vocab.centroids, dtype=np.uint8).tobytes())
    fh.write(np.ascontiguousarray(vocab.idf, dtype=">f8").tobytes())


def read_vocabulary_body(r: ExactReader, k: int, seed: int) -> Vocabulary:
    """The vocabulary of k words whose body comes next in r; its header
    gave k and the training seed."""
    if k == 0:
        raise r.fail("vocabulary has no words")
    centroids = r.array(k * DESCRIPTOR_BYTES, np.uint8, "vocabulary centroids")
    idf = r.array(k, ">f8", "vocabulary idf weights").astype(np.float64)
    if not np.all(np.isfinite(idf)):
        raise r.fail("vocabulary idf weights are not finite")
    return Vocabulary(k, centroids.reshape(k, DESCRIPTOR_BYTES).copy(), idf, seed)


def save_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    """Binary: u32 k, u32 bits, i64 seed (big-endian), then the body."""
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIq", vocab.k, DESCRIPTOR_BITS, vocab.training_seed))
        write_vocabulary_body(fh, vocab)


class VocabularyFormatError(ValueError):
    """A vocabulary file that is truncated, corrupt or of another format."""


def load_vocabulary(path: str | Path) -> Vocabulary:
    with open(path, "rb") as fh:
        r = ExactReader(fh, path, VocabularyFormatError)
        k, bits, seed = r.unpack(">IIq", "header")
        if bits != DESCRIPTOR_BITS:
            raise r.fail(f"vocabulary stores {bits}-bit words, expected {DESCRIPTOR_BITS}")
        vocab = read_vocabulary_body(r, k, seed)
        r.expect_end("the idf weights")
    return vocab
