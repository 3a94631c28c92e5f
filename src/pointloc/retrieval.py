"""Visual vocabulary, global embeddings (BoW / VLAD), and top-k retrieval.

The vocabulary is a flat k-medians clustering in Hamming space over binary
descriptors: assignment to the nearest centroid, centroid update by per-bit
majority vote.  Embeddings are L2-normalized; a frame with no features maps
to the all-zero vector, which never wins retrieval unless nothing else exists.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from pointloc.binio import ExactReader
from pointloc.features import DESCRIPTOR_BITS, DESCRIPTOR_BYTES, hamming_matrix

ZERO_VECTOR_DISTANCE = 2.0  # distance assigned to/from all-zero embeddings

VARIANT_BOW = "bow"
VARIANT_VLAD = "vlad"


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


@dataclass(frozen=True)
class GlobalEmbedding:
    values: np.ndarray
    variant: str

    def __post_init__(self) -> None:
        self.values.setflags(write=False)

    def is_zero(self) -> bool:
        return not np.any(self.values)


@dataclass(frozen=True)
class RetrievalIndex:
    frame_ids: np.ndarray  # (n,) int64
    matrix: np.ndarray  # (n, dim) float64
    variant: str
    # Derived once from the matrix (never stored on disk): all-zero rows and
    # squared row norms, the per-row half of the inner-product ranking.
    zero_rows: np.ndarray = field(init=False, repr=False, compare=False)
    sq_norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.frame_ids) != len(self.matrix):
            raise ValueError("one embedding per frame id required")
        self.frame_ids.setflags(write=False)
        self.matrix.setflags(write=False)
        sq_norms = np.einsum("ij,ij->i", self.matrix, self.matrix)
        zero_rows = sq_norms == 0.0
        # tiny nonzero entries can square to 0: only those rows need a look
        zero_rows[zero_rows] = ~np.any(self.matrix[zero_rows], axis=1)
        for name, value in (("zero_rows", zero_rows), ("sq_norms", sq_norms)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.frame_ids)


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


def _descriptor_signs(descriptors: np.ndarray) -> np.ndarray:
    """Descriptor bits as +/-1 float rows."""
    bits = np.unpackbits(np.asarray(descriptors, dtype=np.uint8), axis=1)
    return bits.astype(np.float64) * 2.0 - 1.0


def embed_bow(descriptors: np.ndarray, vocab: Vocabulary) -> GlobalEmbedding:
    """TF-IDF bag-of-words histogram, L2-normalized; empty input -> zeros."""
    values = np.zeros(vocab.k)
    if len(descriptors):
        words = assign_words(np.asarray(descriptors, dtype=np.uint8), vocab.centroids)
        counts = np.bincount(words, minlength=vocab.k).astype(np.float64)
        values = counts * vocab.idf
        norm = np.linalg.norm(values)
        values = values / norm if norm > 0 else np.zeros(vocab.k)
    return GlobalEmbedding(values, VARIANT_BOW)


def embed_vlad(descriptors: np.ndarray, vocab: Vocabulary) -> GlobalEmbedding:
    """Per-word residual aggregation over +/-1 descriptor vectors with
    intra-normalization, then global L2 normalization; empty input -> zeros."""
    dim = vocab.k * DESCRIPTOR_BITS
    if len(descriptors) == 0:
        return GlobalEmbedding(np.zeros(dim), VARIANT_VLAD)
    descriptors = np.asarray(descriptors, dtype=np.uint8)
    words = assign_words(descriptors, vocab.centroids)
    signs = _descriptor_signs(descriptors)
    centroid_signs = _descriptor_signs(vocab.centroids)
    blocks = np.zeros((vocab.k, DESCRIPTOR_BITS))
    for w in np.unique(words):
        members = words == w
        blocks[w] = (signs[members] - centroid_signs[w]).sum(axis=0)
    norms = np.linalg.norm(blocks, axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):
        blocks = np.where(norms > 0, blocks / norms, 0.0)
    flat = blocks.ravel()
    norm = np.linalg.norm(flat)
    return GlobalEmbedding(flat / norm if norm > 0 else np.zeros(dim), VARIANT_VLAD)


def build_index(frame_ids: Sequence[int], embeddings: Sequence[GlobalEmbedding]) -> RetrievalIndex:
    if len(frame_ids) != len(embeddings):
        raise ValueError("frame_ids and embeddings must align")
    if not embeddings:
        return RetrievalIndex(np.zeros(0, dtype=np.int64), np.zeros((0, 0)), VARIANT_BOW)
    variant = embeddings[0].variant
    if any(e.variant != variant for e in embeddings):
        raise ValueError("all embeddings in an index must share one variant")
    matrix = np.stack([e.values for e in embeddings]).astype(np.float64, copy=False)
    return RetrievalIndex(np.asarray(frame_ids, dtype=np.int64).copy(), matrix, variant)


def _ranked(index: RetrievalIndex, q: GlobalEmbedding, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the k best frames in rank order, and their exact distances.

    The exact distance of a row is the row sum of its squared difference to
    the query.  Zero embeddings (either side) sit at ZERO_VECTOR_DISTANCE and
    are ranked after every nonzero frame so that a featureless frame can only
    win when nothing else is there; equal distances go to the lowest frame id.
    """
    if len(index) == 0:
        raise EmptyIndexError("retrieval index is empty")
    if q.variant != index.variant or len(q.values) != index.matrix.shape[1]:
        raise ValueError(
            f"query variant/dim {q.variant}/{len(q.values)} does not match "
            f"index {index.variant}/{index.matrix.shape[1]}"
        )
    k = min(max(0, k), len(index))
    if k == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    if q.is_zero():
        rows = np.lexsort((index.frame_ids, index.zero_rows))[:k]
        return rows, np.full(k, ZERO_VECTOR_DISTANCE)

    # One GEMV ranks every row by ||d||^2 - 2 d.q + ||q||^2; only rows that
    # may be among the k best are then recomputed exactly.  With u = 2^-53,
    # m = dim + 2 and R = max ||d|| + ||q||, the standard dot-product bound
    # |fl(x.y) - x.y| <= gamma_m sum |x_i y_i|, gamma_m = m u / (1 - m u),
    # holds for every summation order, hence for any BLAS blocking or thread
    # count.  Summed over the three terms it puts the GEMV value within
    # gamma_m R^2 of the true distance; the exact sum of squared differences
    # is also within gamma_m R^2 of it, so the two differ by at most
    # delta = 2 gamma_m R^2.  The k-th best exact distance is then at most
    # (k-th best GEMV value) + delta, and every row at or below it has a GEMV
    # value at most (k-th best GEMV value) + 2 delta: that is the margin.
    # For unit rows at dim 65,536 gamma_m is 7.3e-12 and the margin 1.2e-10.
    qv = q.values
    qq = float(qv @ qv)
    approx = index.sq_norms - 2.0 * (index.matrix @ qv) + qq
    approx[index.zero_rows] = np.inf
    mu = (index.matrix.shape[1] + 2) * np.finfo(np.float64).eps / 2  # m u
    gamma = mu / (1.0 - mu)
    reach = float(np.sqrt(index.sq_norms.max())) + np.sqrt(qq)
    kth = np.partition(approx, k - 1)[k - 1]
    cand = np.flatnonzero(~(approx > kth + 4.0 * gamma * reach * reach))

    zero = index.zero_rows[cand]
    dist = np.full(len(cand), ZERO_VECTOR_DISTANCE)
    # A row sum over axis 1 gives each row the same bits whatever rows come
    # with it (einsum does not: on a single 65,536-wide row it sums in
    # buffered chunks), so top-1 and top-k report identical distances.
    diff = index.matrix[cand[~zero]]  # a copy: square it in place
    diff -= qv
    diff *= diff
    dist[~zero] = diff.sum(axis=1)
    order = np.lexsort((index.frame_ids[cand], dist, zero))[:k]
    return cand[order], dist[order]


def query_top1(index: RetrievalIndex, q: GlobalEmbedding) -> tuple[int, float]:
    """Closest database frame by squared Euclidean distance between unit
    embeddings; ties broken by the lowest frame id."""
    rows, dist = _ranked(index, q, 1)
    return int(index.frame_ids[rows[0]]), float(dist[0])


def query_topk(index: RetrievalIndex, q: GlobalEmbedding, k: int) -> list[tuple[int, float]]:
    rows, dist = _ranked(index, q, k)
    return [(int(index.frame_ids[r]), float(v)) for r, v in zip(rows, dist)]


# --- vocabulary / embedding files -------------------------------------------------


def save_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    """Binary: u32 k, u32 bits, i64 seed (big-endian), centroids, idf floats."""
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIq", vocab.k, DESCRIPTOR_BITS, vocab.training_seed))
        fh.write(np.ascontiguousarray(vocab.centroids, dtype=np.uint8).tobytes())
        fh.write(np.ascontiguousarray(vocab.idf, dtype=">f8").tobytes())


class VocabularyFormatError(ValueError):
    """A vocabulary file that is truncated, corrupt or of another format."""


def load_vocabulary(path: str | Path) -> Vocabulary:
    with open(path, "rb") as fh:
        r = ExactReader(fh, path, VocabularyFormatError)
        k, bits, seed = r.unpack(">IIq", "header")
        if bits != DESCRIPTOR_BITS:
            raise r.fail(f"vocabulary stores {bits}-bit words, expected {DESCRIPTOR_BITS}")
        if k == 0:
            raise r.fail("vocabulary has no words")
        centroids = r.array(k * DESCRIPTOR_BYTES, np.uint8, "centroids")
        idf = r.array(k, ">f8", "idf weights").astype(np.float64)
        r.expect_end("the idf weights")
    return Vocabulary(k, centroids.reshape(k, DESCRIPTOR_BYTES).copy(), idf, seed)


def dump_embeddings(embeddings: Sequence[GlobalEmbedding], path: str | Path) -> None:
    """Binary: u32 count, u32 dim (big-endian), then row-major f8 values."""
    count = len(embeddings)
    dim = len(embeddings[0].values) if count else 0
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", count, dim))
        for e in embeddings:
            fh.write(np.ascontiguousarray(e.values, dtype=">f8").tobytes())


class EmbeddingFormatError(ValueError):
    """An embeddings dump that is truncated, corrupt or of another format."""


def load_embeddings(path: str | Path, variant: str) -> list[GlobalEmbedding]:
    with open(path, "rb") as fh:
        r = ExactReader(fh, path, EmbeddingFormatError)
        count, dim = r.unpack(">II", "header")
        data = r.array(count * dim, ">f8", "values").astype(np.float64)
        r.expect_end("the values")
    return [GlobalEmbedding(row.copy(), variant) for row in data.reshape(count, dim)]
