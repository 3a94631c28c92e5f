from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import DenseRetrievalIndex, assert_same_as_dense, embed_vlad_per_word, hamming, scan_ranked

import pointloc
from pointloc.features import DESCRIPTOR_BITS
from pointloc.retrieval import (
    EmptyIndexError,
    InsufficientDataError,
    RetrievalIndex,
    Vocabulary,
    VocabularyFormatError,
    assign_words,
    embed_bow,
    embed_vlad,
    load_vocabulary,
    query_top1,
    query_topk,
    save_vocabulary,
    train_vocabulary,
)


def random_descriptors(rng, n):
    return rng.integers(0, 256, size=(n, 32), dtype=np.uint8)


def two_cluster_pool(n_each=30):
    """Descriptors near all-zeros and near all-ones: trivially separable."""
    a = np.zeros((n_each, 32), dtype=np.uint8)
    b = np.full((n_each, 32), 255, dtype=np.uint8)
    for i in range(n_each):
        a[i, i % 32] = 1 << (i % 8)  # flip one bit
        b[i, i % 32] ^= 1 << (i % 8)
    return a, b


def unit_embedding(rng, dim=16):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def index_of(rows) -> RetrievalIndex:
    rows = np.array(rows, dtype=np.float64)
    return RetrievalIndex(rows, rows.shape[1])


class TestTrainVocabulary:
    def test_k1_is_bitwise_majority(self, rng):
        descs = random_descriptors(rng, 41)
        vocab = train_vocabulary([descs], k=1, seed=0)
        bits = np.unpackbits(descs, axis=1)
        majority = (bits.sum(axis=0) > len(descs) / 2).astype(np.uint8)
        assert np.array_equal(vocab.centroids[0], np.packbits(majority))

    def test_two_clusters_partition_exactly(self):
        a, b = two_cluster_pool()
        pool = np.concatenate([a, b])
        vocab = train_vocabulary([pool], k=2, seed=1)
        words = assign_words(pool, vocab.centroids)
        # exhaustive check: each cluster is uniform and the two differ
        assert len(set(words[:30].tolist())) == 1
        assert len(set(words[30:].tolist())) == 1
        assert words[0] != words[-1]

    def test_deterministic(self, rng):
        frames = [random_descriptors(rng, 40) for _ in range(4)]
        v1 = train_vocabulary(frames, k=8, seed=5)
        v2 = train_vocabulary(frames, k=8, seed=5)
        assert v1 == v2

    def test_insufficient_data(self, rng):
        with pytest.raises(InsufficientDataError):
            train_vocabulary([random_descriptors(rng, 3)], k=4)

    def test_idf_formula(self, rng):
        # word in every frame gets ln(n/(1+n)) < 0; unseen word ln(n/1)
        frames = [random_descriptors(rng, 30) for _ in range(5)]
        vocab = train_vocabulary(frames, k=4, seed=2)
        df = np.zeros(4)
        for f in frames:
            df[np.unique(assign_words(f, vocab.centroids))] += 1
        assert np.allclose(vocab.idf, np.log(5 / (1.0 + df)))


class TestEmbedBow:
    @pytest.fixture
    def vocab(self, rng):
        frames = [random_descriptors(rng, 50) for _ in range(6)]
        return train_vocabulary(frames, k=8, seed=3)

    def test_empty_is_zero_vector(self, vocab):
        e = embed_bow(np.zeros((0, 32), dtype=np.uint8), vocab)
        assert not np.any(e)
        assert e.shape == (vocab.k,) and e.dtype == np.float64

    def test_unit_norm(self, vocab, rng):
        e = embed_bow(random_descriptors(rng, 40), vocab)
        assert np.linalg.norm(e) == pytest.approx(1.0, abs=1e-9)

    def test_single_word_is_one_hot(self, vocab):
        word = 2
        descs = np.repeat(vocab.centroids[word : word + 1], 5, axis=0)
        e = embed_bow(descs, vocab)
        nonzero = np.nonzero(e)[0]
        assert nonzero.tolist() == [word]
        assert abs(abs(e[word]) - 1.0) < 1e-12

    def test_nonzero_words_match_linear_scan(self, vocab, rng):
        descs = random_descriptors(rng, 25)
        e = embed_bow(descs, vocab)
        expected_words = set()
        for d in descs:
            dists = [hamming(d, c) for c in vocab.centroids]
            expected_words.add(min(range(len(dists)), key=lambda i: (dists[i], i)))
        observed = set(np.nonzero(e)[0].tolist())
        # idf can legitimately zero a word; observed must be a subset hit only
        # where idf vanishes
        for w in expected_words - observed:
            assert vocab.idf[w] == 0.0
        assert observed <= expected_words

    def test_duplication_invariance(self, vocab, rng):
        descs = random_descriptors(rng, 30)
        once = embed_bow(descs, vocab)
        twice = embed_bow(np.concatenate([descs, descs]), vocab)
        assert np.allclose(once, twice, atol=1e-12)


class TestEmbedVlad:
    @pytest.fixture
    def vocab(self, rng):
        frames = [random_descriptors(rng, 50) for _ in range(6)]
        return train_vocabulary(frames, k=4, seed=4)

    def test_empty_is_zero_vector(self, vocab):
        e = embed_vlad(np.zeros((0, 32), dtype=np.uint8), vocab)
        assert not np.any(e)
        assert e.shape == (4 * DESCRIPTOR_BITS,) and e.dtype == np.float64

    def test_unit_norm(self, vocab, rng):
        e = embed_vlad(random_descriptors(rng, 40), vocab)
        assert np.linalg.norm(e) == pytest.approx(1.0, abs=1e-9)

    def test_centroid_descriptor_zero_residual_block(self, vocab):
        word = 1
        e = embed_vlad(vocab.centroids[word : word + 1], vocab)
        block = e[word * DESCRIPTOR_BITS : (word + 1) * DESCRIPTOR_BITS]
        assert np.all(block == 0.0)

    def test_matches_reference_aggregation(self, vocab, rng):
        descs = random_descriptors(rng, 20)
        e = embed_vlad(descs, vocab)

        # unoptimized per-word reference, written independently
        def signs(row):
            return [2 * ((int(row[i // 8]) >> (7 - i % 8)) & 1) - 1 for i in range(256)]

        blocks = np.zeros((vocab.k, 256))
        for d in descs:
            dists = [hamming(d, c) for c in vocab.centroids]
            w = min(range(len(dists)), key=lambda i: (dists[i], i))
            blocks[w] += np.array(signs(d)) - np.array(signs(vocab.centroids[w]))
        for w in range(vocab.k):
            n = np.linalg.norm(blocks[w])
            if n > 0:
                blocks[w] /= n
        flat = blocks.ravel()
        flat /= np.linalg.norm(flat)
        assert np.allclose(e, flat, atol=1e-12)

    def test_rows_independent_of_blas_threads(self):
        """k = 256 rows (65,536 wide), embedded under OpenBLAS/OpenMP pools of
        2 and 1 threads in fresh processes, must agree byte for byte."""
        script = (
            "import sys, numpy as np\n"
            "from pointloc.retrieval import Vocabulary, embed_vlad\n"
            "rng = np.random.default_rng(5)\n"
            "vocab = Vocabulary(256, rng.integers(0, 256, (256, 32), dtype=np.uint8),"
            " np.ones(256), 0)\n"
            "for _ in range(24):\n"
            "    descs = rng.integers(0, 256, (600, 32), dtype=np.uint8)\n"
            "    sys.stdout.buffer.write(embed_vlad(descs, vocab).tobytes())\n"
        )
        src = str(Path(pointloc.__file__).resolve().parent.parent)
        outputs = []
        for threads in ("2", "1"):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                filter(None, (src, os.environ.get("PYTHONPATH")))
            ))
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = threads
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, timeout=120
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout)
        assert len(outputs[0]) == 24 * 256 * DESCRIPTOR_BITS * 8
        assert outputs[0] == outputs[1]


def float_bits(values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestEmbedVladOneHot:
    """The one-hot embed_vlad against the per-word loop it replaced, bit
    for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 256),
        n=st.integers(0, 300),
        centroid_copies=st.integers(0, 4),
        duplicates=st.integers(0, 4),
        words_given=st.booleans(),
    )
    @example(seed=0, k=1, n=0, centroid_copies=0, duplicates=0, words_given=False)  # empty
    @example(seed=1, k=1, n=40, centroid_copies=0, duplicates=3, words_given=True)
    @example(seed=2, k=256, n=300, centroid_copies=4, duplicates=4, words_given=False)
    @example(seed=3, k=8, n=0, centroid_copies=3, duplicates=0, words_given=True)  # all zero
    def test_bit_identical_to_per_word_loop(
        self, seed, k, n, centroid_copies, duplicates, words_given
    ):
        rng = np.random.default_rng(seed)
        centroids = random_descriptors(rng, k)
        vocab = Vocabulary(k, centroids, np.zeros(k), 0)
        descs = random_descriptors(rng, n)
        parts = [descs, centroids[rng.integers(0, k, centroid_copies)]]  # zero residuals
        if n:
            parts.append(descs[rng.integers(0, n, duplicates)])
        descs = np.concatenate(parts)
        descs = descs[rng.permutation(len(descs))]
        want = embed_vlad_per_word(descs, vocab)
        words = assign_words(descs, centroids) if words_given else None
        got = embed_vlad(descs, vocab, words)
        assert np.array_equal(float_bits(got), float_bits(want))

    def test_centroid_members_leave_zero_block(self, rng):
        centroids = random_descriptors(rng, 4)
        vocab = Vocabulary(4, centroids, np.zeros(4), 0)
        near_0 = centroids[0].copy()
        near_0[0] ^= 1
        descs = np.stack([centroids[2], near_0, centroids[2]])
        assert assign_words(descs, centroids).tolist() == [2, 0, 2]
        got = embed_vlad(descs, vocab)
        assert np.array_equal(float_bits(got), float_bits(embed_vlad_per_word(descs, vocab)))
        blocks = got.reshape(4, DESCRIPTOR_BITS)
        assert not np.any(blocks[2]) and np.any(blocks[0])

    @pytest.mark.parametrize("embed", [embed_bow, embed_vlad])
    def test_words_and_out_change_no_bit(self, rng, embed):
        vocab = train_vocabulary([random_descriptors(rng, 60) for _ in range(4)], k=8, seed=1)
        descs = random_descriptors(rng, 50)
        plain = embed(descs, vocab)
        row = np.zeros(len(plain))
        given_words = embed(descs, vocab, assign_words(descs, vocab.centroids), out=row)
        assert np.shares_memory(given_words, row)
        assert np.array_equal(float_bits(given_words), float_bits(plain))


class TestQueries:
    def test_query_equal_to_db_embedding(self, rng):
        embs = [unit_embedding(rng) for _ in range(10)]
        index = index_of(embs)
        row, dist = query_top1(index, embs[4])
        assert row == 4
        assert dist < 1e-9

    def test_orthogonal_two_frame_index(self):
        e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        index = index_of([e1, e2])
        assert query_top1(index, e1) == (0, 0.0)
        assert query_top1(index, e2) == (1, 0.0)

    def test_matches_brute_force_scan(self, rng):
        embs = [unit_embedding(rng) for _ in range(200)]
        index = index_of(embs)
        for _ in range(20):
            q = unit_embedding(rng)
            dists = [float(np.sum((e - q) ** 2)) for e in embs]
            expected = min(range(200), key=lambda i: (dists[i], i))
            row, dist = query_top1(index, q)
            assert row == expected
            assert dist == pytest.approx(dists[expected], abs=1e-12)

    def test_topk_matches_scan_and_sort(self, rng):
        embs = [unit_embedding(rng) for _ in range(50)]
        index = index_of(embs)
        q = unit_embedding(rng)
        dists = [float(np.sum((e - q) ** 2)) for e in embs]
        expected = sorted(range(50), key=lambda i: (dists[i], i))
        got = query_topk(index, q, 50)
        assert [row for row, _ in got] == expected

    def test_topk_prefix_consistent(self, rng):
        embs = [unit_embedding(rng) for _ in range(30)]
        index = index_of(embs)
        q = unit_embedding(rng)
        top10 = query_topk(index, q, 10)
        assert query_topk(index, q, 1) == top10[:1]
        assert query_top1(index, q) == top10[0]
        assert len(query_topk(index, q, 100)) == 30

    def test_empty_index_raises(self, rng):
        index = RetrievalIndex(np.zeros((0, 16)), 16)
        with pytest.raises(EmptyIndexError):
            query_top1(index, unit_embedding(rng))

    def test_dimension_mismatch_raises(self, rng):
        index = index_of([unit_embedding(rng, dim=16)])
        with pytest.raises(ValueError, match="query dim 8 does not match index dim 16"):
            query_top1(index, unit_embedding(rng, dim=8))

    def test_permutation_invariance(self, rng):
        """Permuting the rows permutes the answer; between tied rows the
        lowest row of the matrix queried wins."""
        matrix = np.stack([unit_embedding(rng) for _ in range(40)])
        tied = [5, 17, 31]
        matrix[tied] = matrix[9]
        tied.append(9)
        index = index_of(matrix)
        assert query_top1(index, matrix[9]) == (5, 0.0)
        for _ in range(10):
            perm = rng.permutation(40)
            shuffled = index_of(matrix[perm])
            for q in (unit_embedding(rng), matrix[9], matrix[perm[0]]):
                row, dist = query_top1(index, q)
                # rows of the permuted matrix holding the winning embedding
                same = [j for j in range(40) if np.array_equal(matrix[perm[j]], matrix[row])]
                assert len(same) == (4 if row in tied else 1)
                assert query_top1(shuffled, q) == (same[0], dist)

    def test_self_retrieval_every_frame(self, rng):
        embs = [unit_embedding(rng) for _ in range(25)]
        index = index_of(embs)
        for i, e in enumerate(embs):
            row, dist = query_top1(index, e)
            assert row == i and dist < 1e-9

    def test_zero_vector_never_wins_unless_alone(self, rng):
        dim = 4
        zero = np.zeros(dim)
        # a db embedding at squared distance > 2 from the query (opposite sign)
        far = np.eye(dim)[0]
        q = -np.eye(dim)[0]
        index = index_of([zero, far])
        row, _ = query_top1(index, q)
        assert row == 1  # the featureless frame loses even at distance 4 > 2
        row, dist = query_top1(index_of([zero]), q)
        assert row == 0 and dist == 2.0

    def test_row_whose_norm_underflows_is_not_zero(self):
        zero = np.zeros(2)
        tiny = np.array([1e-200, 0.0])  # squares to 0
        q = np.array([0.0, 1.0])
        index = index_of([zero, tiny])
        assert query_topk(index, q, 2) == [(1, 1.0), (0, 2.0)]

    def test_zero_query_ranks_by_frame_id(self, rng):
        embs = [np.zeros(4), unit_embedding(rng, dim=4), np.zeros(4), unit_embedding(rng, dim=4)]
        index = index_of(embs)
        q = np.zeros(4)
        assert query_top1(index, q) == (1, 2.0)
        assert query_topk(index, q, 4) == [(1, 2.0), (3, 2.0), (0, 2.0), (2, 2.0)]


@st.composite
def tie_heavy_index(draw):
    """Index rows and a query built to stress the exact ranking: duplicate
    rows, copies moved by a few ulps in one component,
    zero rows, and queries that equal, nearly equal or miss every row."""
    dim = draw(st.integers(1, 6))
    component = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    n_base = draw(st.integers(1, 5))
    rows = []
    for _ in range(n_base):
        v = np.array(draw(st.lists(component, min_size=dim, max_size=dim)))
        norm = np.linalg.norm(v)
        rows.append(v / norm if norm > 0 else v)

    def nudged(v):
        v = v.copy()
        c = draw(st.integers(0, dim - 1))
        toward = np.inf if draw(st.booleans()) else -np.inf
        for _ in range(draw(st.integers(1, 3))):
            v[c] = np.nextafter(v[c], toward)
        return v

    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("duplicate", "ulps", "zero")))
        base = rows[draw(st.integers(0, len(rows) - 1))]
        rows.append(base.copy() if kind == "duplicate" else nudged(base) if kind == "ulps" else np.zeros(dim))
    kind = draw(st.sampled_from(("row", "ulps", "zero", "free")))
    if kind == "free":
        q = np.array(draw(st.lists(component, min_size=dim, max_size=dim)))
    else:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        q = row.copy() if kind == "row" else nudged(row) if kind == "ulps" else np.zeros(dim)
    return np.array(rows), q


class TestScanEquivalence:
    """query_top1 / query_topk against a one-row-at-a-time brute-force scan,
    compared with == on rows and distances."""

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_index(), st.randoms(use_true_random=False))
    def test_matches_brute_force_scan(self, case, random):
        matrix, q = case
        n = len(matrix)
        expected = scan_ranked(matrix, range(n), q)
        index = index_of(matrix)
        assert query_top1(index, q.copy()) == expected[0]
        for k in range(n + 2):
            assert query_topk(index, q.copy(), k) == expected[:k]
        perm = list(range(n))
        random.shuffle(perm)
        shuffled = query_topk(index_of(matrix[perm]), q.copy(), n)
        assert shuffled == scan_ranked(matrix[perm], range(n), q)
        assert sorted((perm[row], dist) for row, dist in shuffled) == sorted(expected)

    def test_full_width_rows(self, rng):
        """At the VLAD width (k = 256 words) a single-row einsum sums in other
        chunks than a many-row one; top-1 and top-k must still agree."""
        dim = 256 * DESCRIPTOR_BITS
        matrix = rng.normal(size=(6, dim))
        matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
        matrix[2] = matrix[4]
        matrix[5, 7] = np.nextafter(matrix[4, 7], np.inf)
        matrix[3] = 0.0
        index = index_of(matrix)
        for q in (matrix[4], matrix[5], matrix[0] + 1e-3 * matrix[1], np.zeros(dim)):
            expected = scan_ranked(matrix, range(6), q)
            assert query_top1(index, q.copy()) == expected[0]
            for k in range(1, 7):
                assert query_topk(index, q.copy(), k) == expected[:k]


@st.composite
def sparse_index_case(draw):
    """Dense rows and a query for the sparse-against-dense check: mostly
    zero rows of +-0.0, 1e-200 and ordinary entries (unit-normalized or
    not), with duplicate, all-zero, all -0.0 and nudged copies, and queries
    that are zero, -0.0, equal to a row, nudged or free."""
    dim = draw(st.sampled_from([1, 2, 5, 16, 64, 300]))
    entry = st.one_of(
        st.sampled_from([0.0, 0.0, 0.0, -0.0, 1e-200, -1e-200]),
        st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False),
    )
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)

    def row():
        v = np.zeros(dim)
        for c in draw(st.lists(st.integers(0, dim - 1), max_size=6)):
            v[c] = draw(entry)
        if draw(st.booleans()):  # a dense tail of ordinary values
            v[rng.random(dim) < 0.3] = rng.uniform(-1.0, 1.0)
        norm = np.linalg.norm(v)
        return v / norm if norm > 0 and draw(st.booleans()) else v

    def nudged(v):
        """v moved by a few ulps in one stored entry (any entry if none)."""
        v = v.copy()
        c = draw(st.sampled_from(np.flatnonzero(v).tolist() or list(range(dim))))
        toward = np.inf if draw(st.booleans()) else -np.inf
        for _ in range(draw(st.integers(1, 3))):
            v[c] = np.nextafter(v[c], toward)
        return v

    rows = [row() for _ in range(draw(st.integers(1, 5)))]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("duplicate", "ulps", "zero", "negzero", "fresh")))
        base = rows[draw(st.integers(0, len(rows) - 1))]
        rows.append(
            {
                "duplicate": lambda: base.copy(),
                "ulps": lambda: nudged(base),
                "zero": lambda: np.zeros(dim),
                "negzero": lambda: np.full(dim, -0.0),
                "fresh": row,
            }[kind]()
        )
    kind = draw(st.sampled_from(("row", "ulps", "zero", "negzero", "free")))
    row_q = rows[draw(st.integers(0, len(rows) - 1))]
    q = {
        "row": lambda: row_q.copy(),
        "ulps": lambda: nudged(row_q),
        "zero": lambda: np.zeros(dim),
        "negzero": lambda: np.full(dim, -0.0),
        "free": row,
    }[kind]()
    return np.array(rows), q


class TestSparseIndex:
    """The compressed sparse rows against the dense matrix they replaced
    (oracles.DenseRetrievalIndex): identical rows and distance bits."""

    @settings(max_examples=300, deadline=None)
    @given(sparse_index_case())
    def test_matches_dense_index(self, case):
        matrix, q = case
        index = index_of(matrix)
        assert_same_as_dense(index, DenseRetrievalIndex(matrix), q, range(len(matrix) + 2))
        assert np.array_equal(index.dense_rows(range(len(matrix))), matrix)
        assert np.array_equal(index.zero_rows, ~np.any(matrix, axis=1))

    def test_stores_only_nonzero_entries(self):
        matrix = np.array([[0.0, -0.0, 2.0, 1e-200], [-0.0, 0.0, 0.0, 0.0], [3.0, 0.0, 0.0, -1.0]])
        index = index_of(matrix)
        assert index.matrix.tolist() == [2.0, 1e-200, 3.0, -1.0]
        assert index.columns.dtype == np.int32 and index.columns.tolist() == [2, 3, 0, 3]
        assert index.row_starts.tolist() == [0, 2, 2, 4]
        assert index.zero_rows.tolist() == [False, True, False]
        dense = index.dense_rows([2, 1])
        assert dense.flags.c_contiguous and dense.tolist() == [matrix[2].tolist(), [0.0] * 4]
        assert not np.signbit(index.dense_rows([1])).any()  # -0.0 comes back as +0.0

    def test_rows_from_one_reused_buffer(self, rng):
        """Each row is copied out before the next is drawn."""
        matrix = np.where(rng.random((5, 12)) < 0.4, rng.normal(size=(5, 12)), 0.0)
        buffer = np.zeros(12)

        def rows():
            for r in matrix:
                buffer[:] = r
                yield buffer

        index = RetrievalIndex(rows(), 12)
        assert np.array_equal(index.dense_rows(range(5)), matrix)


class TestFiles:
    def test_vocabulary_round_trip(self, rng, tmp_path):
        frames = [random_descriptors(rng, 40) for _ in range(4)]
        vocab = train_vocabulary(frames, k=8, seed=6)
        save_vocabulary(vocab, tmp_path / "v.bin")
        assert load_vocabulary(tmp_path / "v.bin") == vocab

    def test_vocabulary_header(self, rng, tmp_path):
        vocab = train_vocabulary([random_descriptors(rng, 20)], k=4, seed=3)
        save_vocabulary(vocab, tmp_path / "v.bin")
        data = (tmp_path / "v.bin").read_bytes()
        assert data[:4] == (4).to_bytes(4, "big")
        assert data[4:8] == (256).to_bytes(4, "big")
        assert int.from_bytes(data[8:16], "big", signed=True) == 3
        assert len(data) == 16 + 4 * 32 + 4 * 8

    def test_negative_seed_rejected(self, rng):
        with pytest.raises(ValueError):
            train_vocabulary([random_descriptors(rng, 20)], k=4, seed=-1)

    def test_vocabulary_truncation_and_corruption_rejected(self, rng, tmp_path):
        vocab = train_vocabulary([random_descriptors(rng, 20)], k=4, seed=3)
        save_vocabulary(vocab, tmp_path / "v.bin")
        data = (tmp_path / "v.bin").read_bytes()
        bad = [data[:cut] for cut in range(len(data))]  # every cut point
        bad += [
            data + b"\x00",  # trailing byte
            data[:4] + (128).to_bytes(4, "big") + data[8:],  # word width
            (0).to_bytes(4, "big") + data[4:16],  # no words
            (2**32 - 1).to_bytes(4, "big") + data[4:],  # k far past the end
        ]
        errors = []

        def run():
            for i, blob in enumerate(bad):
                (tmp_path / "bad.bin").write_bytes(blob)
                try:
                    load_vocabulary(tmp_path / "bad.bin")
                    errors.append((i, None))
                except Exception as e:  # checked below
                    errors.append((i, e))

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(30.0)
        assert not worker.is_alive(), f"load_vocabulary still running after 30 s ({len(errors)} done)"
        assert len(errors) == len(bad)
        for i, error in errors:
            assert isinstance(error, VocabularyFormatError), (i, error)

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
    def test_non_finite_idf_rejected(self, rng, tmp_path, weight):
        """One NaN weight makes every BoW row zero, so neither file that
        stores a vocabulary may hold one."""
        vocab = train_vocabulary([random_descriptors(rng, 20)], k=4, seed=3)
        save_vocabulary(vocab, tmp_path / "v.bin")
        data = bytearray((tmp_path / "v.bin").read_bytes())
        at = 16 + 4 * 32 + 8 * 2  # the third idf weight
        data[at : at + 8] = np.array(weight, dtype=">f8").tobytes()
        (tmp_path / "v.bin").write_bytes(bytes(data))
        with pytest.raises(VocabularyFormatError, match="v.bin: vocabulary idf weights are not finite"):
            load_vocabulary(tmp_path / "v.bin")
