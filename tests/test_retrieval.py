from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import hamming, scan_ranked

from pointloc.features import DESCRIPTOR_BITS
from pointloc.retrieval import (
    EmbeddingFormatError,
    EmptyIndexError,
    GlobalEmbedding,
    InsufficientDataError,
    VARIANT_BOW,
    VARIANT_VLAD,
    Vocabulary,
    VocabularyFormatError,
    assign_words,
    build_index,
    dump_embeddings,
    embed_bow,
    embed_vlad,
    load_embeddings,
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


def unit_embedding(rng, dim=16, variant=VARIANT_BOW):
    v = rng.normal(size=dim)
    return GlobalEmbedding(v / np.linalg.norm(v), variant)


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
        assert e.is_zero()
        assert e.variant == VARIANT_BOW

    def test_unit_norm(self, vocab, rng):
        e = embed_bow(random_descriptors(rng, 40), vocab)
        assert np.linalg.norm(e.values) == pytest.approx(1.0, abs=1e-9)

    def test_single_word_is_one_hot(self, vocab):
        word = 2
        descs = np.repeat(vocab.centroids[word : word + 1], 5, axis=0)
        e = embed_bow(descs, vocab)
        nonzero = np.nonzero(e.values)[0]
        assert nonzero.tolist() == [word]
        assert abs(abs(e.values[word]) - 1.0) < 1e-12

    def test_nonzero_words_match_linear_scan(self, vocab, rng):
        descs = random_descriptors(rng, 25)
        e = embed_bow(descs, vocab)
        expected_words = set()
        for d in descs:
            dists = [hamming(d, c) for c in vocab.centroids]
            expected_words.add(min(range(len(dists)), key=lambda i: (dists[i], i)))
        observed = set(np.nonzero(e.values)[0].tolist())
        # idf can legitimately zero a word; observed must be a subset hit only
        # where idf vanishes
        for w in expected_words - observed:
            assert vocab.idf[w] == 0.0
        assert observed <= expected_words

    def test_duplication_invariance(self, vocab, rng):
        descs = random_descriptors(rng, 30)
        once = embed_bow(descs, vocab)
        twice = embed_bow(np.concatenate([descs, descs]), vocab)
        assert np.allclose(once.values, twice.values, atol=1e-12)


class TestEmbedVlad:
    @pytest.fixture
    def vocab(self, rng):
        frames = [random_descriptors(rng, 50) for _ in range(6)]
        return train_vocabulary(frames, k=4, seed=4)

    def test_empty_is_zero_vector(self, vocab):
        e = embed_vlad(np.zeros((0, 32), dtype=np.uint8), vocab)
        assert e.is_zero()
        assert len(e.values) == 4 * DESCRIPTOR_BITS

    def test_unit_norm(self, vocab, rng):
        e = embed_vlad(random_descriptors(rng, 40), vocab)
        assert np.linalg.norm(e.values) == pytest.approx(1.0, abs=1e-9)

    def test_centroid_descriptor_zero_residual_block(self, vocab):
        word = 1
        e = embed_vlad(vocab.centroids[word : word + 1], vocab)
        block = e.values[word * DESCRIPTOR_BITS : (word + 1) * DESCRIPTOR_BITS]
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
        assert np.allclose(e.values, flat, atol=1e-12)


class TestQueries:
    def test_query_equal_to_db_embedding(self, rng):
        embs = [unit_embedding(rng) for _ in range(10)]
        index = build_index(list(range(10)), embs)
        fid, dist = query_top1(index, embs[4])
        assert fid == 4
        assert dist < 1e-9

    def test_orthogonal_two_frame_index(self):
        e1 = GlobalEmbedding(np.array([1.0, 0.0]), VARIANT_BOW)
        e2 = GlobalEmbedding(np.array([0.0, 1.0]), VARIANT_BOW)
        index = build_index([10, 20], [e1, e2])
        assert query_top1(index, e1)[0] == 10

    def test_matches_brute_force_scan(self, rng):
        embs = [unit_embedding(rng) for _ in range(200)]
        index = build_index(list(range(200)), embs)
        for _ in range(20):
            q = unit_embedding(rng)
            dists = [float(np.sum((e.values - q.values) ** 2)) for e in embs]
            expected = min(range(200), key=lambda i: (dists[i], i))
            fid, dist = query_top1(index, q)
            assert fid == expected
            assert dist == pytest.approx(dists[expected], abs=1e-12)

    def test_topk_matches_scan_and_sort(self, rng):
        embs = [unit_embedding(rng) for _ in range(50)]
        index = build_index(list(range(50)), embs)
        q = unit_embedding(rng)
        dists = [float(np.sum((e.values - q.values) ** 2)) for e in embs]
        expected = sorted(range(50), key=lambda i: (dists[i], i))
        got = query_topk(index, q, 50)
        assert [fid for fid, _ in got] == expected

    def test_topk_prefix_consistent(self, rng):
        embs = [unit_embedding(rng) for _ in range(30)]
        index = build_index(list(range(30)), embs)
        q = unit_embedding(rng)
        top10 = query_topk(index, q, 10)
        assert query_topk(index, q, 1) == top10[:1]
        assert query_top1(index, q) == top10[0]
        assert len(query_topk(index, q, 100)) == 30

    def test_empty_index_raises(self, rng):
        index = build_index([], [])
        with pytest.raises(EmptyIndexError):
            query_top1(index, unit_embedding(rng))

    def test_variant_mismatch_raises(self, rng):
        index = build_index([0], [unit_embedding(rng, variant=VARIANT_BOW)])
        with pytest.raises(ValueError):
            query_top1(index, unit_embedding(rng, variant=VARIANT_VLAD))

    def test_permutation_invariance(self, rng):
        embs = [unit_embedding(rng) for _ in range(40)]
        ids = list(range(40))
        q = unit_embedding(rng)
        base = query_top1(build_index(ids, embs), q)
        perm = rng.permutation(40)
        shuffled = query_top1(build_index([ids[i] for i in perm], [embs[i] for i in perm]), q)
        assert base == shuffled

    def test_self_retrieval_every_frame(self, rng):
        embs = [unit_embedding(rng) for _ in range(25)]
        index = build_index(list(range(25)), embs)
        for i, e in enumerate(embs):
            fid, dist = query_top1(index, e)
            assert fid == i and dist < 1e-9

    def test_zero_vector_never_wins_unless_alone(self, rng):
        dim = 4
        zero = GlobalEmbedding(np.zeros(dim), VARIANT_VLAD)
        # a db embedding at squared distance > 2 from the query (opposite sign)
        far = GlobalEmbedding(np.eye(dim)[0], VARIANT_VLAD)
        q = GlobalEmbedding(-np.eye(dim)[0], VARIANT_VLAD)
        index = build_index([0, 1], [zero, far])
        fid, _ = query_top1(index, q)
        assert fid == 1  # the featureless frame loses even at distance 4 > 2
        only_zero = build_index([5], [zero])
        fid, dist = query_top1(only_zero, q)
        assert fid == 5 and dist == 2.0

    def test_row_whose_norm_underflows_is_not_zero(self):
        zero = GlobalEmbedding(np.zeros(2), VARIANT_BOW)
        tiny = GlobalEmbedding(np.array([1e-200, 0.0]), VARIANT_BOW)  # squares to 0
        q = GlobalEmbedding(np.array([0.0, 1.0]), VARIANT_BOW)
        index = build_index([0, 1], [zero, tiny])
        assert query_topk(index, q, 2) == [(1, 1.0), (0, 2.0)]

    def test_zero_query_ranks_by_frame_id(self, rng):
        embs = [unit_embedding(rng, dim=4) for _ in range(3)]
        index = build_index([7, 3, 9], embs)
        q = GlobalEmbedding(np.zeros(4), VARIANT_BOW)
        fid, dist = query_top1(index, q)
        assert fid == 3 and dist == 2.0


@st.composite
def tie_heavy_index(draw):
    """Index rows and a query built to stress the exact ranking: duplicate
    rows under other frame ids, copies moved by a few ulps in one component,
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
    frame_ids = draw(st.lists(st.integers(0, 10**6), min_size=len(rows), max_size=len(rows), unique=True))
    kind = draw(st.sampled_from(("row", "ulps", "zero", "free")))
    if kind == "free":
        q = np.array(draw(st.lists(component, min_size=dim, max_size=dim)))
    else:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        q = row.copy() if kind == "row" else nudged(row) if kind == "ulps" else np.zeros(dim)
    return np.array(rows), frame_ids, q


class TestScanEquivalence:
    """query_top1 / query_topk against a one-row-at-a-time brute-force scan,
    compared with == on frame ids and distances."""

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_index(), st.randoms(use_true_random=False))
    def test_matches_brute_force_scan(self, case, random):
        matrix, frame_ids, q = case
        embs = [GlobalEmbedding(r.copy(), VARIANT_VLAD) for r in matrix]
        query = GlobalEmbedding(q.copy(), VARIANT_VLAD)
        expected = scan_ranked(matrix, frame_ids, q)
        index = build_index(frame_ids, embs)
        assert query_top1(index, query) == expected[0]
        for k in range(len(expected) + 2):
            assert query_topk(index, query, k) == expected[:k]
        perm = list(range(len(frame_ids)))
        random.shuffle(perm)
        shuffled = build_index([frame_ids[i] for i in perm], [embs[i] for i in perm])
        assert query_topk(shuffled, query, len(expected)) == expected

    def test_full_width_rows(self, rng):
        """At the VLAD width (k = 256 words) a single-row einsum sums in other
        chunks than a many-row one; top-1 and top-k must still agree."""
        dim = 256 * DESCRIPTOR_BITS
        matrix = rng.normal(size=(6, dim))
        matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
        matrix[2] = matrix[4]
        matrix[5, 7] = np.nextafter(matrix[4, 7], np.inf)
        matrix[3] = 0.0
        ids = [40, 11, 30, 12, 20, 5]
        index = build_index(ids, [GlobalEmbedding(r.copy(), VARIANT_VLAD) for r in matrix])
        for q in (matrix[4], matrix[5], matrix[0] + 1e-3 * matrix[1], np.zeros(dim)):
            query = GlobalEmbedding(q.copy(), VARIANT_VLAD)
            expected = scan_ranked(matrix, ids, q)
            assert query_top1(index, query) == expected[0]
            for k in range(1, 7):
                assert query_topk(index, query, k) == expected[:k]


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

    def test_embeddings_round_trip(self, rng, tmp_path):
        embs = [unit_embedding(rng, dim=8) for _ in range(5)]
        dump_embeddings(embs, tmp_path / "e.bin")
        loaded = load_embeddings(tmp_path / "e.bin", VARIANT_BOW)
        assert len(loaded) == 5
        for a, b in zip(embs, loaded):
            assert np.array_equal(a.values, b.values)

    def test_embeddings_truncation_and_corruption_rejected(self, rng, tmp_path, assert_each_rejected):
        dump_embeddings([unit_embedding(rng, dim=4) for _ in range(3)], tmp_path / "e.bin")
        data = (tmp_path / "e.bin").read_bytes()
        bad = [data[:cut] for cut in range(len(data))]  # every cut point
        bad += [
            data + b"\x00",  # trailing byte
            (2).to_bytes(4, "big") + data[4:],  # one row fewer than stored
            (2**32 - 1).to_bytes(4, "big") * 2 + data[8:],  # count x dim far past the end
        ]
        assert_each_rejected(
            lambda path: load_embeddings(path, VARIANT_BOW), bad, EmbeddingFormatError
        )
