"""Synthetic datasets, loaders, augmentation, LM batching, translation."""

import numpy as np
import pytest

from repro.data import (
    DataLoader,
    batchify,
    get_lm_batch,
    lm_chunks,
    make_cifar_like,
    make_imagenet_like,
    make_lm_corpus,
    make_translation_dataset,
    random_crop_flip,
    shard_dataset,
)


class TestImageDatasets:
    def test_cifar_like_shapes_and_norm(self, rng):
        ds = make_cifar_like(n=64, num_classes=5, rng=rng)
        assert ds.images.shape == (64, 3, 32, 32)
        assert ds.labels.shape == (64,)
        assert ds.labels.max() < 5
        assert ds.images.dtype == np.float32

    def test_imagenet_like_dimensions(self, rng):
        ds = make_imagenet_like(n=16, num_classes=20, size=64, rng=rng)
        assert ds.images.shape == (16, 3, 64, 64)
        assert ds.num_classes == 20

    def test_class_structure_learnable(self, rng):
        # Same-class images must be more similar than cross-class images.
        ds = make_cifar_like(n=200, num_classes=2, noise=0.1, rng=rng)
        c0 = ds.images[ds.labels == 0]
        c1 = ds.images[ds.labels == 1]
        within = np.linalg.norm(c0[0] - c0[1])
        across = np.linalg.norm(c0[0] - c1[0])
        assert across > within

    def test_deterministic_given_rng(self):
        a = make_cifar_like(n=8, rng=np.random.default_rng(5))
        b = make_cifar_like(n=8, rng=np.random.default_rng(5))
        assert np.allclose(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_split(self, rng):
        ds = make_cifar_like(n=100, rng=rng)
        tr, va = ds.split(80)
        assert len(tr) == 80 and len(va) == 20

    def test_noise_raises_difficulty(self, rng):
        lo = make_cifar_like(n=400, num_classes=2, noise=0.05, rng=np.random.default_rng(1))
        hi = make_cifar_like(n=400, num_classes=2, noise=0.5, rng=np.random.default_rng(1))

        def nearest_prototype_acc(ds):
            # 1-NN against class means — higher for easier datasets.
            means = np.stack([ds.images[ds.labels == c].mean(axis=0) for c in range(2)])
            d = ((ds.images[:, None] - means[None]) ** 2).sum(axis=(2, 3, 4))
            return (d.argmin(axis=1) == ds.labels).mean()

        assert nearest_prototype_acc(lo) >= nearest_prototype_acc(hi)


class TestAugmentation:
    def test_shape_preserved(self, rng):
        x = rng.standard_normal((8, 3, 32, 32)).astype(np.float32)
        out = random_crop_flip(x, rng)
        assert out.shape == x.shape

    def test_content_changed(self, rng):
        x = rng.standard_normal((8, 3, 32, 32)).astype(np.float32)
        out = random_crop_flip(x, rng)
        assert not np.allclose(out, x)

    def test_values_from_input_support(self, rng):
        x = rng.random((4, 3, 8, 8)).astype(np.float32)
        out = random_crop_flip(x, rng, pad=2)
        assert out.min() >= x.min() - 1e-6 and out.max() <= x.max() + 1e-6


class TestDataLoader:
    def test_batch_count(self, rng):
        x = np.zeros((50, 4), dtype=np.float32)
        y = np.zeros(50, dtype=np.int64)
        assert len(DataLoader(x, y, 16)) == 4
        assert len(DataLoader(x, y, 16, drop_last=True)) == 3

    def test_iteration_covers_all(self, rng):
        x = np.arange(20, dtype=np.float32).reshape(20, 1)
        y = np.arange(20)
        seen = np.concatenate([yb for _, yb in DataLoader(x, y, 6)])
        assert sorted(seen.tolist()) == list(range(20))

    def test_shuffle_changes_order(self, rng):
        x = np.arange(64, dtype=np.float32).reshape(64, 1)
        y = np.arange(64)
        dl = DataLoader(x, y, 64, shuffle=True, rng=rng)
        (_, y1), = list(dl)
        (_, y2), = list(dl)
        assert not np.array_equal(y1, y2)

    def test_no_shuffle_stable(self):
        x = np.arange(10, dtype=np.float32).reshape(10, 1)
        y = np.arange(10)
        (_, y1), = list(DataLoader(x, y, 10))
        assert np.array_equal(y1, np.arange(10))

    def test_transform_applied(self, rng):
        x = np.ones((8, 2), dtype=np.float32)
        y = np.zeros(8, dtype=np.int64)
        dl = DataLoader(x, y, 4, transform=lambda b, r: b * 2)
        xb, _ = next(iter(dl))
        assert np.allclose(xb, 2.0)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            DataLoader(np.zeros((4, 1)), np.zeros(5), 2)

    def test_shard_dataset_equal_sizes(self):
        x = np.zeros((33, 2))
        y = np.zeros(33)
        shards = shard_dataset(x, y, 4)
        assert len(shards) == 4
        assert all(len(sx) == 8 for sx, _ in shards)


class TestLMCorpus:
    def test_splits_and_vocab(self, rng):
        c = make_lm_corpus(vocab_size=50, n_train=2000, n_valid=300, n_test=300, rng=rng)
        assert len(c.train) == 2000 and len(c.valid) == 300
        assert c.train.max() < 50 and c.train.min() >= 0

    def test_markov_structure_low_entropy(self, rng):
        # With branching 4, the conditional entropy must be far below
        # log(vocab): successors of a token concentrate on 4 values.
        c = make_lm_corpus(vocab_size=64, n_train=8000, branching=4, rng=rng)
        successors = {}
        for a, b in zip(c.train[:-1], c.train[1:]):
            successors.setdefault(int(a), set()).add(int(b))
        max_successors = max(len(s) for s in successors.values())
        assert max_successors <= 4

    def test_batchify_shape(self, rng):
        c = make_lm_corpus(vocab_size=30, n_train=1000, rng=rng)
        data = batchify(c.train, 8)
        assert data.shape[1] == 8
        assert data.shape[0] == 1000 // 8

    def test_get_lm_batch_targets_shifted(self, rng):
        data = np.arange(40).reshape(10, 4)
        x, y = get_lm_batch(data, 0, 5)
        assert np.array_equal(y, data[1:6])
        assert np.array_equal(x, data[0:5])

    def test_get_lm_batch_tail_clamped(self):
        data = np.arange(20).reshape(10, 2)
        x, y = get_lm_batch(data, 8, 5)
        assert len(x) == 1  # only one step remains

    def test_lm_chunks_cover_the_stream_and_reset_once(self):
        data = np.arange(22).reshape(11, 2)
        chunks = lm_chunks(data, 4)
        assert [reset for _, _, reset in chunks] == [True, False, False]
        assert np.array_equal(np.concatenate([x for x, _, _ in chunks]), data[:-1])
        assert np.array_equal(np.concatenate([y for _, y, _ in chunks]), data[1:])


class TestTranslation:
    def test_shapes_and_special_tokens(self, rng):
        ds = make_translation_dataset(n=32, vocab_size=30, rng=rng)
        assert ds.src.shape == ds.tgt.shape
        assert np.all(ds.tgt[:, 0] == ds.bos_idx)
        assert all(ds.eos_idx in row for row in ds.src)

    def test_target_is_reversed_permutation(self, rng):
        ds = make_translation_dataset(n=16, vocab_size=20, min_len=4, max_len=4, rng=rng)
        # Recover the permutation from one pair and verify on another.
        mapping = {}
        for row in range(len(ds)):
            src_toks = ds.src[row][:4]
            tgt_toks = ds.tgt[row][1:5][::-1]
            for s, t in zip(src_toks, tgt_toks):
                if s in mapping:
                    assert mapping[s] == t
                mapping[s] = t

    def test_mapping_is_bijection(self, rng):
        ds = make_translation_dataset(n=200, vocab_size=20, rng=rng)
        pairs = set()
        for row in range(len(ds)):
            k = int((ds.src[row] == 2).argmax())
            for s, t in zip(ds.src[row][:k], ds.tgt[row][1 : 1 + k][::-1]):
                pairs.add((int(s), int(t)))
        sources = [s for s, _ in pairs]
        targets = [t for _, t in pairs]
        assert len(set(sources)) == len(sources) == len(set(targets))

    def test_split(self, rng):
        ds = make_translation_dataset(n=50, rng=rng)
        a, b = ds.split(40)
        assert len(a) == 40 and len(b) == 10
