"""Unit tests for the dataset generators."""

import hashlib
from collections import OrderedDict

import numpy as np
import pytest

from repro import memo
from repro.datasets import (CONTROL_CLASSES, TeraRecord, generate_corpus,
                            generate_sample_data, generate_synthetic_control,
                            teragen)
from repro.datasets.sample_data import SAMPLE_COMPONENTS, sample_sizeof
from repro.datasets.tera import records_for_bytes, tera_sizeof
from repro.datasets.text import _make_vocabulary


# --- synthetic control --------------------------------------------------------

def test_control_shape_and_labels():
    X, labels = generate_synthetic_control(n_per_class=10, length=60)
    assert X.shape == (60, 60)
    assert labels.shape == (60,)
    assert set(labels) == set(range(6))
    assert len(CONTROL_CLASSES) == 6


def test_control_default_is_uci_shape():
    X, labels = generate_synthetic_control()
    assert X.shape == (600, 60)
    assert (np.bincount(labels) == 100).all()


def test_control_class_statistics():
    rng = np.random.default_rng(1)
    X, labels = generate_synthetic_control(n_per_class=50, rng=rng)
    t = np.arange(60)

    def mean_slope(cls):
        rows = X[labels == cls]
        return np.polyfit(t, rows.mean(axis=0), 1)[0]

    # increasing/decreasing trends have clear opposite slopes.
    assert mean_slope(2) > 0.15
    assert mean_slope(3) < -0.15
    # upward shift ends above its start; downward below.
    up = X[labels == 4]
    assert up[:, -10:].mean() > up[:, :10].mean() + 5
    down = X[labels == 5]
    assert down[:, -10:].mean() < down[:, :10].mean() - 5
    # cyclic class has higher variance than normal.
    assert X[labels == 1].var() > X[labels == 0].var()
    # normal class stays near the mean level 30.
    assert abs(X[labels == 0].mean() - 30.0) < 1.0


def test_control_reproducible():
    a, _ = generate_synthetic_control(rng=np.random.default_rng(5))
    b, _ = generate_synthetic_control(rng=np.random.default_rng(5))
    assert (a == b).all()


def test_control_validation():
    with pytest.raises(ValueError):
        generate_synthetic_control(n_per_class=0)
    with pytest.raises(ValueError):
        generate_synthetic_control(length=1)


# --- sample data ----------------------------------------------------------------

def test_sample_data_components():
    X, labels = generate_sample_data(np.random.default_rng(0))
    assert X.shape == (1000, 2)
    counts = np.bincount(labels)
    assert list(counts) == [c for _m, _s, c in SAMPLE_COMPONENTS]
    # The sigma=0.1 component is tightly packed around (0, 2).
    tight = X[labels == 2]
    assert np.allclose(tight.mean(axis=0), [0.0, 2.0], atol=0.05)
    assert tight.std(axis=0).max() < 0.2
    assert sample_sizeof(None) == 32


# --- text corpus -----------------------------------------------------------------

def test_corpus_size_close_to_request():
    lines = generate_corpus(50_000, rng=np.random.default_rng(0))
    total = sum(len(line) + 1 for line in lines)
    assert 50_000 <= total < 55_000


def test_corpus_zipf_skew():
    lines = generate_corpus(100_000, rng=np.random.default_rng(0))
    words = " ".join(lines).split()
    from collections import Counter
    counts = Counter(words).most_common()
    # Zipf: the most common word is much more frequent than the median one.
    assert counts[0][1] > 20 * counts[len(counts) // 2][1]


def test_corpus_reproducible_and_sizeof():
    lines = generate_corpus(10_000, rng=np.random.default_rng(3))
    assert _sha256("\n".join(lines).encode()) == (
        "78d93aa02e0876f69116e7fd48d83709dde0d4b28cf700e2bf879f03c3ccf69c")


def test_corpus_validation():
    with pytest.raises(ValueError):
        generate_corpus(0)


@pytest.mark.parametrize("nbytes", [-1, float("inf"), float("nan")])
def test_corpus_rejects_bad_sizes_before_any_draw(nbytes):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        generate_corpus(nbytes, rng=rng)
    assert rng.random() == np.random.default_rng(0).random()   # no draw


def _scalar_vocabulary(size, rng):
    """The draw-until-distinct loop with one scalar call per draw."""
    vocab = {}
    while len(vocab) < size:
        syllables = int(rng.integers(1, 5))
        word = "".join("bcdfghjklmnpqrstvwz"[int(rng.integers(19))]
                       + "aeiou"[int(rng.integers(5))]
                       for _ in range(syllables))
        vocab.setdefault(word)
    return list(vocab)


def _mt_with_zero_words(positions):
    """An MT19937 generator whose raw 32-bit outputs at ``positions`` are 0
    (tempering maps a zero key word to a zero output)."""
    bit_generator = np.random.MT19937(1)
    state = bit_generator.state
    key = state["state"]["key"].copy()
    key[list(positions)] = 0
    state["state"] = {"key": key, "pos": 0}
    bit_generator.state = state
    return np.random.Generator(bit_generator)


@pytest.mark.parametrize("seed", [0, 5])
def test_vocabulary_equals_the_scalar_loop(seed):
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _make_vocabulary(8000, a) == _scalar_vocabulary(8000, b)
    assert a.bit_generator.state == b.bit_generator.state


def test_vocabulary_decodes_rejected_draws_like_scalar_integers():
    # A zero word is below both letter thresholds (2**32 % 19 and
    # 2**32 % 5), so NumPy rejects it and bounds the next word instead.
    raw = _mt_with_zero_words([0]).integers(0, 1 << 32, size=2,
                                            dtype=np.uint32)
    assert raw[0] == 0
    assert int(_mt_with_zero_words([0]).integers(19)) \
        == (int(raw[1]) * 19) >> 32
    # Words 1 and 3 are the first consonant and (after the retry) vowel.
    a, b = _mt_with_zero_words([1, 3]), _mt_with_zero_words([1, 3])
    assert _make_vocabulary(6, a) == _scalar_vocabulary(6, b)
    assert a.bit_generator.state["state"]["pos"] \
        == b.bit_generator.state["state"]["pos"]
    assert a.random() == b.random()


# --- pinned bytes ----------------------------------------------------------------

def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


#: ``(seed, nbytes) -> (sha256 of the "\n"-joined corpus, next rng.random())``
#: recorded with the word-at-a-time generator; 100,000 bytes stops 35, 2 and
#: 48 lines into its last 64-line batch.
PINNED_CORPORA = {
    (0, 1024): ("2bbe18603b94b50fd5c54c87f9b7c8cafeaf047ff1d9c6bb46b4f558bb87206c",
                0.899967335951481),
    (0, 50_000): ("9ca23a3c04814eb254930de38875b5cbe5b1667450522ad00f2e46e4bd87ad25",
                  0.6631797278766633),
    (0, 100_000): ("444262d70f4f917ddcfe1df979b6fc9e19dc35220dbbc7c509aef82d4149be7f",
                   0.4801539869554752),
    (0, 2_684_354): ("fc45df74ddd12d2bb1ccbafe90fff12f5f05a3febce5485aecb791b54e531948",
                     0.4165697159666526),
    (3, 1024): ("b366b97f167da0c621d611b1e477c3425b97452cedc838be3c3b7c63e5f32b8a",
                0.8768179838519998),
    (3, 50_000): ("60dd620873530eb9d1be1992da038778b8455ab80bff2948b3c43c151feb087b",
                  0.8380506380451567),
    (3, 100_000): ("d13b38d6e95c69f34a0c46df12248aa7bafb1df2464fb61fa4fab51aaf86fca9",
                   0.3959664224602878),
    (3, 2_684_354): ("7deed61acd29d373c1ac87bb5979eb33a16ede86fa5f684736bf978e0187adaf",
                     0.7431997681506964),
    (7, 1024): ("5837d6d2674473deb7e3dfa3ba6b63432a2e16be7b1a8a14fa9a311eb487f5e4",
                0.3265918814767149),
    (7, 50_000): ("2bdc45455a190300420e30ed59aa4cfb017f2b7f62bc1aa277580885f12ee9da",
                  0.5927899277897533),
    (7, 100_000): ("d896864fb1d9fd89378b76f8171143f01236dd7aaa7dbd59f4328a167968fc77",
                   0.7511419031181186),
    (7, 2_684_354): ("7a71ade530579f5969c1d13f32b5397094213057faf24b4b6db685b59c2b905f",
                     0.46034797633465185),
}

#: ``(kind, seed) -> (sha256, next rng.random())`` for the default-size
#: control charts and sample data (X then labels, native bytes) and
#: 1,000 TeraGen records (key, then the row as 4 big-endian bytes).
PINNED_ARRAYS = {
    ("control", 0): ("64db8a2aaf7953165082594e3c49e9117ec42f33e841f915441b27b2818bb2c1",
                     0.2670998397701746),
    ("control", 3): ("7a05e7b08d54e19bc57e697b8fa9975d4ec206eb9f71a881b21eb9afd487b642",
                     0.4363092397345876),
    ("control", 7): ("b305e3f70844fc1710b7eba64fd264e70a3da41be036e2a486a867310d0a36d6",
                     0.27865788340268094),
    ("sample", 0): ("43ddf9bd4a88b239fa6808534cd32acd52cb7ba6098eec12ee15bd77ffcd0ed5",
                    0.534901519526517),
    ("sample", 3): ("dae19dc90e157de315296f3739cc9a28c1b063a732046a2abb61f7694a6fff38",
                    0.3772220594922263),
    ("sample", 7): ("f07a0659cb08af86852457516ad59c8ce6d553b69c93ecefa05d45f278840bee",
                    0.40230347866867544),
    ("tera", 0): ("b8602485baefcc1557a978357494037c0e4e3d7e9df919d502e4a1e6c111621e",
                  0.21530291800605605),
    ("tera", 3): ("f0f37e04967df0eada5309cf792afb020c7c0dbb5f99f957d23ec89b10728177",
                  0.7132482183752646),
    ("tera", 7): ("74e6c60989506eab72fca3996e246ee1ac4fc6b9f944bf0389c4d6a20708e207",
                  0.897494693795536),
}


@pytest.fixture()
def cold(monkeypatch):
    """An empty dataset memo for the test; the process-wide one comes back
    after it."""
    monkeypatch.setattr(memo.DATASETS, "_entries", OrderedDict())


@pytest.mark.parametrize("seed, nbytes", sorted(PINNED_CORPORA))
def test_corpus_bytes_and_stream_are_pinned(cold, seed, nbytes):
    for _build in ("cold", "hit"):
        rng = np.random.default_rng(seed)
        lines = generate_corpus(nbytes, rng=rng)
        assert (_sha256("\n".join(lines).encode()), rng.random()) \
            == PINNED_CORPORA[seed, nbytes]
    assert sum(len(line) + 1 for line in lines[:-1]) < nbytes \
        <= sum(len(line) + 1 for line in lines)


def _array_digest(kind, rng):
    if kind == "control":
        return _sha256(b"".join(a.tobytes()
                                for a in generate_synthetic_control(rng=rng)))
    if kind == "sample":
        return _sha256(b"".join(a.tobytes() for a in generate_sample_data(rng)))
    return _sha256(b"".join(r.key + r.row.to_bytes(4, "big")
                            for r in teragen(1000, rng=rng)))


@pytest.mark.parametrize("kind, seed", sorted(PINNED_ARRAYS))
def test_array_datasets_and_stream_are_pinned(cold, kind, seed):
    for _build in ("cold", "hit"):
        rng = np.random.default_rng(seed)
        assert (_array_digest(kind, rng), rng.random()) \
            == PINNED_ARRAYS[kind, seed]


# --- teragen --------------------------------------------------------------------

def test_teragen_records():
    records = teragen(100, rng=np.random.default_rng(0))
    assert len(records) == 100
    assert all(len(r.key) == 10 for r in records)
    assert [r.row for r in records] == list(range(100))
    assert tera_sizeof(records[0]) == 100


def test_teragen_keys_random_and_sortable():
    records = teragen(1000, rng=np.random.default_rng(0))
    keys = [r.key for r in records]
    assert len(set(keys)) > 990
    assert sorted(keys)  # bytes sort fine


def test_tera_record_validation():
    with pytest.raises(ValueError):
        TeraRecord(b"short", 0)
    with pytest.raises(ValueError):
        teragen(-1)
    assert records_for_bytes(1000) == 10
    assert records_for_bytes(5) == 1
