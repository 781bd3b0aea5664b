import math
import random
import warnings

import numpy as np
import pytest

from oracles import oracle_vector

from kgprompt import embed
from kgprompt.embed import (
    EmbedderConfig,
    RemoteEmbedder,
    embed_batch,
    fnv1a_64,
    fnv1a_64_lines,
    hashed_bow_sparse,
    hashed_bow_vector,
)
from kgprompt.errors import ConfigError, RemoteServiceError


def utf8(text: str) -> np.ndarray:
    """The UTF-8 of ``text`` as uint8, the form ``fnv1a_64_lines`` hashes."""
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8)


class TestFnv1a:
    def test_reference_vectors(self):
        # standard 64-bit FNV-1a test vectors
        assert fnv1a_64("") == 0xCBF29CE484222325
        assert fnv1a_64("a") == 0xAF63DC4C8601EC8C
        assert fnv1a_64("foobar") == 0x85944171F73967E8

    # Letters of one to four UTF-8 bytes: ASCII, Latin, CJK, emoji (a flag
    # is two code points, a family of emoji joined by U+200D many more).
    LETTERS = ["a", "Z", "7", "é", "ß", "ñ", "東", "京", "😀", "🇯🇵", "👩\u200d👩\u200d👧"]

    @pytest.mark.parametrize("dimension", [1, 7, 256, 2**20, 2**63 + 5])
    def test_lines_hash_like_each_token(self, dimension):
        rng = random.Random(dimension)
        tokens = ["", "a", "foobar"] + [
            "".join(rng.choices(self.LETTERS, k=rng.randint(1, 12))) for _ in range(300)
        ]
        hashes = fnv1a_64_lines(utf8("\n".join(["", *tokens])))
        assert hashes.dtype == np.uint64
        assert hashes.tolist() == [fnv1a_64(token) for token in tokens]
        assert (hashes % np.uint64(dimension)).tolist() == [fnv1a_64(token) % dimension for token in tokens]

    def test_lines_ignore_bytes_before_the_first_newline(self):
        assert fnv1a_64_lines(utf8("")).tolist() == []
        assert fnv1a_64_lines(utf8("ignored")).tolist() == []
        assert fnv1a_64_lines(utf8("ignored\nfoobar")).tolist() == [0x85944171F73967E8]


class TestHashedBow:
    def test_repeated_token_single_bucket(self):
        # "a a": both tokens land in bucket fnv1a("a") % 4 = 0; counts (2) -> norm 1
        vector = embed_batch(EmbedderConfig(dimension=4), ["a a"])[0]
        assert vector.shape == (4,)
        bucket = fnv1a_64("a") % 4
        assert vector[bucket] == pytest.approx(1.0)
        assert np.count_nonzero(vector) == 1

    def test_empty_text_is_zero_vector(self):
        vector = embed_batch(EmbedderConfig(), [""])[0]
        assert not vector.any()

    def test_bag_of_words_order_invariance(self):
        config = EmbedderConfig()
        first = embed_batch(config, ["b a"])[0]
        second = embed_batch(config, ["a b"])[0]
        assert np.array_equal(first, second)

    def test_unit_norm_for_nonempty(self):
        config = EmbedderConfig(dimension=64)
        texts = ["hello world", "the quick brown fox", "a a a b", "2010-03-17", "é è ü"]
        for vector in embed_batch(config, texts):
            assert abs(float(np.linalg.norm(vector)) - 1.0) < 1e-6

    def test_self_cosine_is_one(self):
        vector = hashed_bow_vector("where did alex chilton die", 256)
        assert float(np.dot(vector, vector)) == pytest.approx(1.0, abs=1e-9)

    def test_bitwise_determinism(self):
        config = EmbedderConfig(dimension=128)
        texts = ["same texts", "give identical", "vectors"]
        first = embed_batch(config, texts)
        second = embed_batch(config, texts)
        for left, right in zip(first, second):
            assert left.tobytes() == right.tobytes()

    def test_order_preserving_batches(self):
        config = EmbedderConfig(dimension=32)
        batch = embed_batch(config, ["one", "two"])
        assert np.array_equal(batch[0], hashed_bow_vector("one", 32))
        assert np.array_equal(batch[1], hashed_bow_vector("two", 32))

    def test_hand_computed_two_token_vector(self):
        # "a b" at D=4: fnv1a("a")%4=0, fnv1a("b")%4=1; counts (1,1) -> 1/sqrt(2) each
        vector = hashed_bow_vector("a b", 4)
        assert vector[fnv1a_64("a") % 4] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert vector[fnv1a_64("b") % 4] == pytest.approx(1 / math.sqrt(2), abs=1e-12)


class TestEmbedderConfig:
    def test_dimension_must_be_positive(self):
        with pytest.raises(ConfigError):
            EmbedderConfig(dimension=0)

    def test_remote_requires_endpoint(self):
        with pytest.raises(ConfigError):
            EmbedderConfig(kind="remote")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            EmbedderConfig(kind="magic")


class TestSparseHashedBow:
    TOKENS = ["alex", "Chilton", "new", "orleans", "42", "Ünïcode", "a"]

    def texts(self, rng):
        yield from ("", "!!!", "(, )", "a a a", "A a A")
        for _ in range(200):
            words = rng.choices(self.TOKENS, k=rng.randint(1, 15))
            yield rng.choice([" ", ", ", "_"]).join(words)

    @pytest.mark.parametrize("dimension", [1, 2, 7, 256])
    def test_dense_vector_equals_oracle_element_for_element(self, dimension):
        for text in self.texts(random.Random(dimension)):
            vector = hashed_bow_vector(text, dimension)
            assert vector.dtype == np.float64
            assert [value.hex() for value in vector.tolist()] == [
                value.hex() for value in oracle_vector(text, dimension)
            ]

    @pytest.mark.parametrize("dimension", [1, 2, 7, 256])
    def test_sparse_holds_exactly_the_nonzero_buckets(self, dimension):
        for text in self.texts(random.Random(dimension)):
            dense = hashed_bow_vector(text, dimension).tolist()
            assert hashed_bow_sparse(text, dimension) == {
                bucket: value for bucket, value in enumerate(dense) if value
            }


class TestRemoteEmbedder:
    def test_vectors_renormalized_client_side(self, http_service):
        http_service.state.embed_dimension = 8
        config = EmbedderConfig(kind="remote", dimension=8, endpoint=f"{http_service.url}/embed")
        vectors = embed_batch(config, ["hello", "much longer text here"])
        assert len(vectors) == 2
        for vector in vectors:
            assert abs(float(np.linalg.norm(vector)) - 1.0) < 1e-6

    def test_empty_text_round_trips_as_zero(self, http_service):
        http_service.state.embed_dimension = 8
        config = EmbedderConfig(kind="remote", dimension=8, endpoint=f"{http_service.url}/embed")
        vector = embed_batch(config, [""])[0]
        assert not vector.any()

    def test_dimension_mismatch_is_config_error(self, http_service):
        config = EmbedderConfig(
            kind="remote", dimension=8, endpoint=f"{http_service.url}/embed_wrong_dim"
        )
        with pytest.raises(ConfigError, match="dimension"):
            embed_batch(config, ["text"])

    @pytest.mark.parametrize("component", [None, math.nan, math.inf, -math.inf])
    def test_null_or_non_finite_component_rejected(self, http_service, component):
        http_service.state.embed_dimension = 8
        http_service.state.nonfinite_component = component
        config = EmbedderConfig(
            kind="remote", dimension=8, endpoint=f"{http_service.url}/embed_nonfinite"
        )
        with pytest.raises(RemoteServiceError, match="non-finite"):
            embed_batch(config, ["text"])
        assert http_service.state.requests == 1  # bad data is never retried

    @pytest.mark.parametrize("component", ["0.6", "xy", True, False, {"a": 1}, [1.0]])
    def test_component_that_is_not_a_number_rejected(self, http_service, component):
        http_service.state.embed_dimension = 8
        http_service.state.nonfinite_component = component
        config = EmbedderConfig(
            kind="remote", dimension=8, endpoint=f"{http_service.url}/embed_nonfinite"
        )
        with pytest.raises(RemoteServiceError, match="vector that is not a list of numbers"):
            embed_batch(config, ["text"])
        assert http_service.state.requests == 1  # bad data is never retried

    def test_int_past_the_largest_float_is_non_finite(self, http_service):
        http_service.state.embed_dimension = 8
        http_service.state.nonfinite_component = 10**400
        config = EmbedderConfig(
            kind="remote", dimension=8, endpoint=f"{http_service.url}/embed_nonfinite"
        )
        with pytest.raises(RemoteServiceError, match="non-finite"):
            embed_batch(config, ["text"])
        assert http_service.state.requests == 1

    def test_int_components_are_numbers(self, http_service):
        http_service.state.embed_dimension = 8
        http_service.state.nonfinite_component = 3
        config = EmbedderConfig(
            kind="remote", dimension=8, endpoint=f"{http_service.url}/embed_nonfinite"
        )
        vector = embed_batch(config, ["text"])[0]
        assert vector.tolist() == pytest.approx([3 / 4] + [1 / 4] * 7)

    @staticmethod
    def embed_served(monkeypatch, vectors: list) -> list[np.ndarray]:
        """What the embedder makes of ``vectors``, served by a fake transport; any warning is an error."""
        monkeypatch.setattr(embed, "post_json", lambda endpoint, payload, timeout: {"vectors": vectors})
        config = EmbedderConfig(kind="remote", dimension=len(vectors[0]), endpoint="http://127.0.0.1:1/embed")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return RemoteEmbedder(config).embed(["text"] * len(vectors))

    @pytest.mark.parametrize(
        ("raw", "expected"),
        [
            ([1e308, 1e308], [math.sqrt(0.5), math.sqrt(0.5)]),  # x·x overflows
            ([1e-200, 0.0], [1.0, 0.0]),  # x·x underflows to zero
            ([3e-162, 4e-162], [0.6, 0.8]),  # x·x is subnormal, so its root is off by 0.6%
        ],
    )
    def test_norm_that_overflows_or_underflows_is_rescaled(self, monkeypatch, raw, expected):
        [vector] = self.embed_served(monkeypatch, [raw])
        assert vector.tolist() == pytest.approx(expected, rel=1e-15)
        assert float(np.linalg.norm(vector)) == pytest.approx(1.0, rel=1e-15)

    def test_ordinary_vectors_are_divided_by_their_norm_bit_for_bit(self, monkeypatch):
        rng = random.Random(5)
        raw = [[rng.uniform(-10.0, 10.0) * 10.0 ** rng.randint(-100, 100) for _ in range(8)] for _ in range(50)]
        raw.append([0.0] * 8)
        for served, vector in zip(raw, self.embed_served(monkeypatch, raw)):
            norm = float(np.linalg.norm(served))
            expected = np.asarray(served) / norm if norm else np.zeros(8)
            assert vector.tobytes() == expected.tobytes()

    def test_http_error_carries_status(self, http_service):
        config = EmbedderConfig(
            kind="remote", dimension=8, endpoint=f"{http_service.url}/always_500"
        )
        with pytest.raises(RemoteServiceError) as excinfo:
            RemoteEmbedder(config, sleep=lambda _s: None).embed(["text"])
        assert excinfo.value.status == 500
        assert excinfo.value.attempts == 4  # 1 initial + 3 retries

    def test_transport_error_has_no_status(self):
        config = EmbedderConfig(
            kind="remote", dimension=8, endpoint="http://127.0.0.1:1/embed"
        )
        with pytest.raises(RemoteServiceError) as excinfo:
            RemoteEmbedder(config, sleep=lambda _s: None).embed(["text"])
        assert excinfo.value.status is None
        assert excinfo.value.attempts == 4

    def test_retry_then_success(self, http_service):
        http_service.state.embed_dimension = 8
        http_service.state.fail_remaining = 1
        delays = []
        config = EmbedderConfig(kind="remote", dimension=8, endpoint=f"{http_service.url}/embed_flaky")
        client = RemoteEmbedder(config, sleep=delays.append)
        vectors = client.embed(["hello", "much longer text here"])
        assert [float(np.linalg.norm(vector)) for vector in vectors] == pytest.approx([1.0, 1.0])
        assert http_service.state.requests == 2
        assert (client.transport.requests, client.transport.retries) == (2, 1)
        assert delays == [1.0]

    @pytest.mark.parametrize(
        ("path", "status"), [("/embed_flaky", 400), ("/wrong_path", 404)]
    )
    def test_client_errors_fail_fast(self, http_service, path, status):
        http_service.state.fail_remaining = 1
        http_service.state.flaky_status = status
        delays = []
        config = EmbedderConfig(kind="remote", dimension=8, endpoint=f"{http_service.url}{path}")
        with pytest.raises(RemoteServiceError) as excinfo:
            RemoteEmbedder(config, sleep=delays.append).embed(["text"])
        assert (excinfo.value.status, excinfo.value.attempts) == (status, 1)
        assert http_service.state.requests == 1
        assert delays == []
