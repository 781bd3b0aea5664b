import math
import random
import threading

import numpy as np
import pytest

from oracles import oracle_vector

from kgprompt.embed import (
    EmbedderConfig,
    RemoteEmbedder,
    embed_batch,
    fnv1a_64,
    hashed_bow_sparse,
    hashed_bow_vector,
)
from kgprompt.errors import ConfigError, RemoteServiceError


class TestFnv1a:
    def test_reference_vectors(self):
        # standard 64-bit FNV-1a test vectors
        assert fnv1a_64("") == 0xCBF29CE484222325
        assert fnv1a_64("a") == 0xAF63DC4C8601EC8C
        assert fnv1a_64("foobar") == 0x85944171F73967E8


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

    def test_http_error_carries_status(self, http_service):
        config = EmbedderConfig(
            kind="remote", dimension=8, endpoint=f"{http_service.url}/always_500"
        )
        with pytest.raises(RemoteServiceError) as excinfo:
            embed_batch(config, ["text"])
        assert excinfo.value.status == 500

    def test_transport_error_has_no_status(self):
        config = EmbedderConfig(
            kind="remote", dimension=8, endpoint="http://127.0.0.1:1/embed"
        )
        with pytest.raises(RemoteServiceError) as excinfo:
            embed_batch(config, ["text"])
        assert excinfo.value.status is None

    def test_concurrent_batches_bounded(self, http_service):
        http_service.state.embed_dimension = 4
        http_service.state.delay = 0.05
        config = EmbedderConfig(
            kind="remote",
            dimension=4,
            endpoint=f"{http_service.url}/embed",
            max_concurrency=2,
        )
        client = RemoteEmbedder(config)
        threads = [
            threading.Thread(target=client.embed, args=(["text"],)) for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert http_service.state.max_active <= 2
