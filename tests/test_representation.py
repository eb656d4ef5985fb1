from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exatlas.archive import Archive, Experiment
from exatlas.representation import (
    DeterministicStubProvider,
    EmbeddingError,
    EmbeddingTransportError,
    RemoteEmbeddingProvider,
    VectorFileProvider,
    append_vector_file,
    build_feature,
    embed_texts,
    embedding_texts,
    feature_matrix,
    read_vector_file,
    text_key,
    write_vector_file,
)


class TestStubProvider:
    def test_deterministic_across_calls(self):
        p = DeterministicStubProvider(dimension=4, seed=1)
        (v1,) = embed_texts(p, ["alpha"])
        (v2,) = embed_texts(p, ["alpha"])
        assert v1.shape == (4,)
        np.testing.assert_array_equal(v1, v2)

    def test_unit_norm(self):
        p = DeterministicStubProvider(dimension=16, seed=7)
        for text in ["a", "b", "a longer text"]:
            assert np.linalg.norm(p.embed(text)) == pytest.approx(1.0, abs=1e-12)

    def test_seed_and_text_change_vector(self):
        a = DeterministicStubProvider(dimension=8, seed=1).embed("x")
        b = DeterministicStubProvider(dimension=8, seed=2).embed("x")
        c = DeterministicStubProvider(dimension=8, seed=1).embed("y")
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_known_first_component_frozen(self):
        # Pins the documented hash-and-generator recipe across platforms.
        v = DeterministicStubProvider(dimension=4, seed=1).embed("alpha")
        np.testing.assert_allclose(
            v, [0.6464347184220514, -0.3584069618877274,
                0.47262268080991493, -0.4798899937205], atol=1e-12)

    def test_empty_text_rejected(self):
        p = DeterministicStubProvider(dimension=4, seed=0)
        with pytest.raises(EmbeddingError, match="^cannot embed empty text$") as err:
            embed_texts(p, ["alpha", "  "])
        assert err.value.text == "  "


class TestVectorFileProvider:
    def test_lookup_by_text_and_by_hash(self, tmp_path):
        path = tmp_path / "v.jsonl"
        write_vector_file(path, {
            "some text": np.array([1.0, 2.0]),
            text_key("hashed text"): np.array([3.0, 4.0]),
        })
        p = VectorFileProvider(path)
        np.testing.assert_array_equal(embed_texts(p, ["some text", "hashed text"]),
                                      [[1.0, 2.0], [3.0, 4.0]])

    def test_missing_text_names_id(self, tmp_path):
        path = tmp_path / "v.jsonl"
        write_vector_file(path, {"known": np.array([1.0])})
        p = VectorFileProvider(path)
        with pytest.raises(EmbeddingError,
                           match=f"^no stored vector for id '{text_key('unknown')}'$") as err:
            p.embed_many(["known", "unknown"])
        assert err.value.text == "unknown"

    @pytest.mark.parametrize("vec", [
        np.array([0.1, 1 / 3, -2.5e-30, 7.0], dtype=np.float32),
        np.array([3, -1, 0, 2**40], dtype=np.int64),
        np.linspace(-1.0, 1.0, 7),
    ])
    def test_written_bytes_match_elementwise_float(self, tmp_path, vec):
        path = tmp_path / "v.jsonl"
        write_vector_file(path, {"a": vec, "b": vec[::-1]})
        want = "".join(json.dumps({"id": i, "values": [float(x) for x in v]}) + "\n"
                       for i, v in (("a", vec), ("b", vec[::-1])))
        assert path.read_text(encoding="utf-8") == want

    def test_dimension_enforced(self, tmp_path):
        path = tmp_path / "v.jsonl"
        path.write_text('{"id": "a", "values": [1.0, 2.0]}\n'
                        '{"id": "b", "values": [1.0]}\n', encoding="utf-8")
        msg = f"{path}:2: dimension mismatch: expected 2, got 1"
        with pytest.raises(EmbeddingError, match=f"^{re.escape(msg)}$"):
            read_vector_file(path)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_value_names_path_and_line(self, tmp_path, bad):
        path = tmp_path / "v.jsonl"
        path.write_text('{"id": "a", "values": [1.0, 2.0]}\n'
                        f'{{"id": "b", "values": [1.0, {bad}]}}\n', encoding="utf-8")
        with pytest.raises(EmbeddingError, match=f"^{path}:2: non-finite value$"):
            read_vector_file(path)

    @pytest.mark.parametrize("line, message", [
        ('{"id": "b"}', "missing field 'values'"),
        ('{"values": [1.0, 2.0]}', "missing field 'id'"),
        ('[1.0, 2.0]', "expected a JSON object"),
        ('"text"', "expected a JSON object"),
        ('{"id": "b", "values": ["x", 2.0]}', "values must be a list of numbers"),
        ('{"id": "b", "values": {"x": 1}}', "values must be a list of numbers"),
        ('{"id": "b", "values": [[1.0], [2.0]]}', "values must be a list of numbers"),
        ('{"id": "b", "values": 3.0}', "values must be a list of numbers"),
        ('{"id": "b", "values": []}', "values must not be empty"),
    ])
    def test_malformed_record_names_path_and_line(self, tmp_path, line, message):
        path = tmp_path / "v.jsonl"
        path.write_text('{"id": "a", "values": [1.0, 2.0]}\n' + line + "\n",
                        encoding="utf-8")
        with pytest.raises(EmbeddingError) as err:
            read_vector_file(path)
        assert str(err.value) == f"{path}:2: {message}"


def make_fake_transport(dimension, calls):
    def transport(endpoint, payload, headers):
        calls.append(list(payload["input"]))
        rng = np.random.default_rng(0)
        return {"data": [{"embedding": rng.standard_normal(dimension).tolist()}
                         for _ in payload["input"]]}
    return transport


class TestRemoteProvider:
    def test_cache_prevents_repeat_requests(self):
        calls: list = []
        p = RemoteEmbeddingProvider("http://x", model="m", dimension=4,
                                    transport=make_fake_transport(4, calls))
        v1 = p.embed_many(["hello"])[0]
        v2 = p.embed_many(["hello"])[0]
        np.testing.assert_array_equal(v1, v2)
        assert len(calls) == 1

    def test_batching_splits_requests(self):
        calls: list = []
        p = RemoteEmbeddingProvider("http://x", model="m", dimension=4,
                                    batch_size=2,
                                    transport=make_fake_transport(4, calls))
        p.embed_many(["a", "b", "c"])
        assert [len(c) for c in calls] == [2, 1]

    def test_retry_then_succeed(self):
        attempts = {"n": 0}
        naps: list = []

        def flaky(endpoint, payload, headers):
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise EmbeddingTransportError("boom")
            return {"data": [{"embedding": [0.0, 1.0]} for _ in payload["input"]]}

        p = RemoteEmbeddingProvider("http://x", model="m", dimension=2,
                                    max_retries=3, transport=flaky,
                                    sleep=naps.append)
        p.embed_many(["t"])
        assert attempts["n"] == 3
        assert naps == [0.5, 1.0]  # exponential backoff

    def test_retries_exhausted_raises(self):
        def always_fail(endpoint, payload, headers):
            raise EmbeddingTransportError("down")

        p = RemoteEmbeddingProvider("http://x", model="m", dimension=2,
                                    max_retries=1, transport=always_fail,
                                    sleep=lambda s: None)
        with pytest.raises(EmbeddingTransportError):
            p.embed_many(["t"])

    def test_disk_cache_round_trip(self, tmp_path):
        calls: list = []
        kwargs = dict(model="m", dimension=3,
                      transport=make_fake_transport(3, calls),
                      cache_dir=tmp_path)
        p1 = RemoteEmbeddingProvider("http://x", **kwargs)
        v1 = p1.embed_many(["text"])[0]
        p2 = RemoteEmbeddingProvider("http://x", **kwargs)
        v2 = p2.embed_many(["text"])[0]
        np.testing.assert_array_equal(v1, v2)
        assert len(calls) == 1

    def test_torn_cache_line_dropped_and_cut_before_next_append(self, tmp_path, caplog):
        calls: list = []

        def transport(endpoint, payload, headers):
            calls.append(list(payload["input"]))
            return {"data": [{"embedding": [float(ord(t)), 0.5, -1.0]}
                             for t in payload["input"]]}

        kwargs = dict(model="m", dimension=3, transport=transport, cache_dir=tmp_path)
        RemoteEmbeddingProvider("http://x", **kwargs).embed_many(["a", "b"])
        cache = tmp_path / "m.jsonl"
        whole = cache.read_bytes()
        torn = b'{"id": "' + text_key("c").encode() + b'", "values": [0.5, '
        cache.write_bytes(whole + torn)

        with caplog.at_level("WARNING", logger="exatlas.representation"):
            p = RemoteEmbeddingProvider("http://x", **kwargs)
        assert f"{cache}: dropping an unterminated last line of {len(torn)} bytes" \
            in caplog.text
        assert [v[0] for v in p.embed_many(["a", "b"])] == [97.0, 98.0]
        assert len(calls) == 1
        assert cache.read_bytes() == whole + torn  # cut only before an append
        assert p.embed_many(["c"])[0][0] == 99.0
        assert len(calls) == 2
        assert cache.read_bytes().startswith(whole)
        assert cache.read_bytes().count(b"\n") == 3
        assert sorted(read_vector_file(cache)) == sorted(text_key(t) for t in "abc")
        again = RemoteEmbeddingProvider("http://x", **kwargs)  # later runs read it
        assert [v[0] for v in again.embed_many(["a", "b", "c"])] == [97.0, 98.0, 99.0]
        assert len(calls) == 2

    def test_repeated_cache_key_keeps_its_last_vector(self, tmp_path):
        """Two processes that share a cache directory may each append a
        text's vector: the cache keeps the last, where a vector file given
        to --vectors rejects the repeat."""
        calls: list = []
        kwargs = dict(model="m", dimension=3, transport=make_fake_transport(3, calls),
                      cache_dir=tmp_path)
        first = RemoteEmbeddingProvider("http://x", **kwargs).embed_many(["a", "b"])
        cache = tmp_path / "m.jsonl"
        append_vector_file(cache, {text_key("a"): np.array([7.0, 8.0, 9.0])})
        p = RemoteEmbeddingProvider("http://x", **kwargs)
        assert [v.tolist() for v in p.embed_many(["a", "b"])] == \
            [[7.0, 8.0, 9.0], first[1].tolist()]
        assert len(calls) == 1
        with pytest.raises(EmbeddingError, match=f"^{cache}:3: duplicate id '{text_key('a')}' "
                                                 r"\(first on line 1\)$"):
            read_vector_file(cache)

    def test_cache_is_loaded_without_holding_the_file(self, tmp_path):
        """The cache is read a block at a time: loading a file of several MB
        allocates less than its size at its peak, its vectors held."""
        import tracemalloc

        vectors = {text_key(f"t{k}"): v
                   for k, v in enumerate(np.random.default_rng(0).standard_normal((400, 500)))}
        cache = tmp_path / "m.jsonl"
        write_vector_file(cache, vectors)
        size = cache.stat().st_size
        assert size > 3 << 20
        tracemalloc.start()
        try:
            p = RemoteEmbeddingProvider("http://x", model="m", dimension=500,
                                        transport=make_fake_transport(500, []),
                                        cache_dir=tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size
        assert [v.tobytes() for v in p.embed_many([f"t{k}" for k in range(400)])] == \
            [v.tobytes() for v in vectors.values()]

    @pytest.mark.parametrize("body, message", [
        ([{"embedding": [0.0, 1.0]}], "expected an object whose data lists 2 items"),
        ({"data": [{"embedding": [0.0, 1.0]}]}, "expected an object whose data lists 2 items"),
        ({"data": [{"embedding": [0.0, 1.0]}, {"vector": [0.0, 1.0]}]},
         "item 1 is not an object with an embedding"),
        ({"data": [{"embedding": [0.0, 1.0]}, [0.0, 1.0]]},
         "item 1 is not an object with an embedding"),
        ({"data": [{"embedding": ["a", "b"]}, {"embedding": [0.0, 1.0]}]},
         "item 0: embedding must be a list of numbers"),
        ({"data": [{"embedding": [[0.0, 1.0]]}, {"embedding": [0.0, 1.0]}]},
         "item 0: embedding must be a list of numbers"),
        ({"data": [{"embedding": [0.0, 1.0]}, {"embedding": [float("nan"), 1.0]}]},
         "item 1: non-finite value"),
        ({"data": [{"embedding": [0.0, 1.0]}, {"embedding": [10**400, 1.0]}]},
         "item 1: embedding must be a list of numbers"),
        ({"data": [{"embedding": [0.0, 1.0]}, {"embedding": [0.0]}]},
         "item 1: dimension mismatch: expected 2, got 1"),
    ])
    def test_malformed_response_is_rejected_and_not_cached(self, tmp_path, body, message):
        calls: list = []

        def transport(endpoint, payload, headers):
            calls.append(list(payload["input"]))
            return body

        p = RemoteEmbeddingProvider("http://x", model="m", dimension=2, transport=transport,
                                    cache_dir=tmp_path, sleep=lambda s: None)
        with pytest.raises(EmbeddingError) as err:
            p.embed_many(["first text", "second"])
        assert str(err.value) == ("malformed embedding response for the batch of 2 "
                                  f"starting with 'first text': {message}")
        assert not isinstance(err.value, EmbeddingTransportError)
        assert len(calls) == 1  # not retried
        assert not (tmp_path / "m.jsonl").exists()
        with pytest.raises(EmbeddingError):  # nothing was cached in memory either
            p.embed_many(["first text", "second"])
        assert len(calls) == 2


class TestBuildFeature:
    def test_basis_vectors(self):
        f = build_feature(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        np.testing.assert_array_equal(f, [1, 0, 0, 1, 0, 0])

    def test_ones(self):
        f = build_feature(np.ones(2), np.ones(2))
        np.testing.assert_array_equal(f, [1, 1, 1, 1, 1, 1])

    def test_hand_arithmetic(self):
        f = build_feature(np.array([2.0, -1.0]), np.array([3.0, 4.0]))
        np.testing.assert_array_equal(f, [2, -1, 3, 4, 6, -4])

    def test_dimension_mismatch_reports_lengths(self):
        with pytest.raises(EmbeddingError, match=r"^dimension mismatch: expected 3, got 2$"):
            build_feature(np.ones(3), np.ones(2))

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=6),
           st.lists(st.floats(-10, 10), min_size=1, max_size=6))
    @settings(max_examples=50)
    def test_layout_property(self, t, o):
        d = min(len(t), len(o))
        t, o = t[:d], o[:d]
        f = build_feature(np.array(t), np.array(o))
        assert f.shape == (3 * d,)
        for k in range(d):
            assert f[2 * d + k] == f[k] * f[d + k]


class TestFeatureMatrix:
    def test_toy_archive_dimensions(self, toy_archive, stub_provider, toy_features):
        assert len(toy_features) == 12
        for vec in toy_features.values():
            assert vec.shape == (24,)

    def test_default_remote_dimension_yields_2304_features(self):
        p = RemoteEmbeddingProvider("http://x", transport=lambda *a: None)
        assert p.dimension == 768
        f = build_feature(np.zeros(p.dimension), np.zeros(p.dimension))
        assert f.shape == (2304,)

    def test_raw_fallback_flagged(self, toy_archive, stub_provider):
        fm = feature_matrix(toy_archive, stub_provider)
        assert fm.used_enrichment["toy-007"] is False
        assert fm.used_enrichment["toy-001"] is True

    def test_enriched_preferred_over_raw(self, toy_archive, stub_provider):
        exp = toy_archive.get("toy-001")
        fm = feature_matrix(toy_archive, stub_provider)
        t = stub_provider.embed(exp.enriched_treatment)
        o = stub_provider.embed(exp.enriched_outcome)
        np.testing.assert_array_equal(fm.features["toy-001"], build_feature(t, o))

    def test_error_carries_experiment_id(self, tmp_path):
        arc = Archive((Experiment(id="only", treatment_text="t", outcome_text="o",
                                  effect_size=0.1),))
        path = tmp_path / "v.jsonl"
        write_vector_file(path, {"t": np.array([1.0, 2.0])})  # no vector for "o"
        provider = VectorFileProvider(path)
        with pytest.raises(EmbeddingError) as err:
            feature_matrix(arc, provider)
        assert "only" in str(err.value)


class TestOneEmbeddingCall:
    """Every provider is asked once, through ``embed_many``, for the distinct
    texts in archive order, and gives the stub's features byte for byte."""

    def providers(self, tmp_path, stub, texts):
        path = tmp_path / "v.jsonl"
        write_vector_file(path, dict(zip(texts, stub.embed_many(texts))))

        def transport(endpoint, payload, headers):
            return {"data": [{"embedding": v.tolist()}
                             for v in stub.embed_many(payload["input"])]}

        return {"stub": DeterministicStubProvider(stub.dimension, stub.seed),
                "file": VectorFileProvider(path),
                "remote": RemoteEmbeddingProvider("http://x", dimension=stub.dimension,
                                                  transport=transport)}

    @pytest.mark.parametrize("kind", ["stub", "file", "remote"])
    def test_feature_matrix_makes_one_embed_many_call(self, tmp_path, toy_archive,
                                                      stub_provider, toy_features, kind):
        texts = list(dict.fromkeys(t for e in toy_archive for t in embedding_texts(e)[:2]))
        provider = self.providers(tmp_path, stub_provider, texts)[kind]
        calls = []
        real = provider.embed_many
        provider.embed_many = lambda batch: calls.append(list(batch)) or real(batch)
        fm = feature_matrix(toy_archive, provider)
        assert calls == [texts]
        assert {k: v.tobytes() for k, v in fm.features.items()} == \
            {k: v.tobytes() for k, v in toy_features.items()}

    def test_too_few_vectors_is_one_error(self):
        class Short(DeterministicStubProvider):
            def embed_many(self, texts):
                return super().embed_many(texts)[:-1]

        arc = Archive((Experiment(id="a", treatment_text="t", outcome_text="o",
                                  effect_size=0.1),))
        with pytest.raises(EmbeddingError, match="^experiment 'a': expected 2 vectors, got 1$"):
            feature_matrix(arc, Short(4))

    @pytest.mark.parametrize("vec, message", [
        ([1.0, 2.0, 3.0], "dimension mismatch: expected 2, got 3"),
        ([1.0, float("inf")], "provider returned non-finite embedding values"),
    ])
    def test_bad_vector_names_the_experiment_of_its_text(self, vec, message):
        class Bad(DeterministicStubProvider):
            def embed_many(self, texts):
                return [vec if t == "o2" else self.embed(t) for t in texts]

        arc = Archive(tuple(Experiment(id=f"e{k}", treatment_text="t", outcome_text=f"o{k}",
                                       effect_size=0.1) for k in (1, 2, 3)))
        with pytest.raises(EmbeddingError, match=f"^experiment 'e2': {re.escape(message)}$"):
            feature_matrix(arc, Bad(2))

    def test_empty_text_is_reported_before_a_missing_vector(self, tmp_path):
        """Every text is checked before the provider is asked: an empty text
        is reported even after a text the vector file lacks."""
        path = tmp_path / "v.jsonl"
        write_vector_file(path, {"t": np.array([1.0, 2.0])})
        arc = Archive((Experiment(id="a", treatment_text="t", outcome_text="missing",
                                  effect_size=0.1),
                       Experiment(id="b", treatment_text="t", outcome_text=" ",
                                  effect_size=0.1)))
        with pytest.raises(EmbeddingError, match="^experiment 'b': cannot embed empty text$"):
            feature_matrix(arc, VectorFileProvider(path))


def planted_size_archive() -> Archive:
    """360 experiments over 228 treatments and 228 outcomes: 456 distinct
    texts of 720, as in the benchmark's N=360 archive."""
    return Archive(tuple(
        Experiment(id=f"e{k:03d}", treatment_text=f"treatment {k % 228}",
                   outcome_text=f"outcome {(7 * k) % 228}", effect_size=0.1)
        for k in range(360)))


class TestBatchedFeatureMatrix:
    def remote(self, sent: list, fail_on: int | None = None) -> RemoteEmbeddingProvider:
        stub = DeterministicStubProvider(dimension=4, seed=3)

        def transport(endpoint, payload, headers):
            sent.append(list(payload["input"]))
            if len(sent) == fail_on:
                return {"data": []}
            return {"data": [{"embedding": stub.embed(t).tolist()} for t in payload["input"]]}

        return RemoteEmbeddingProvider("http://x", dimension=4, max_retries=0,
                                       transport=transport)

    def test_distinct_texts_go_in_full_batches(self):
        arc = planted_size_archive()
        sent: list = []
        fm = feature_matrix(arc, self.remote(sent))
        assert len(sent) == 15  # ceil(456 / 32)
        order = list(dict.fromkeys(t for e in arc for t in (e.treatment_text, e.outcome_text)))
        assert [t for batch in sent for t in batch] == order
        one_by_one = self.remote([])
        for exp in arc:
            want = build_feature(*embed_texts(one_by_one,
                                              [exp.treatment_text, exp.outcome_text]))
            assert fm.features[exp.id].tobytes() == want.tobytes()

    def test_failed_batch_names_an_experiment_of_its_texts(self):
        arc = planted_size_archive()
        sent: list = []
        with pytest.raises(EmbeddingError) as err:
            feature_matrix(arc, self.remote(sent, fail_on=2))
        owner = next(e.id for e in arc if sent[1][0] in (e.treatment_text, e.outcome_text))
        assert str(err.value).startswith(f"experiment {owner!r}: malformed embedding response")

    def test_empty_text_fails_before_any_request(self):
        arc = Archive((Experiment(id="a", treatment_text="t", outcome_text="o", effect_size=0.1),
                       Experiment(id="b", treatment_text="t", outcome_text=" ", effect_size=0.1)))
        sent: list = []
        with pytest.raises(EmbeddingError, match="^experiment 'b': cannot embed empty text$"):
            feature_matrix(arc, self.remote(sent))
        assert sent == []
