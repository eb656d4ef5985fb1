"""The HTTP client shared by the remote providers, with ``requests.post``
replaced by a fake: no test here opens a socket."""

from __future__ import annotations

import pytest
import requests

from exatlas.archive import load_archive
from exatlas.cli import main, toy_archive_path
from exatlas.generators import ChatRequest, ChatTransportError, RemoteChatProvider
from exatlas.remote import post_json, requests_transport
from exatlas.representation import (EmbeddingTransportError, RemoteEmbeddingProvider,
                                    embedding_texts)


class FakeResponse:
    def __init__(self, status_code: int, body):
        self.status_code = status_code
        self.body = body
        self.text = str(body)

    def json(self):
        if isinstance(self.body, Exception):
            raise self.body
        return self.body


class FakePost:
    """Stands in for ``requests.post``: records each call and answers it with
    the next of ``replies`` (raising it if it is an exception)."""

    def __init__(self):
        self.calls: list[dict] = []
        self.replies: list = []

    def __call__(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        reply = self.replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply


@pytest.fixture
def post(monkeypatch):
    fake = FakePost()
    monkeypatch.setattr(requests, "post", fake)
    return fake


class Failed(Exception):
    pass


def test_requests_transport_posts_with_its_timeout(post):
    post.replies.append(FakeResponse(200, {"ok": 1}))
    send = requests_transport(Failed, "thing", timeout=7)
    assert send("http://x", {"a": 1}, {"h": "v"}) == {"ok": 1}
    assert post.calls == [{"url": "http://x", "json": {"a": 1}, "headers": {"h": "v"},
                           "timeout": 7}]


def test_requests_transport_raises_the_given_error(post):
    post.replies += [FakeResponse(503, "busy"), requests.ConnectionError("refused")]
    send = requests_transport(Failed, "thing", timeout=7)
    with pytest.raises(Failed, match="^thing endpoint returned 503: busy$"):
        send("http://x", {}, {})
    with pytest.raises(Failed, match="^thing request failed: refused$"):
        send("http://x", {}, {})
    post.replies.append(FakeResponse(200, ValueError("Expecting value")))
    with pytest.raises(Failed, match="^thing endpoint returned invalid JSON: Expecting"):
        send("http://x", {}, {})


def test_post_json_sends_the_key_only_when_set():
    """Retries and backoff are covered through both providers' tests."""
    seen = []

    def transport(endpoint, payload, headers):
        seen.append(headers)
        return {"ok": 1}

    for key in ("k", None, ""):
        assert post_json(transport, "http://x", {}, key, error=Failed, retries=0,
                         sleep=None) == {"ok": 1}
    plain = {"Content-Type": "application/json"}
    assert seen == [{**plain, "Authorization": "Bearer k"}, plain, plain]


def test_default_transports_keep_their_timeouts_and_errors(post):
    post.replies += [FakeResponse(500, "e"), FakeResponse(500, "c")]
    embed = RemoteEmbeddingProvider("http://e", dimension=2, max_retries=0)
    with pytest.raises(EmbeddingTransportError, match="^embedding endpoint returned 500"):
        embed.embed_many(["t"])
    chat = RemoteChatProvider("http://c", "m", max_retries=0)
    with pytest.raises(ChatTransportError, match="^chat endpoint returned 500"):
        chat.complete(ChatRequest("p"))
    assert [c["timeout"] for c in post.calls] == [60, 120]


def test_malformed_embedding_response_at_the_cli(post, tmp_path, capsys):
    # The CLI sends the toy archive's distinct texts (fewer than a batch of 32)
    # in one request.
    texts = {text for exp in load_archive(toy_archive_path()) for text in embedding_texts(exp)[:2]}
    post.replies.append(FakeResponse(200, {"data": [{"embedding": [float("nan"), 1.0]}]
                                           + [{"embedding": [0.0, 1.0]}] * (len(texts) - 1)}))
    cache = tmp_path / "cache"
    code = main(["embed", "--archive", str(toy_archive_path()),
                 "--provider", "remote:endpoint=http://e,model=m,d=2",
                 "--cache-dir", str(cache), "--out", str(tmp_path / "v.jsonl")])
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2 and len(lines) == 1, lines
    assert lines[0].startswith("error: experiment 'toy-001': malformed embedding response")
    assert lines[0].endswith("item 0: non-finite value")
    assert not (cache / "m.jsonl").exists()
    assert len(post.calls) == 1
    assert sorted(post.calls[0]["json"]["input"]) == sorted(texts)
