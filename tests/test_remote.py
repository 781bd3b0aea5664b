import os
import ssl
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import kgprompt
from kgprompt import remote
from kgprompt.embed import EmbedderConfig, RemoteEmbedder
from kgprompt.errors import RemoteServiceError
from kgprompt.llm import CompletionRequest, ProviderConfig, RemoteClient


def embedder(url: str, bound: int):
    config = EmbedderConfig(kind="remote", dimension=8, endpoint=f"{url}/embed", max_concurrency=bound)
    client = RemoteEmbedder(config)
    return client, lambda i: client.embed([f"text {i}"])


def completion(url: str, bound: int):
    client = RemoteClient(ProviderConfig(kind="remote", endpoint=f"{url}/complete", max_concurrency=bound))
    return client, lambda i: client.generate(CompletionRequest(f"prompt {i}"))


class TestTransport:
    @pytest.mark.parametrize("make_client", [embedder, completion])
    def test_bound_and_counters(self, http_service, make_client):
        # More threads than slots and than cores, with frequent thread
        # switches, so a lost counter update or a leaked slot would show.
        http_service.state.delay = 0.05
        client, call = make_client(http_service.url, 3)
        threads = [threading.Thread(target=call, args=(i,)) for i in range(10)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        transport = client.transport
        assert (transport.requests, transport.retries, transport.peak_in_flight) == (10, 0, 3)
        assert transport._in_flight == 0
        assert http_service.state.max_active <= 3


class TestPostJson:
    def test_importing_the_package_loads_no_third_party_http_client(self):
        src = str(Path(kgprompt.__file__).parents[1])
        code = "import kgprompt, sys; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
        result = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60
        )
        assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr

    @pytest.mark.parametrize("make_client", [embedder, completion])
    def test_sends_a_json_content_type(self, http_service, make_client):
        _client, call = make_client(http_service.url, 1)
        call(0)
        assert http_service.state.last_content_type == "application/json"

    @pytest.mark.parametrize("status", [302, 307])
    def test_redirect_fails_at_once_with_its_status(self, http_service, status):
        delays = []
        config = ProviderConfig(kind="remote", endpoint=f"{http_service.url}/redirect_{status}")
        client = RemoteClient(config, sleep=delays.append)
        with pytest.raises(RemoteServiceError, match=f"HTTP {status}") as excinfo:
            client.generate(CompletionRequest("x"))
        assert (excinfo.value.status, excinfo.value.attempts) == (status, 1)
        assert http_service.state.requests == 1
        assert delays == []


def count_tls_contexts(monkeypatch) -> list:
    """The class of each TLS context made from now on, by whichever path."""
    created = []
    new = ssl.SSLContext.__new__

    def counting_new(cls, *args, **kwargs):
        created.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(ssl.SSLContext, "__new__", counting_new)
    return created


class TestTlsContext:
    def test_one_context_for_many_https_requests(self, monkeypatch):
        monkeypatch.setattr(remote, "_tls_context", None)
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        created = count_tls_contexts(monkeypatch)
        for _ in range(4):
            # Nothing listens on the discard port: each request fails to connect.
            with pytest.raises(RemoteServiceError) as excinfo:
                remote.post_json("https://127.0.0.1:9/", {}, timeout=5)
            assert excinfo.value.status is None
        assert len(created) == 1
        assert remote._tls_context is not None

    def test_importing_the_package_makes_no_context(self):
        src = str(Path(kgprompt.__file__).parents[1])
        code = (
            "import ssl\n"
            "created, new = [], ssl.SSLContext.__new__\n"
            "ssl.SSLContext.__new__ = lambda cls, *args, **kwargs: created.append(cls) or new(cls, *args, **kwargs)\n"
            "import kgprompt, kgprompt.cli\n"
            "print(len(created), kgprompt.remote._tls_context)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60
        )
        assert (result.returncode, result.stdout) == (0, "0 None\n"), result.stderr
