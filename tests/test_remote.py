import sys
import threading

import pytest

from kgprompt.embed import EmbedderConfig, RemoteEmbedder
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
