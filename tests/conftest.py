"""Shared fixtures: bundled data paths, graphs, and a local HTTP service."""

from __future__ import annotations

import json
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import pytest

from kgprompt.kg import load_graph

TESTS_DIR = Path(__file__).parent
DATA_DIR = TESTS_DIR / "data"
ALEX_QUESTION = "Where did Alex Chilton die?"


def pytest_collection_modifyitems(items):
    # A resource a test leaves open (a socket, a file) warns when it is
    # collected; these markers turn that warning into an error of the test
    # that leaked it.
    for item in items:
        if item.path.is_relative_to(TESTS_DIR):
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"))


@pytest.fixture(scope="session")
def alex_dir() -> Path:
    return DATA_DIR / "alex_chilton"


@pytest.fixture(scope="session")
def alex_updated_dir() -> Path:
    return DATA_DIR / "alex_chilton_updated"


@pytest.fixture(scope="session")
def alex_graph(alex_dir):
    return load_graph(alex_dir / "triples.tsv", alex_dir / "entities.tsv")


@pytest.fixture(scope="session")
def toy_dir() -> Path:
    import kgprompt

    return Path(kgprompt.__file__).parent / "data" / "toy"


class ServiceState:
    """Mutable knobs and observations for the local HTTP test service."""

    def __init__(self):
        self.lock = threading.Lock()
        self.embed_dimension = 8
        # first component of every /embed_nonfinite vector (None -> JSON null)
        self.nonfinite_component = None
        self.fail_remaining = 0
        self.flaky_status = 503  # status of each failing /flaky or /embed_flaky reply
        self.delay = 0.0
        self.active = 0
        self.max_active = 0
        # Requests per path not yet answered, and the most distinct paths
        # that had one at the same moment.
        self.active_by_path = Counter()
        self.max_paths_active = 0
        self.last_authorization = None
        self.last_content_type = None
        self.requests = 0


def _make_handler(state: ServiceState):
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def _reply(self, status: int, payload, raw: bytes | None = None, location: str | None = None):
            body = raw if raw is not None else json.dumps(payload).encode("utf-8")
            # Leave active_by_path before the reply is written: once the
            # client has read it, it may send its next request, and that
            # request must not look concurrent with this one.
            with state.lock:
                state.active_by_path[self.path] -= 1
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if location is not None:
                self.send_header("Location", location)
            self.end_headers()
            self.wfile.write(body)

        def _take_failure(self) -> bool:
            """Whether this reply fails, using up one of ``fail_remaining``."""
            with state.lock:
                failing = state.fail_remaining > 0
                if failing:
                    state.fail_remaining -= 1
            return failing

        def do_POST(self):
            import time

            length = int(self.headers.get("Content-Length", 0))
            request = json.loads(self.rfile.read(length)) if length else {}
            with state.lock:
                state.requests += 1
                state.last_authorization = self.headers.get("Authorization")
                state.last_content_type = self.headers.get("Content-Type")
                state.active += 1
                state.max_active = max(state.max_active, state.active)
                state.active_by_path[self.path] += 1
                state.max_paths_active = max(
                    state.max_paths_active, sum(1 for count in state.active_by_path.values() if count)
                )
            try:
                if state.delay:
                    time.sleep(state.delay)
                if self.path == "/embed_flaky" and self._take_failure():
                    self._reply(state.flaky_status, {"error": "try again"})
                elif self.path in ("/embed", "/embed_flaky"):
                    dim = state.embed_dimension
                    vectors = [
                        [0.0] * dim
                        if not text
                        else [float(1 + (len(text) + i) % 5) for i in range(dim)]
                        for text in request["texts"]
                    ]
                    self._reply(200, {"vectors": vectors})
                elif self.path == "/embed_wrong_dim":
                    dim = state.embed_dimension + 1
                    vectors = [[1.0] * dim for _ in request["texts"]]
                    self._reply(200, {"vectors": vectors})
                elif self.path == "/embed_nonfinite":
                    dim = state.embed_dimension
                    vector = [state.nonfinite_component] + [1.0] * (dim - 1)
                    self._reply(200, {"vectors": [vector for _ in request["texts"]]})
                elif self.path == "/complete":
                    self._reply(200, {"text": f"completion for {len(request['prompt'])} chars"})
                elif self.path == "/flaky":
                    if self._take_failure():
                        self._reply(state.flaky_status, {"error": "try again"})
                    else:
                        self._reply(200, {"text": "recovered"})
                elif self.path in ("/redirect_302", "/redirect_307"):
                    # A client that follows either would POST again to /complete.
                    self._reply(int(self.path[-3:]), {"error": "moved"}, location="/complete")
                elif self.path == "/always_500":
                    self._reply(500, {"error": "boom"})
                elif self.path == "/not_json":
                    self._reply(200, None, raw=b"this is not json")
                elif self.path == "/no_text":
                    self._reply(200, {"something": "else"})
                else:
                    self._reply(404, {"error": "unknown path"})
            finally:
                with state.lock:
                    state.active -= 1

    return Handler


@pytest.fixture()
def http_service():
    state = ServiceState()
    server = ThreadingHTTPServer(("127.0.0.1", 0), _make_handler(state))
    # A short poll interval lets shutdown() return quickly at teardown.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield SimpleNamespace(url=f"http://127.0.0.1:{server.server_port}", state=state)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
