"""Local stand-in for a hosted embedding and completion service.

Run as its own process: ``python3 stub.py --script script.json``. It binds
``127.0.0.1`` on a free port, prints ``{"port": N}`` as its first line of
output, and serves until its standard input closes (so it never outlives
the benchmark that started it).

- ``POST /embed`` ``{"texts": [...]}`` returns the hashed bag-of-words
  vectors of ``kgprompt.embed.hashed_bow_vector``;
- ``POST /complete`` ``{"prompt": ...}`` answers from the same script as the
  scripted provider: the first script key found in the prompt wins;
- ``GET /stats`` returns the request counters, ``POST /reset`` zeroes them.

Every reply to ``/embed`` and ``/complete`` takes a fixed time from the
moment the request body is read, so the client's time beyond that delay is
its own overhead. The stub injects no faults: the client's 1/2/4 s retry
backoff would make the timing measure the backoff constants.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from kgprompt.embed import hashed_bow_vector
from kgprompt.llm import CompletionRequest, ProviderConfig, ScriptedClient



class Counters:
    """Request counts the benchmark reads back after each repetition."""

    def __init__(self, paths):
        self.lock = threading.Lock()
        self.paths = tuple(paths)
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.requests = {path: 0 for path in self.paths}
            self.texts = 0
            self.bytes_in = 0
            self.bytes_out = 0
            self.active = 0
            self.peak_active = 0

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "requests": dict(self.requests),
                "texts": self.texts,
                "bytes_in": self.bytes_in,
                "bytes_out": self.bytes_out,
                "peak_active": self.peak_active,
            }


def make_handler(counters: Counters, script: dict[str, str], dimension: int, delays: dict[str, float]):
    provider = ScriptedClient(ProviderConfig(script=script))

    def answer(path: str, request: dict) -> dict:
        if path == "/embed":
            return {"vectors": [hashed_bow_vector(text, dimension).tolist() for text in request["texts"]]}
        return {"text": provider.generate(CompletionRequest(request["prompt"], request.get("max_tokens", 128)))}

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def _reply(self, status: int, payload: dict) -> int:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return len(body)

        def do_GET(self):
            if self.path == "/stats":
                self._reply(200, counters.snapshot())
            else:
                self._reply(404, {"error": "unknown path"})

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(length)
            if self.path == "/reset":
                counters.reset()
                self._reply(200, {})
                return
            if self.path not in delays:
                self._reply(404, {"error": "unknown path"})
                return
            due = time.perf_counter() + delays[self.path]
            request = json.loads(raw)
            with counters.lock:
                counters.requests[self.path] += 1
                counters.texts += len(request.get("texts", ()))
                counters.bytes_in += length
                counters.active += 1
                counters.peak_active = max(counters.peak_active, counters.active)
            try:
                payload = answer(self.path, request)
                time.sleep(max(0.0, due - time.perf_counter()))
                sent = self._reply(200, payload)
            finally:
                with counters.lock:
                    counters.active -= 1
            with counters.lock:
                counters.bytes_out += sent

    return Handler


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--script", required=True, help="JSON object: prompt substring -> response")
    parser.add_argument("--dimension", type=int, default=256)
    parser.add_argument("--embed-delay", type=float, default=0.005, help="seconds per /embed reply")
    parser.add_argument("--complete-delay", type=float, default=0.020, help="seconds per /complete reply")
    args = parser.parse_args(argv)
    with open(args.script, encoding="utf-8") as handle:
        script = json.load(handle)
    delays = {"/embed": args.embed_delay, "/complete": args.complete_delay}
    handler = make_handler(Counters(delays), script, args.dimension, delays)
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(json.dumps({"port": server.server_port}), flush=True)
    sys.stdin.read()  # returns when the benchmark closes our stdin or exits
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


if __name__ == "__main__":
    main()
