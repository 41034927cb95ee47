"""Loopback OpenAI-compatible chat-completions stub for the tools-http workload.

    python3 bench/stub_server.py STUB_TRANSCRIPT.jsonl

Listens on an ephemeral port of 127.0.0.1, prints `port <n>` on stdout once
ready, and exits when its stdin closes, so it never outlives the benchmark.

- POST /v1/chat/completions answers from the transcript by (model, last user
  message); an unknown prompt gets a 404, which the gateway does not retry.
- GET /stats returns {"requests": n, "digests": d}: calls served and distinct
  request bodies seen, counted here rather than inside the program under
  test. GET /stats?reset=1 also zeroes both.

Each response goes out as one buffered write of headers and body, then the
connection closes. Writing headers and body separately would hit the 40 ms
delayed-ACK stall once a client keeps connections alive. Closing from this
side leaves the TIME_WAIT sockets here, not on the client's ephemeral ports.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class StubServer(ThreadingHTTPServer):
    daemon_threads = True
    request_queue_size = 64

    def __init__(self, answers: dict[tuple[str, str], str]):
        super().__init__(("127.0.0.1", 0), Handler)
        self.answers = answers
        self.lock = threading.Lock()
        self.requests = 0
        self.digests: set[str] = set()


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.0"
    server: StubServer

    def log_message(self, *args) -> None:
        pass  # one stderr line per request would bury the benchmark's own log

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.0 {status} {self.responses[status][0]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + body)
        self.close_connection = True

    def do_GET(self) -> None:
        if not self.path.startswith("/stats"):
            self._reply(404, {"error": "not found"})
            return
        server = self.server
        with server.lock:
            stats = {"requests": server.requests, "digests": len(server.digests)}
            if self.path.endswith("reset=1"):
                server.requests = 0
                server.digests.clear()
        self._reply(200, stats)

    def do_POST(self) -> None:
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        server = self.server
        with server.lock:
            server.requests += 1
            server.digests.add(hashlib.sha256(raw).hexdigest())
        try:
            request = json.loads(raw)
            model = request["model"]
            prompt = next(m["content"] for m in reversed(request["messages"]) if m["role"] == "user")
        except (ValueError, KeyError, TypeError, StopIteration):
            self._reply(400, {"error": "malformed chat request"})
            return
        text = server.answers.get((model, prompt))
        if text is None:
            self._reply(404, {"error": f"no scripted answer for model {model}"})
            return
        self._reply(
            200,
            {
                "choices": [{"message": {"role": "assistant", "content": text}, "finish_reason": "stop"}],
                "usage": {"prompt_tokens": len(prompt) // 4, "completion_tokens": len(text) // 4},
            },
        )


def load_answers(path: str) -> dict[tuple[str, str], str]:
    answers = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                row = json.loads(line)
                answers[row["model"], row["prompt_text"]] = row["response_text"]
    return answers


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: stub_server.py STUB_TRANSCRIPT.jsonl", file=sys.stderr)
        return 2
    server = StubServer(load_answers(argv[0]))
    print(f"port {server.server_address[1]}", flush=True)

    def stop_on_eof() -> None:
        sys.stdin.buffer.read()
        server.shutdown()

    threading.Thread(target=stop_on_eof, daemon=True).start()
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
