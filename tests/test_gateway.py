from __future__ import annotations

import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, strategies as st

from planeval.gateway import (
    ApiError,
    ChatRequest,
    ChatResponse,
    EmptyResponse,
    GatewayError,
    Gateway,
    HttpTransport,
    Message,
    MockTransport,
    ModelSpec,
    RetryPolicy,
    TranscriptMiss,
    TransportError,
    cache_key,
    canonical_request,
    user_message,
    write_transcript,
)

# Pinned once via an external sha256sum over the canonical form below.
GOLDEN_CANONICAL = (
    '{"max_tokens":16,"messages":[{"content":"hello","role":"user"}],'
    '"model":"golden","temperature":0.0}'
)
GOLDEN_DIGEST = "b69cf82368c69bcdf18718c707d4a9ff1c809e4ad939b447c58aca7b77c7eb82"


def _req(model="m", text="hi", temperature=0.0, max_tokens=64) -> ChatRequest:
    return ChatRequest(
        model=model,
        messages=(user_message(text),),
        temperature=temperature,
        max_tokens=max_tokens,
    )


def test_golden_digest_regression():
    request = ChatRequest(
        model="golden", messages=(Message("user", "hello"),), temperature=0, max_tokens=16
    )
    assert canonical_request(request) == GOLDEN_CANONICAL
    assert cache_key(request) == GOLDEN_DIGEST
    assert len(cache_key(request)) == 64


def test_digest_ignores_field_construction_order():
    a = ChatRequest(model="m", messages=(Message("user", "x"),), temperature=0.5, max_tokens=9)
    b = ChatRequest(max_tokens=9, temperature=0.5, messages=(Message("user", "x"),), model="m")
    assert cache_key(a) == cache_key(b)


def test_digest_distinguishes_temperature():
    assert cache_key(_req(temperature=0.0)) != cache_key(_req(temperature=0.7))


def test_digest_int_and_float_temperature_agree():
    assert cache_key(_req(temperature=0)) == cache_key(_req(temperature=0.0))


@given(
    st.lists(
        st.tuples(st.sampled_from(["system", "user", "assistant"]), st.text(max_size=40)),
        min_size=1,
        max_size=4,
    )
)
def test_digest_is_pure_function_of_request(messages):
    msgs = tuple(Message(r, c) for r, c in messages)
    a = ChatRequest(model="m", messages=msgs)
    b = ChatRequest(model="m", messages=tuple(Message(r, c) for r, c in messages))
    assert cache_key(a) == cache_key(b)


def test_message_rejects_unknown_role():
    with pytest.raises(ValueError):
        Message("tool", "x")


def test_model_spec_invariants():
    with pytest.raises(ValueError):
        ModelSpec(name="")
    with pytest.raises(ValueError):
        ModelSpec(name="m", temperature=3.0)
    with pytest.raises(ValueError):
        ModelSpec(name="m", timeout=0)
    assert ModelSpec(name="m").temperature == 0.0


def test_second_call_served_from_cache(tmp_path, model_spec):
    transport = MockTransport(by_prompt={"P": "42"})
    gw = Gateway(tmp_path / "c", transport=transport, retry=RetryPolicy(base_delay=0))
    first = gw.complete(model_spec, [user_message("P")])
    second = gw.complete(model_spec, [user_message("P")])
    assert first.response.text == "42"
    assert second.response.text == first.response.text
    assert second.cache_hit and not first.cache_hit
    assert transport.calls == 1


def test_mock_matches_by_digest(tmp_path, model_spec):
    request = Gateway.build_request(model_spec, [user_message("Q")])
    transport = MockTransport(by_digest={cache_key(request): "ok"})
    gw = Gateway(tmp_path / "c", transport=transport)
    assert gw.complete(model_spec, [user_message("Q")]).response.text == "ok"


def test_mock_miss_raises(tmp_path, model_spec):
    gw = Gateway(tmp_path / "c", transport=MockTransport())
    with pytest.raises(TranscriptMiss):
        gw.complete(model_spec, [user_message("unknown")])


def test_transcript_file_roundtrip(tmp_path, model_spec):
    path = write_transcript(tmp_path / "t.jsonl", [("P", "resp")])
    transport = MockTransport.load(path)
    gw = Gateway(tmp_path / "c", transport=transport)
    assert gw.complete(model_spec, [user_message("P")]).response.text == "resp"


def test_empty_mock_response_raises(tmp_path, model_spec):
    transport = MockTransport(by_prompt={"P": ""})
    gw = Gateway(tmp_path / "c", transport=transport)
    with pytest.raises(EmptyResponse):
        gw.complete(model_spec, [user_message("P")])


def test_cache_layout_and_content(tmp_path, model_spec):
    gw = Gateway(tmp_path / "c", transport=MockTransport(by_prompt={"P": "42"}))
    exchange = gw.complete(model_spec, [user_message("P")])
    path = tmp_path / "c" / exchange.digest[:2] / f"{exchange.digest}.json"
    assert path.exists()
    entry = json.loads(path.read_text())
    assert set(entry) == {"request", "response", "timestamp", "retry_count"}
    assert entry["response"]["text"] == "42"


def test_concurrent_distinct_requests_produce_uncorrupted_entries(tmp_path, model_spec):
    prompts = [f"prompt-{i}" for i in range(32)]
    transport = MockTransport(by_prompt={p: f"answer-{p}" for p in prompts})
    gw = Gateway(tmp_path / "c", transport=transport, max_in_flight=16)
    with ThreadPoolExecutor(max_workers=16) as pool:
        list(pool.map(lambda p: gw.complete(model_spec, [user_message(p)]), prompts))
    files = list((tmp_path / "c").glob("*/*.json"))
    assert len(files) == len(prompts)
    for f in files:
        entry = json.loads(f.read_text())
        payload = json.dumps(entry["request"], sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        import hashlib

        assert hashlib.sha256(payload.encode()).hexdigest() == f.stem


class _InFlightTransport:
    """Counts sends in flight; prompts ending in `!` have no transcript entry."""

    def __init__(self):
        self.lock = threading.Lock()
        self.in_flight = 0
        self.peak = 0

    def send(self, model, request):
        with self.lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(0.001)
            prompt = request.messages[-1].content
            if prompt.endswith("!"):
                raise TranscriptMiss(prompt)
            return ChatResponse(text=f"answer to {prompt}")
        finally:
            with self.lock:
                self.in_flight -= 1


def test_map_is_the_one_bound_on_requests_in_flight(tmp_path, model_spec):
    prompts = [f"p{i}!" if i % 7 == 0 else f"p{i}" for i in range(60)]
    transport = _InFlightTransport()
    gw = Gateway(tmp_path / "c", transport=transport, max_in_flight=3)
    results = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(
            target=lambda: results.extend(
                gw.map(lambda p: gw.complete(model_spec, [user_message(p)]), prompts)
            ),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not worker.is_alive()
    assert transport.peak == 3
    assert len(results) == len(prompts)
    for prompt, result in zip(prompts, results):
        if prompt.endswith("!"):
            assert isinstance(result, TranscriptMiss) and str(result) == prompt
        else:
            assert result.response.text == f"answer to {prompt}"


def test_map_propagates_errors_other_than_gateway_errors(tmp_path):
    gw = Gateway(tmp_path / "c", transport=MockTransport())

    def fn(item):
        if item == 2:
            raise KeyError(item)
        raise GatewayError(item)

    with pytest.raises(KeyError):
        gw.map(fn, range(4))
    assert [str(e) for e in gw.map(fn, [0, 1])] == ["0", "1"]


def test_mock_runs_are_bit_reproducible(tmp_path, model_spec):
    entries = [(f"p{i}", f"r{i}") for i in range(5)]
    texts = []
    for run in range(2):
        transport = MockTransport.load(write_transcript(tmp_path / "t.jsonl", entries))
        gw = Gateway(tmp_path / f"c{run}", transport=transport)
        texts.append(
            [gw.complete(model_spec, [user_message(p)]).response.text for p, _ in entries]
        )
    assert texts[0] == texts[1]


class _ScriptedHandler(BaseHTTPRequestHandler):
    script: list[int] = []
    hits = 0

    def do_POST(self):
        cls = type(self)
        status = cls.script[min(cls.hits, len(cls.script) - 1)]
        cls.hits += 1
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        if status == 200:
            body = json.dumps(
                {
                    "choices": [{"message": {"content": "pong"}, "finish_reason": "stop"}],
                    "usage": {"total_tokens": 3},
                }
            ).encode()
        else:
            body = b'{"error": "scripted"}'
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    servers = []

    def start(script):
        handler = type("Handler", (_ScriptedHandler,), {"script": list(script), "hits": 0})
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions", handler

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def test_retry_then_success_counts_retries(tmp_path, stub_server):
    url, handler = stub_server([429, 429, 200])
    spec = ModelSpec(name="live", endpoint_url=url, timeout=5)
    gw = Gateway(tmp_path / "c", transport=HttpTransport(), retry=RetryPolicy(base_delay=0))
    exchange = gw.complete(spec, [user_message("ping")])
    assert exchange.response.text == "pong"
    assert exchange.retry_count == 2
    assert handler.hits == 3


def test_client_error_is_not_retried(tmp_path, stub_server):
    url, handler = stub_server([400])
    spec = ModelSpec(name="live", endpoint_url=url, timeout=5)
    gw = Gateway(tmp_path / "c", transport=HttpTransport(), retry=RetryPolicy(base_delay=0))
    with pytest.raises(ApiError) as err:
        gw.complete(spec, [user_message("ping")])
    assert err.value.status == 400
    assert "scripted" in err.value.body
    assert handler.hits == 1


def test_server_errors_exhaust_retries(tmp_path, stub_server):
    url, handler = stub_server([500, 500, 500, 500, 500, 500])
    spec = ModelSpec(name="live", endpoint_url=url, timeout=5)
    gw = Gateway(
        tmp_path / "c",
        transport=HttpTransport(),
        retry=RetryPolicy(attempts=3, base_delay=0),
    )
    with pytest.raises(ApiError):
        gw.complete(spec, [user_message("ping")])
    assert handler.hits == 3


def test_unreachable_endpoint_raises_transport_error(tmp_path):
    spec = ModelSpec(name="live", endpoint_url="http://127.0.0.1:9/v1/none", timeout=1)
    gw = Gateway(
        tmp_path / "c",
        transport=HttpTransport(),
        retry=RetryPolicy(attempts=2, base_delay=0),
    )
    with pytest.raises(TransportError):
        gw.complete(spec, [user_message("ping")])
