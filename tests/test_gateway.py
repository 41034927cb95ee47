from __future__ import annotations

import gc
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import planeval
import planeval.gateway as gateway_module
from helpers import count_calls
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
    VALID_ROLES,
    _request_payload,
    cache_key,
    canonical_request,
    parse_retry_after,
    user_message,
    write_transcript,
)
from planeval.jsonio import FormatError, read_jsonl

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


@pytest.mark.parametrize("field, value", [
    ("name", 5), ("endpoint_url", None), ("api_key_env", 5), ("temperature", True),
    ("temperature", "0"), ("max_tokens", True), ("max_tokens", 1.5), ("timeout", False),
])
def test_model_spec_field_of_the_wrong_type_is_a_type_error(field, value):
    with pytest.raises(TypeError, match=f"^{field} is {value!r}, not "):
        ModelSpec(**{"name": "m", field: value})
    assert ModelSpec(name="m", temperature=1, timeout=5).timeout == 5  # an integer is a number


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


@pytest.mark.parametrize("bad_line, message", [
    ("{not json", "invalid JSON"),
    ('{"prompt_text": "Q"}', "no response_text"),
    ('{"response_text": "A"}', "no prompt_digest or prompt_text"),
])
def test_malformed_transcript_loads_and_every_send_raises_its_line(tmp_path, model_spec, bad_line, message):
    path = tmp_path / "t.jsonl"
    path.write_text('{"prompt_text": "P", "response_text": "ok"}\n\n' + bad_line + "\n")
    transport = MockTransport.load(path)
    request = Gateway.build_request(model_spec, [user_message("P")])
    for _ in range(2):
        with pytest.raises(FormatError) as err:
            transport.send(model_spec, request)
        assert err.value.line_no == 3
        assert str(err.value).startswith("line 3: ") and message in str(err.value)
        assert str(path) in str(err.value)
    assert transport.calls == 2


def test_missing_transcript_fails_at_load(tmp_path):
    with pytest.raises(FileNotFoundError):
        MockTransport.load(tmp_path / "missing.jsonl")


def test_transcript_is_parsed_once_at_the_first_send(tmp_path, model_spec, monkeypatch):
    path = write_transcript(tmp_path / "t.jsonl", [(f"P{i}", f"A{i}") for i in range(20)])
    parsed = []
    monkeypatch.setattr(gateway_module, "read_jsonl", lambda p, data: parsed.append(p) or read_jsonl(p, data))
    transport = MockTransport.load(path)
    assert parsed == []
    gw = Gateway(tmp_path / "c", transport=transport, max_in_flight=8)
    texts = gw.map(lambda i: gw.complete(model_spec, [user_message(f"P{i}")]).response.text, range(20))
    assert texts == [f"A{i}" for i in range(20)]
    assert parsed == [path]
    assert transport.calls == 20


def test_a_transcript_rewritten_after_load_is_not_the_one_parsed(tmp_path, model_spec):
    path = write_transcript(tmp_path / "t.jsonl", [("P", "loaded")])
    transport = MockTransport.load(path)
    write_transcript(path, [("P", "rewritten")])
    request = Gateway.build_request(model_spec, [user_message("P")])
    assert transport.send(model_spec, request).text == "loaded"


def test_map_raises_a_malformed_transcript_from_its_first_send(tmp_path, model_spec):
    path = tmp_path / "t.jsonl"
    path.write_text('{"prompt_text": "P0", "response_text": "A0"}\n{"prompt_text": "P1"}\n')
    gw = Gateway(tmp_path / "c", transport=MockTransport.load(path), max_in_flight=4)
    with pytest.raises(FormatError) as err:
        gw.map(lambda i: gw.complete(model_spec, [user_message(f"P{i}")]), range(8))
    assert err.value.line_no == 2
    assert not any((tmp_path / "c").rglob("*.json"))


_EDGE_MESSAGES = [
    ("system", '"quoted" and \\back\\slashed'),
    ("user", "tab\tnewline\ncr\rnul\x00bell\x07del\x7f"),
    ("assistant", "non-BMP 𝔘 🧮, é and \u2028\u2029"),
]


@given(
    model=st.text(),
    messages=st.lists(st.tuples(st.sampled_from(VALID_ROLES), st.text()), min_size=1, max_size=4),
    temperature=st.sampled_from([0, 0.0, 0.7, 1e-05, 2, 2.0, 1, -0.0, float("nan"), float("inf"), float("-inf")]),
    max_tokens=st.integers(min_value=1, max_value=10**6),
)
@example(model="modèle-β", messages=_EDGE_MESSAGES, temperature=float("nan"), max_tokens=17)
@example(model="m", messages=_EDGE_MESSAGES, temperature=float("inf"), max_tokens=17)
@example(model="m", messages=_EDGE_MESSAGES, temperature=float("-inf"), max_tokens=17)
def test_canonical_request_matches_json_dumps(model, messages, temperature, max_tokens):
    # built directly: ModelSpec would refuse a temperature outside [0, 2]
    request = ChatRequest(
        model=model,
        messages=tuple(Message(role, content) for role, content in messages),
        temperature=temperature,
        max_tokens=max_tokens,
    )
    assert canonical_request(request) == json.dumps(
        _request_payload(request), sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )


def test_a_replayed_request_reads_parses_and_hashes_once_and_encodes_nothing(tmp_path, model_spec):
    gw = Gateway(tmp_path / "c", transport=MockTransport(by_prompt={"P": "42"}))
    gw.complete(model_spec, [user_message("P")])
    targets = {"open": os.open, "loads": json.loads, "sha256": hashlib.sha256, "encode": json.JSONEncoder.encode}
    exchange, calls = count_calls(lambda: gw.complete(model_spec, [user_message("P")]), targets)
    assert exchange.cache_hit and exchange.response.text == "42"
    assert calls == {"open": 1, "loads": 1, "sha256": 1}


def test_a_cold_mock_request_hashes_once(tmp_path, model_spec):
    gw = Gateway(tmp_path / "c", transport=MockTransport(by_prompt={"P": "42"}))
    targets = {"sha256": hashlib.sha256}
    exchange, calls = count_calls(lambda: gw.complete(model_spec, [user_message("P")]), targets)
    assert not exchange.cache_hit and exchange.response.text == "42"
    assert calls == {"sha256": 1}


def test_request_digest_is_the_cache_key_and_not_a_field(model_spec):
    a = Gateway.build_request(model_spec, [user_message("P")])
    b = Gateway.build_request(model_spec, [user_message("P")])
    digest = a.digest  # cached on `a` only
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert digest == cache_key(b) == hashlib.sha256(canonical_request(b).encode()).hexdigest()


def test_empty_mock_response_raises(tmp_path, model_spec):
    transport = MockTransport(by_prompt={"P": ""})
    gw = Gateway(tmp_path / "c", transport=transport)
    with pytest.raises(EmptyResponse):
        gw.complete(model_spec, [user_message("P")])


def test_cache_layout_and_content(tmp_path, model_spec, monkeypatch):
    gw = Gateway(tmp_path / "c", transport=MockTransport(by_prompt={"P": "42"}))
    exchange = gw.complete(model_spec, [user_message("P")])
    path = tmp_path / "c" / exchange.digest[:2] / f"{exchange.digest}.json"
    assert gw.cache_path(exchange.digest) == path
    assert path.exists()
    entry = json.loads(path.read_text())
    assert set(entry) == {"request", "response", "timestamp", "retry_count"}
    assert entry["response"]["text"] == "42"

    monkeypatch.chdir(tmp_path)
    transport = MockTransport(by_prompt={"P": "42"})
    relative = Gateway("runs/cache", transport=transport)
    digest = relative.complete(model_spec, [user_message("P")]).digest
    assert relative.cache_path(digest) == Path("runs/cache") / digest[:2] / f"{digest}.json"
    assert (tmp_path / relative.cache_path(digest)).exists()
    second = Gateway("runs/cache", transport=transport).complete(model_spec, [user_message("P")])
    assert second.cache_hit and second.response.text == "42" and transport.calls == 1


@pytest.mark.parametrize(
    "entry",
    [
        None,
        [],
        {"response": "x"},
        {"response": {"text": "stale"}, "retry_count": None},
        {"response": {"text": 5}, "retry_count": 0},
        {"response": {"text": "stale", "finish_reason": 5}, "retry_count": 0},
        {"response": {"text": "stale", "token_usage": "x"}, "retry_count": 0},
        {"response": {"text": "stale", "extra": 1}, "retry_count": 0},
    ],
    ids=["null", "list", "string-response", "null-retry-count", "non-string-text",
         "finish-reason-number", "token-usage-string", "unknown-response-key"],
)
def test_wrongly_shaped_cache_entry_is_sent_once_and_rewritten(tmp_path, model_spec, entry):
    transport = MockTransport(by_prompt={"P": "42"})
    gw = Gateway(tmp_path / "c", transport=transport)
    path = gw.cache_path(gw.complete(model_spec, [user_message("P")]).digest)
    path.write_text(json.dumps(entry), encoding="utf-8")
    resent = gw.complete(model_spec, [user_message("P")])
    assert not resent.cache_hit and resent.response.text == "42" and transport.calls == 2
    assert json.loads(path.read_text(encoding="utf-8"))["response"]["text"] == "42"
    replayed = gw.complete(model_spec, [user_message("P")])
    assert replayed.cache_hit and replayed.response.text == "42" and transport.calls == 2


def test_cache_entry_without_finish_reason_or_usage_replays_their_defaults(tmp_path, model_spec):
    transport = MockTransport(by_prompt={"P": "42"})
    gw = Gateway(tmp_path / "c", transport=transport)
    path = gw.cache_path(gw.complete(model_spec, [user_message("P")]).digest)
    path.write_text(json.dumps({"response": {"text": "stale"}, "retry_count": 0}), encoding="utf-8")
    replayed = gw.complete(model_spec, [user_message("P")])
    assert replayed.cache_hit and transport.calls == 1
    assert replayed.response == ChatResponse("stale", "stop", {})


def test_cache_entry_response_is_the_answer_as_received(tmp_path, stub_server):
    usage = {"total_tokens": 3, "prompt_tokens_details": {"cached_tokens": 0}}
    url, _ = stub_server([_success_body(usage=usage, finish_reason="length")])
    spec = ModelSpec(name="live", endpoint_url=url, timeout=5)
    gw = _live_gateway(tmp_path)
    exchange = gw.complete(spec, [user_message("ping")])
    entry = json.loads(gw.cache_path(exchange.digest).read_text(encoding="utf-8"))
    assert entry["response"] == {"text": "pong", "finish_reason": "length", "token_usage": usage}
    assert gw.complete(spec, [user_message("ping")]) == replace(exchange, cache_hit=True)


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


def test_a_fully_cached_map_runs_on_the_calling_thread_alone(tmp_path, model_spec, monkeypatch):
    prompts = [f"p{i}" for i in range(20)]
    gw = Gateway(tmp_path / "c", transport=MockTransport(by_prompt={p: p.upper() for p in prompts}))
    for p in prompts:
        gw.complete(model_spec, [user_message(p)])
    callers = set()

    def fn(p):
        callers.add(threading.get_ident())
        return gw.complete(model_spec, [user_message(p)])

    def no_start(thread):
        raise AssertionError("map started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_start)
    results = gw.map(fn, prompts)
    assert callers == {threading.get_ident()}
    assert [r.response.text for r in results] == [p.upper() for p in prompts]
    assert all(r.cache_hit for r in results)


class _Item:
    def __init__(self, prompt):
        self.prompt = prompt


def test_map_holds_no_item_once_its_result_is_dropped(tmp_path, model_spec):
    items = [_Item(f"p{i}") for i in range(6)]
    refs = [weakref.ref(item) for item in items]
    transport = MockTransport(by_prompt={item.prompt: "a" for item in items})
    gw = Gateway(tmp_path / "c", transport=transport, max_in_flight=3)
    gc.disable()
    try:
        results = gw.map(lambda item: gw.complete(model_spec, [user_message(item.prompt)]), items)
        assert [r.response.text for r in results] == ["a"] * 6
        del items, results
        assert [ref() for ref in refs] == [None] * 6
    finally:
        gc.enable()


def test_an_error_other_than_a_gateway_error_starts_no_further_item(tmp_path):
    gw = Gateway(tmp_path / "c", transport=MockTransport(), max_in_flight=1)
    calls = []

    def fn(item):
        calls.append(item)
        if item == 0:
            raise KeyError(item)
        return item

    with pytest.raises(KeyError):
        gw.map(fn, range(4))
    assert calls == [0]


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


def _success_body(content="pong", usage=None, finish_reason="stop") -> bytes:
    """A 200 body of the chat-completions format with `content`, `usage` and
    `finish_reason`."""
    return json.dumps(
        {"choices": [{"message": {"content": content}, "finish_reason": finish_reason}],
         "usage": usage}
    ).encode()


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Answers each request by the next script step: an HTTP status (a 3xx
    points at `location`), "stall" (a 200 sent after the client's timeout),
    bytes (a 200 with that body), "retry-after" (a 503 advising a 2 s
    wait) or "cut-short" (a 500 whose body ends before its Content-Length)."""

    script: list[int | str | bytes] = []
    location = ""
    hits = 0
    last_headers = None
    last_body = b""

    def do_POST(self):
        cls = type(self)
        status = cls.script[min(cls.hits, len(cls.script) - 1)]
        cls.hits += 1
        length = int(self.headers.get("Content-Length", 0))
        cls.last_headers, cls.last_body = self.headers, self.rfile.read(length)
        extra, length = {}, None
        if status == "stall":
            time.sleep(1.0)
            status = 200
        if status == "retry-after":
            status, extra = 503, {"Retry-After": "2"}
        if status == "cut-short":
            status, length = 500, 1000
        if isinstance(status, bytes):
            status, body = 200, status
        elif 300 <= status < 400:
            body, extra = b"moved", {"Location": cls.location}
        elif status == 200:
            body = _success_body(usage={"total_tokens": 3})
        else:
            body = b'{"error": "scripted"}'
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(length or len(body)))
        for name, value in extra.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    do_GET = do_POST  # a followed 3xx lands here whichever method it uses

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    servers = []

    def start(script, location=""):
        handler = type(
            "Handler", (_ScriptedHandler,), {"script": list(script), "location": location, "hits": 0}
        )
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


def test_error_body_cut_short_is_an_api_error_with_an_empty_body(tmp_path, stub_server):
    url, handler = stub_server(["cut-short"])
    spec = ModelSpec(name="live", endpoint_url=url, timeout=5)
    with pytest.raises(ApiError) as err:
        _live_gateway(tmp_path, attempts=1).complete(spec, [user_message("ping")])
    assert (err.value.status, err.value.body) == (500, "")
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


def _live_gateway(tmp_path, attempts=5, sleep=time.sleep):
    return Gateway(
        tmp_path / "c",
        transport=HttpTransport(),
        retry=RetryPolicy(attempts=attempts, base_delay=0),
        sleep=sleep,
    )


def test_http_transport_sends_json_body_and_auth_header(tmp_path, stub_server, monkeypatch):
    url, handler = stub_server([200])
    monkeypatch.setenv("PLANEVAL_TEST_KEY", "sk-test")
    spec = ModelSpec(name="live", endpoint_url=url, api_key_env="PLANEVAL_TEST_KEY", timeout=5)
    exchange = _live_gateway(tmp_path).complete(spec, [user_message("ping \u00e9")])
    assert exchange.response.text == "pong"
    assert exchange.response.token_usage == {"total_tokens": 3}
    request = exchange.request
    assert handler.last_body == json.dumps(
        {
            "model": "live",
            "messages": [{"role": "user", "content": "ping \u00e9"}],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        },
        allow_nan=False,
    ).encode("utf-8")
    assert handler.last_headers["Content-Type"] == "application/json"
    assert handler.last_headers["Authorization"] == "Bearer sk-test"


def test_integer_temperature_goes_on_the_wire_as_the_cached_float(tmp_path, stub_server):
    url, handler = stub_server([200])
    spec = ModelSpec(name="live", endpoint_url=url, temperature=1, timeout=5)
    gw = _live_gateway(tmp_path)
    exchange = gw.complete(spec, [user_message("ping")])
    assert b'"temperature": 1.0,' in handler.last_body
    entry = json.loads(gw.cache_path(exchange.digest).read_text(encoding="utf-8"))
    assert json.loads(handler.last_body) == entry["request"]


def test_server_stalling_past_timeout_raises_transport_error(tmp_path, stub_server):
    url, handler = stub_server(["stall"])
    spec = ModelSpec(name="live", endpoint_url=url, timeout=0.2)
    with pytest.raises(TransportError):
        _live_gateway(tmp_path, attempts=1).complete(spec, [user_message("ping")])
    assert handler.hits == 1


@pytest.mark.parametrize("body", [
    b"<html>busy</html>",
    _success_body(content=[{"type": "text", "text": "pong"}]),
    _success_body(content=5),
    _success_body(usage=[3]),
    _success_body(usage="3 tokens"),
    _success_body(finish_reason=5),
    _success_body(finish_reason=["stop"]),
    _success_body(usage=[]),
], ids=["not-json", "content-list", "content-number", "usage-list", "usage-string",
        "finish-reason-number", "finish-reason-list", "usage-empty-list"])
def test_malformed_success_body_raises_api_error_with_its_status(tmp_path, stub_server, body):
    url, handler = stub_server([body])
    spec = ModelSpec(name="live", endpoint_url=url, timeout=5)
    with pytest.raises(ApiError) as err:
        _live_gateway(tmp_path).complete(spec, [user_message("ping")])
    assert err.value.status == 200
    assert err.value.body == body.decode()
    assert handler.hits == 1  # a 2xx is not retried
    assert not list((tmp_path / "c").glob("*/*.json"))  # nor cached


def test_null_finish_reason_reads_stop_and_nested_usage_is_kept(tmp_path, stub_server):
    usage = {"total_tokens": 3, "prompt_tokens_details": {"cached_tokens": 0}}
    url, _ = stub_server([_success_body(usage=usage, finish_reason=None)])
    spec = ModelSpec(name="live", endpoint_url=url, timeout=5)
    response = _live_gateway(tmp_path).complete(spec, [user_message("ping")]).response
    assert (response.text, response.finish_reason, response.token_usage) == ("pong", "stop", usage)


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_redirect_is_an_api_error_and_the_key_stays_home(tmp_path, stub_server, monkeypatch, status):
    target, landed = stub_server([200])
    url, handler = stub_server([status], location=target)
    monkeypatch.setenv("PLANEVAL_TEST_KEY", "sk-test")
    spec = ModelSpec(name="live", endpoint_url=url, api_key_env="PLANEVAL_TEST_KEY", timeout=5)
    with pytest.raises(ApiError) as err:
        _live_gateway(tmp_path).complete(spec, [user_message("ping")])
    assert err.value.status == status and err.value.body == "moved"
    assert handler.hits == 1  # a 3xx is not retried
    assert handler.last_headers["Authorization"] == "Bearer sk-test"
    assert landed.hits == 0  # nothing, the key least of all, reaches the Location


def test_http_retry_after_header_sets_the_backoff_floor(tmp_path, stub_server):
    url, handler = stub_server(["retry-after", 200])
    spec = ModelSpec(name="live", endpoint_url=url, timeout=5)
    sleeps = []
    gw = Gateway(
        tmp_path / "c", transport=HttpTransport(), retry=RetryPolicy(base_delay=1.0), sleep=sleeps.append
    )
    exchange = gw.complete(spec, [user_message("ping")])
    assert exchange.response.text == "pong"
    assert exchange.retry_count == 1
    assert sleeps == [2.0]


def test_live_call_works_without_the_requests_package(tmp_path, stub_server):
    url, _ = stub_server([200])
    script = (
        "import sys\n"
        "sys.modules['requests'] = None\n"
        "import planeval.runner\n"
        "from planeval.gateway import Gateway, ModelSpec, user_message\n"
        "spec = ModelSpec(name='live', endpoint_url=sys.argv[2], timeout=5)\n"
        "print(Gateway(sys.argv[1]).complete(spec, [user_message('ping')]).response.text)\n"
    )
    src = str(Path(planeval.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "c"), url],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "pong\n"


@pytest.mark.parametrize("value, seconds", [
    ("120", 120.0),
    (" 3 ", 3.0),
    ("0", 0.0),
    (None, None),
    ("", None),
    ("Wed, 21 Oct 2015 07:28:00 GMT", None),
    ("-1", None),
    ("1.5", None),
    ("\u0663", None),
])
def test_parse_retry_after_takes_delta_seconds_only(value, seconds):
    assert parse_retry_after(value) == seconds


class _ScriptedTransport:
    """Raises or returns each scripted outcome in turn."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)

    def send(self, model, request):
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def test_retry_after_is_a_floor_on_the_jittered_delay(tmp_path, model_spec):
    transport = _ScriptedTransport([
        ApiError(429, "slow down", retry_after=3.0),
        ApiError(503, "busy", retry_after=None),
        ApiError(503, "busy", retry_after=0.0),
        ChatResponse(text="ok"),
    ])
    sleeps = []
    gw = Gateway(
        tmp_path / "c", transport=transport, retry=RetryPolicy(base_delay=0.5), sleep=sleeps.append
    )
    exchange = gw.complete(model_spec, [user_message("P")])
    assert exchange.response.text == "ok" and exchange.retry_count == 3
    assert sleeps[0] == 3.0
    assert 0.0 <= sleeps[1] <= 1.0 and 0.0 <= sleeps[2] <= 2.0


@pytest.mark.parametrize("retry_after", [4.0 + 1e-9, 1e12, parse_retry_after("9" * 400)])
def test_retry_after_beyond_the_longest_backoff_fails_at_once(tmp_path, model_spec, retry_after):
    transport = _ScriptedTransport([ApiError(429, "come back later", retry_after), ChatResponse("ok")])
    sleeps = []
    gw = Gateway(
        tmp_path / "c", transport=transport, retry=RetryPolicy(base_delay=0.5), sleep=sleeps.append
    )
    assert gw.retry.longest_delay == 4.0
    [result] = gw.map(lambda text: gw.complete(model_spec, [user_message(text)]), ["P"])
    assert isinstance(result, ApiError) and result.status == 429
    assert sleeps == [] and len(transport.outcomes) == 1
    # The bound is inclusive: the longest backoff window itself is waited out.
    transport.outcomes.insert(0, ApiError(429, "come back later", 4.0))
    assert gw.complete(model_spec, [user_message("P")]).response.text == "ok"
    assert sleeps == [4.0]


class _HeldTransport:
    """Counts sends and holds each one at a barrier of `parties` sends for
    up to `hold` seconds, so concurrent misses all miss the cache."""

    def __init__(self, parties, outcome, hold=0.5):
        self.barrier = threading.Barrier(parties)
        self.outcome = outcome
        self.hold = hold
        self.lock = threading.Lock()
        self.calls = 0

    def send(self, model, request):
        with self.lock:
            self.calls += 1
        try:
            self.barrier.wait(timeout=self.hold)
        except threading.BrokenBarrierError:
            pass
        if isinstance(self.outcome, Exception):
            raise self.outcome
        return self.outcome


def _concurrent_misses(gw, model_spec, n):
    """`n` concurrent `complete` calls on one request, each on its own
    thread; a GatewayError becomes that caller's result."""
    start = threading.Barrier(n)

    def call(_):
        start.wait(timeout=10)
        try:
            return gw.complete(model_spec, [user_message("same prompt")])
        except GatewayError as exc:
            return exc

    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(call, range(n)))


def test_concurrent_misses_on_one_digest_make_one_transport_call(tmp_path, model_spec):
    n = 6
    transport = _HeldTransport(n, ChatResponse(text="shared"))
    gw = Gateway(tmp_path / "c", transport=transport, max_in_flight=n)
    results = _concurrent_misses(gw, model_spec, n)
    assert transport.calls == 1
    assert [r.response.text for r in results] == ["shared"] * n
    assert len({r.digest for r in results}) == 1
    assert sorted(r.cache_hit for r in results) == [False] + [True] * (n - 1)
    assert len(list((tmp_path / "c").glob("*/*.json"))) == 1


def test_waiting_callers_share_the_leaders_error_and_a_later_call_retries(tmp_path, model_spec):
    n = 4
    error = ApiError(400, "bad request")
    transport = _HeldTransport(n, error)
    gw = Gateway(tmp_path / "c", transport=transport, max_in_flight=n)
    results = _concurrent_misses(gw, model_spec, n)
    assert transport.calls == 1
    assert all(r is error for r in results)
    transport.outcome = ChatResponse(text="recovered")
    assert gw.complete(model_spec, [user_message("same prompt")]).response.text == "recovered"
    assert transport.calls == 2


def test_a_nested_map_leaves_the_outer_map_able_to_add_workers(tmp_path, model_spec):
    transport = _HeldTransport(2, ChatResponse(text="x"), hold=5)
    gw = Gateway(tmp_path / "c", transport=transport, max_in_flight=2)

    def fn(item):
        assert gw.map(str, [item]) == [str(item)]
        return gw.complete(model_spec, [user_message(f"p{item}")])

    results = gw.map(fn, range(2))
    assert [r.response.text for r in results] == ["x", "x"]
    assert transport.calls == 2 and not transport.barrier.broken
