"""Chat-completion gateway: OpenAI-compatible wire client on stdlib `urllib`
with deterministic content-addressed response caching, one fan-out (`map`)
whose calling thread works the items and adds a worker for each request it
must send, up to the one bound on requests in flight, single-flight sends
per request digest, retry with full-jitter backoff, and a scripted offline
mock transport."""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import os
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .jsonio import (
    FormatError, atomic_open, check_row, check_types, json_line, read_jsonl, write_jsonl,
)

VALID_ROLES = ("system", "user", "assistant")
DEFAULT_MAX_IN_FLIGHT = 8
_O_READ = os.O_RDONLY | getattr(os, "O_BINARY", 0)


class GatewayError(Exception):
    """Base class for everything the gateway can raise."""


class TransportError(GatewayError):
    """Network failure or timeout that survived all retries."""


class ApiError(GatewayError):
    """Non-2xx or malformed provider response; the body is preserved for
    debugging. `retry_after` is the response's `Retry-After` delay in
    seconds, or None when the header is absent or not delta-seconds."""

    def __init__(self, status: int, body: str, retry_after: float | None = None):
        super().__init__(f"API error {status}: {body[:200]}")
        self.status = status
        self.body = body
        self.retry_after = retry_after


class EmptyResponse(GatewayError):
    """Provider answered 2xx but returned no text."""


class TranscriptMiss(GatewayError):
    """The mock transport has no entry for this request."""


@dataclass(frozen=True)
class Message:
    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in VALID_ROLES:
            raise ValueError(f"invalid role {self.role!r}, expected one of {VALID_ROLES}")


def user_message(text: str) -> Message:
    return Message("user", text)


@dataclass(frozen=True)
class ModelSpec:
    """Connection and sampling parameters for one model endpoint.

    Temperature defaults to 0 so repeated measurements are deterministic.
    """

    name: str
    endpoint_url: str = ""
    api_key_env: str = ""
    temperature: float = 0.0
    max_tokens: int = 1024
    timeout: float = 60.0
    # The JSON types of the fields above, matched exactly (a class attribute, not a field).
    TYPES = {"name": (str,), "endpoint_url": (str,), "api_key_env": (str,),
             "temperature": (int, float), "max_tokens": (int,), "timeout": (int, float)}

    def __post_init__(self) -> None:
        check_types(vars(self), self.TYPES)
        if not self.name:
            raise ValueError("model name must be nonempty")
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError(f"temperature {self.temperature} outside [0, 2]")
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")


@dataclass(frozen=True)
class ChatRequest:
    model: str
    messages: tuple[Message, ...]
    temperature: float = 0.0
    max_tokens: int = 1024

    @cached_property
    def digest(self) -> str:
        """SHA-256 digest (64 hex chars) of the canonical request form, hashed
        on first read. Not a field: equality, hash and repr ignore it."""
        return hashlib.sha256(canonical_request(self).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ChatResponse:
    text: str
    finish_reason: str = "stop"
    token_usage: dict = field(default_factory=dict)  # the provider's counts, possibly nested
    # The JSON types of the fields above, matched exactly; what `token_usage` holds is unchecked.
    TYPES = {"text": (str,), "finish_reason": (str,), "token_usage": (dict,)}

    def __post_init__(self) -> None:
        check_types(vars(self), self.TYPES)


@dataclass(frozen=True)
class ChatExchange:
    """One completed round-trip, cache-addressable by its request digest."""

    request: ChatRequest
    response: ChatResponse
    digest: str
    retry_count: int = 0
    cache_hit: bool = False


def _request_payload(request: ChatRequest) -> dict:
    """The one dict form of a request: what is hashed, sent and cached."""
    return {
        "model": request.model,
        "messages": [{"role": m.role, "content": m.content} for m in request.messages],
        "temperature": float(request.temperature),
        "max_tokens": int(request.max_tokens),
    }


# The C string encoder that `json.dumps(..., ensure_ascii=False)` uses.
_encode_str = json.encoder.encode_basestring
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # `json`'s spellings


def canonical_request(request: ChatRequest) -> str:
    """Canonical JSON form of a request: sorted keys, no insignificant
    whitespace, floats in shortest round-trip decimal form. It is assembled
    directly from the fields and equals `json.dumps(_request_payload(request),
    sort_keys=True, separators=(",", ":"), ensure_ascii=False)`.

    Operational knobs (timeout, retry policy, endpoint) are deliberately not
    part of the canonical form so they never invalidate caches.
    """
    enc = _encode_str
    messages = ",".join([f'{{"content":{enc(m.content)},"role":{enc(m.role)}}}' for m in request.messages])
    temperature = repr(float(request.temperature))
    temperature = _NONFINITE.get(temperature, temperature)
    return (
        f'{{"max_tokens":{int(request.max_tokens)},"messages":[{messages}],'
        f'"model":{enc(request.model)},"temperature":{temperature}}}'
    )


def cache_key(request: ChatRequest) -> str:
    """SHA-256 digest (64 hex chars) of the canonical request form."""
    return request.digest


@dataclass(frozen=True)
class RetryPolicy:
    """Up to `attempts` tries on 429/5xx/transport errors, backoff with full
    jitter whose window doubles each try."""

    attempts: int = 5
    base_delay: float = 1.0

    def delay(self, retry_index: int) -> float:
        return random.uniform(0.0, self.base_delay * 2**retry_index)

    @property
    def longest_delay(self) -> float:
        """Top of the jitter window before the last try."""
        return self.base_delay * 2 ** (self.attempts - 2)


def _is_retryable(exc: GatewayError) -> bool:
    if isinstance(exc, TransportError):
        return True
    if isinstance(exc, ApiError):
        return exc.status == 429 or 500 <= exc.status < 600
    return False


def parse_retry_after(value: str | None) -> float | None:
    """Seconds from a `Retry-After` header in its delta-seconds form
    (RFC 9110 §10.2.3); None for an absent header, an HTTP-date or junk."""
    value = (value or "").strip()
    return float(value) if value.isascii() and value.isdigit() else None


class _RefuseRedirect(urllib.request.HTTPRedirectHandler):
    def redirect_request(self, *args):
        return None  # the 3xx reaches the caller as an HTTPError


class HttpTransport:
    """OpenAI-compatible chat-completions wire format over stdlib `urllib`:
    one connection per call, proxies from `http(s)_proxy`/`no_proxy`, TLS
    verified against the system CA store. Redirects are not followed, so
    the API key goes to the configured endpoint only and a 3xx is an
    ApiError."""

    def __init__(self):
        self._opener = urllib.request.build_opener(_RefuseRedirect)

    def send(self, model: ModelSpec, request: ChatRequest) -> ChatResponse:
        body = json.dumps(_request_payload(request), allow_nan=False).encode("utf-8")
        wire = urllib.request.Request(
            model.endpoint_url, data=body, headers={"Content-Type": "application/json"}, method="POST"
        )
        key = os.environ.get(model.api_key_env, "") if model.api_key_env else ""
        if key:
            wire.add_unredirected_header("Authorization", f"Bearer {key}")  # never copied into a redirect
        try:
            with self._opener.open(wire, timeout=model.timeout) as resp:
                status, raw = resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            try:
                text = exc.read().decode("utf-8", errors="replace")
            except (http.client.HTTPException, OSError):
                text = ""  # the status alone still classifies the error
            finally:
                exc.close()
            retry_after = parse_retry_after(exc.headers.get("Retry-After") if exc.headers else None)
            raise ApiError(exc.code, text, retry_after) from exc
        except (urllib.error.URLError, http.client.HTTPException, OSError) as exc:
            raise TransportError(str(exc)) from exc
        try:
            data = json.loads(raw)
            choice = data["choices"][0]
            text = choice["message"]["content"]
            finish = choice.get("finish_reason")
            usage = data.get("usage")
            return ChatResponse(text="" if text is None else text,
                                finish_reason="stop" if finish in (None, "") else finish,
                                token_usage={} if usage is None else usage)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ApiError(status, raw.decode("utf-8", errors="replace")) from exc


class MockTransport:
    """Offline transport scripted by a transcript of prompt/response pairs.

    Transcript lines are JSON objects holding `response_text` plus either
    `prompt_digest` (a request cache key) or `prompt_text` (matched against
    the last user message). Lookup tries the digest first.
    """

    def __init__(
        self,
        by_digest: Mapping[str, str] | None = None,
        by_prompt: Mapping[str, str] | None = None,
        transcript: tuple[str | Path, bytes] | None = None,
    ):
        self._by_digest = dict(by_digest or {})
        self._by_prompt = dict(by_prompt or {})
        # (path, bytes) of a transcript file, parsed into the maps at the first send
        self._transcript = transcript
        self._calls = 0
        self._lock = threading.Lock()

    @classmethod
    def load(cls, path: str | Path) -> "MockTransport":
        """A transport over the transcript file at `path`. The file is read
        here, once, so a missing or unreadable one fails at once; those bytes
        are parsed at the first send, so a run that sends nothing never parses
        them. They stay pending until they parse, so a malformed line raises
        the same FormatError from every send."""
        with open(path, "rb") as fh:
            return cls(transcript=(path, fh.read()))

    def _parse(self, path: str | Path, data: bytes) -> None:
        for line_no, obj in read_jsonl(path, data):
            if not isinstance(obj, dict) or "response_text" not in obj:
                raise FormatError(f"no response_text in transcript {path}", line_no)
            keys = ("response_text", "prompt_digest", "prompt_text")
            check_row(obj, {key: (str,) for key in keys if key in obj}, path, line_no)
            if "prompt_digest" in obj:
                self._by_digest[obj["prompt_digest"]] = obj["response_text"]
            elif "prompt_text" in obj:
                self._by_prompt[obj["prompt_text"]] = obj["response_text"]
            else:
                raise FormatError(f"no prompt_digest or prompt_text in {path}", line_no)

    @property
    def calls(self) -> int:
        with self._lock:
            return self._calls

    def send(self, model: ModelSpec, request: ChatRequest) -> ChatResponse:
        with self._lock:
            self._calls += 1
            if self._transcript is not None:
                self._parse(*self._transcript)
                self._transcript = None
        digest = request.digest
        if digest in self._by_digest:
            return ChatResponse(text=self._by_digest[digest])
        last_user = next((m.content for m in reversed(request.messages) if m.role == "user"), None)
        if last_user is not None and last_user in self._by_prompt:
            return ChatResponse(text=self._by_prompt[last_user])
        raise TranscriptMiss(f"no transcript entry for digest {digest[:12]}…")


def write_transcript(path: str | Path, entries: Iterable[tuple[str, str]]) -> Path:
    """Write a mock transcript file from (prompt_text, response_text) pairs."""
    return write_jsonl(
        path, ({"prompt_text": prompt, "response_text": response} for prompt, response in entries)
    )


class Gateway:
    """Shared chat-completion client.

    Responses are cached one file per request digest under
    `<cache_dir>/<first 2 hex>/<digest>.json`; writes go to a temp file and
    are renamed into place, so concurrent workers never see torn entries.
    Identical digests imply identical requests, which makes last-writer-wins
    safe. `map` works its items on the calling thread and adds a worker
    thread for each request that must be sent, up to `max_in_flight`
    workers in all, so cache hits never wait on a thread handoff. Every
    threaded caller in the package goes through it, so `max_in_flight` is
    the one bound on requests in flight.

    Concurrent misses on one digest are sent once: the first caller (the
    leader) sends and writes the cache, the others wait for its exchange or
    its error. A waiting caller counts as a cache hit: it gets what a cache
    read right after the leader's write returns, `cache_hit=True` and the
    leader's `retry_count`.
    """

    def __init__(
        self,
        cache_dir: str | Path,
        transport=None,
        retry: RetryPolicy = RetryPolicy(),
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        sleep=time.sleep,
    ):
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._root = os.fspath(self.cache_dir)
        self.transport = transport if transport is not None else HttpTransport()
        self.retry = retry
        self.max_in_flight = max_in_flight
        self._sleep = sleep
        self._flights: dict[str, Future] = {}
        self._flights_lock = threading.Lock()
        self._local = threading.local()

    def complete(self, model: ModelSpec, messages: Sequence[Message]) -> ChatExchange:
        """Return the cached exchange for this request, or perform the call.

        Raises TransportError, ApiError, EmptyResponse, or TranscriptMiss.
        """
        request = self.build_request(model, messages)
        digest = request.digest
        cached = self._read_cache(request)
        if cached is not None:
            return cached
        with self._flights_lock:
            flight = self._flights.get(digest)
            leader = flight is None
            if leader:
                flight = self._flights[digest] = Future()
        if not leader:
            return replace(flight.result(), cache_hit=True)
        try:
            # A leader that finished between our cache read and the lock has
            # already written the entry and left the table: read once more.
            exchange = self._read_cache(request)
            if exchange is None:
                grow = getattr(self._local, "grow", None)  # set by `map` on its workers
                if grow is not None:
                    grow()
                response, retries = self._send_with_retry(model, request)
                self._write_cache(request, response, retries)
                exchange = ChatExchange(request, response, digest, retry_count=retries)
            flight.set_result(exchange)
            return exchange
        except BaseException as exc:
            flight.set_exception(exc)
            raise
        finally:
            with self._flights_lock:
                del self._flights[digest]

    def map(self, fn: Callable, items: Iterable) -> list:
        """`fn(item)` for every item, in item order. The calling thread works
        through the items; each request that `complete` must send adds a
        worker thread, up to `max_in_flight` workers in all, so a fully
        cached map runs on one thread. A GatewayError that `fn` raises
        becomes that item's result; any other exception stops the workers
        from starting new items and is raised once they have joined."""
        items = list(items)
        results: list = [None] * len(items)
        lock, threads, failures = threading.Lock(), [], []
        cursor = 0

        def work():
            nonlocal cursor
            saved, self._local.grow = getattr(self._local, "grow", None), grow
            try:
                while True:
                    with lock:
                        if cursor >= len(items) or failures:
                            return
                        i, cursor = cursor, cursor + 1
                    try:
                        results[i] = fn(items[i])
                    except GatewayError as exc:
                        results[i] = exc
            except BaseException as exc:
                failures.append(exc)
            finally:
                self._local.grow = saved

        def grow():
            with lock:
                if cursor < len(items) and not failures and len(threads) + 1 < self.max_in_flight:
                    thread = threading.Thread(target=work)
                    thread.start()
                    threads.append(thread)

        try:
            work()
        finally:
            for thread in threads:  # a worker appends before it ends
                thread.join()
            grow = None  # `work` and `grow` refer to each other: break the cycle
        if failures:
            raise failures[0]
        return results

    @staticmethod
    def build_request(model: ModelSpec, messages: Sequence[Message]) -> ChatRequest:
        messages = tuple(messages)
        if not messages:
            raise ValueError("messages must be nonempty")
        return ChatRequest(
            model=model.name,
            messages=messages,
            temperature=model.temperature,
            max_tokens=model.max_tokens,
        )

    def cache_path(self, digest: str) -> Path:
        return Path(self._entry_path(digest))

    def _entry_path(self, digest: str) -> str:
        return f"{self._root}/{digest[:2]}/{digest}.json"

    def _send_with_retry(self, model: ModelSpec, request: ChatRequest) -> tuple[ChatResponse, int]:
        last_exc: GatewayError | None = None
        for attempt in range(self.retry.attempts):
            try:
                response = self.transport.send(model, request)
                if not response.text:
                    raise EmptyResponse(f"model {request.model} returned no text")
                return response, attempt
            except GatewayError as exc:
                if not _is_retryable(exc) or attempt + 1 >= self.retry.attempts:
                    if isinstance(exc, TransportError):
                        raise TransportError(
                            f"{exc} (after {attempt + 1} attempts)"
                        ) from exc
                    raise
                last_exc = exc
                delay = self.retry.delay(attempt)
                if isinstance(exc, ApiError) and exc.retry_after is not None:
                    if exc.retry_after > self.retry.longest_delay:
                        raise  # longer than any backoff: fail now, a rerun retries
                    delay = max(delay, exc.retry_after)  # the server's advice is a floor
                self._sleep(delay)
        raise last_exc  # pragma: no cover - loop always raises or returns

    def _read_cache(self, request: ChatRequest) -> ChatExchange | None:
        try:
            fd = os.open(self._entry_path(request.digest), _O_READ)
            try:
                raw = b"".join(iter(lambda: os.read(fd, 1 << 16), b""))
            finally:
                os.close(fd)
            # The decode `json.loads` makes of bytes, without its encoding sniff.
            entry = json.loads(raw.decode("utf-8", "surrogatepass"))
            response, retries = ChatResponse(**entry["response"]), entry["retry_count"]
        except (OSError, ValueError, KeyError, TypeError):
            return None  # missing, unreadable, corrupt or wrongly shaped entry: a miss
        if not (response.text and type(retries) is int):
            return None  # a miss too, so it is sent and rewritten
        return ChatExchange(request, response, request.digest, retries, cache_hit=True)

    def _write_cache(self, request: ChatRequest, response: ChatResponse, retries: int) -> None:
        entry = {
            "request": _request_payload(request),
            "response": vars(response),
            "timestamp": time.time(),
            "retry_count": retries,
        }
        with atomic_open(self._entry_path(request.digest)) as fh:
            fh.write(json_line(entry))
