"""Chat-completion gateway: OpenAI-compatible wire client with deterministic
content-addressed response caching, bounded concurrency, retry with full-jitter
backoff, and a scripted offline mock transport."""

from __future__ import annotations

import hashlib
import json
import random
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import requests

from .jsonio import atomic_open, json_line, read_jsonl, write_jsonl

VALID_ROLES = ("system", "user", "assistant")
DEFAULT_MAX_IN_FLIGHT = 8


class GatewayError(Exception):
    """Base class for everything the gateway can raise."""


class TransportError(GatewayError):
    """Network failure or timeout that survived all retries."""


class ApiError(GatewayError):
    """Non-2xx provider response; the body is preserved for debugging."""

    def __init__(self, status: int, body: str):
        super().__init__(f"API error {status}: {body[:200]}")
        self.status = status
        self.body = body


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

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class ChatResponse:
    text: str
    finish_reason: str = "stop"
    token_usage: Mapping[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class ChatExchange:
    """One completed round-trip, cache-addressable by its request digest."""

    request: ChatRequest
    response: ChatResponse
    digest: str
    retry_count: int = 0
    cache_hit: bool = False


def canonical_request(request: ChatRequest) -> str:
    """Canonical JSON form of a request: sorted keys, no insignificant
    whitespace, floats in shortest round-trip decimal form.

    Operational knobs (timeout, retry policy, endpoint) are deliberately not
    part of the canonical form so they never invalidate caches.
    """
    payload = {
        "model": request.model,
        "messages": [{"role": m.role, "content": m.content} for m in request.messages],
        "temperature": float(request.temperature),
        "max_tokens": int(request.max_tokens),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def cache_key(request: ChatRequest) -> str:
    """SHA-256 digest (64 hex chars) of the canonical request form."""
    return hashlib.sha256(canonical_request(request).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RetryPolicy:
    """Up to `attempts` tries on 429/5xx/transport errors, exponential
    backoff with full jitter."""

    attempts: int = 5
    base_delay: float = 1.0
    multiplier: float = 2.0

    def delay(self, retry_index: int) -> float:
        return random.uniform(0.0, self.base_delay * self.multiplier**retry_index)


def _is_retryable(exc: GatewayError) -> bool:
    if isinstance(exc, TransportError):
        return True
    if isinstance(exc, ApiError):
        return exc.status == 429 or 500 <= exc.status < 600
    return False


class HttpTransport:
    """OpenAI-compatible chat-completions wire format over HTTP."""

    def send(self, model: ModelSpec, request: ChatRequest) -> ChatResponse:
        headers = {}
        key = os.environ.get(model.api_key_env, "") if model.api_key_env else ""
        if key:
            headers["Authorization"] = f"Bearer {key}"
        payload = {
            "model": request.model,
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        try:
            resp = requests.post(
                model.endpoint_url, json=payload, headers=headers, timeout=model.timeout
            )
        except (requests.Timeout, requests.ConnectionError) as exc:
            raise TransportError(str(exc)) from exc
        if not 200 <= resp.status_code < 300:
            raise ApiError(resp.status_code, resp.text)
        try:
            data = resp.json()
            choice = data["choices"][0]
            text = choice["message"]["content"]
            finish = choice.get("finish_reason") or "stop"
            usage = data.get("usage") or {}
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ApiError(resp.status_code, resp.text) from exc
        return ChatResponse(text=text or "", finish_reason=finish, token_usage=dict(usage))


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
    ):
        self._by_digest = dict(by_digest or {})
        self._by_prompt = dict(by_prompt or {})
        self._calls = 0
        self._lock = threading.Lock()

    @classmethod
    def load(cls, path: str | Path) -> "MockTransport":
        by_digest: dict[str, str] = {}
        by_prompt: dict[str, str] = {}
        for line_no, obj in read_jsonl(path):
            if "response_text" not in obj:
                raise ValueError(f"transcript line {line_no}: missing response_text")
            if "prompt_digest" in obj:
                by_digest[obj["prompt_digest"]] = obj["response_text"]
            elif "prompt_text" in obj:
                by_prompt[obj["prompt_text"]] = obj["response_text"]
            else:
                raise ValueError(f"transcript line {line_no}: need prompt_digest or prompt_text")
        return cls(by_digest, by_prompt)

    @property
    def calls(self) -> int:
        with self._lock:
            return self._calls

    def send(self, model: ModelSpec, request: ChatRequest) -> ChatResponse:
        with self._lock:
            self._calls += 1
        digest = cache_key(request)
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
    safe. In-flight requests are bounded by a semaphore.
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
        self.transport = transport if transport is not None else HttpTransport()
        self.retry = retry
        self._slots = threading.BoundedSemaphore(max_in_flight)
        self._sleep = sleep

    def complete(self, model: ModelSpec, messages: Sequence[Message | tuple[str, str]]) -> ChatExchange:
        """Return the cached exchange for this request, or perform the call.

        Raises TransportError, ApiError, EmptyResponse, or TranscriptMiss.
        """
        request = self.build_request(model, messages)
        digest = cache_key(request)
        cached = self._read_cache(digest, request)
        if cached is not None:
            return cached
        with self._slots:
            response, retries = self._send_with_retry(model, request)
        self._write_cache(digest, request, response, retries)
        return ChatExchange(request, response, digest, retry_count=retries)

    @staticmethod
    def build_request(model: ModelSpec, messages: Sequence[Message | tuple[str, str]]) -> ChatRequest:
        normalized = tuple(
            m if isinstance(m, Message) else Message(m[0], m[1]) for m in messages
        )
        if not normalized:
            raise ValueError("messages must be nonempty")
        return ChatRequest(
            model=model.name,
            messages=normalized,
            temperature=model.temperature,
            max_tokens=model.max_tokens,
        )

    def cache_path(self, digest: str) -> Path:
        return self.cache_dir / digest[:2] / f"{digest}.json"

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
                self._sleep(self.retry.delay(attempt))
        raise last_exc  # pragma: no cover - loop always raises or returns

    def _read_cache(self, digest: str, request: ChatRequest) -> ChatExchange | None:
        path = self.cache_path(digest)
        if not path.exists():
            return None
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
            resp = entry["response"]
            response = ChatResponse(
                text=resp["text"],
                finish_reason=resp.get("finish_reason", "stop"),
                token_usage=resp.get("token_usage", {}),
            )
            retries = int(entry.get("retry_count", 0))
        except (ValueError, KeyError, OSError):
            return None  # corrupt or unreadable entry: treat as a miss
        return ChatExchange(request, response, digest, retry_count=retries, cache_hit=True)

    def _write_cache(
        self, digest: str, request: ChatRequest, response: ChatResponse, retries: int
    ) -> None:
        entry = {
            "request": json.loads(canonical_request(request)),
            "response": {
                "text": response.text,
                "finish_reason": response.finish_reason,
                "token_usage": dict(response.token_usage),
            },
            "timestamp": time.time(),
            "retry_count": retries,
        }
        with atomic_open(self.cache_path(digest)) as fh:
            fh.write(json_line(entry))
