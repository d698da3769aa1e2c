"""LLM backend implementations: live HTTP, scripted, and record/replay.

A backend is any object with one method, ``complete(request) -> str``,
returning the model's raw text; no base class is needed. Failures raise
BackendError (transport) or BackendTimeoutError; callers in the filter
absorb both, and any other exception, as fail-open. All backends here are
safe to call from multiple threads. ``LlmRequest`` is what the
filter sends; ``request_digest`` keys it in cassettes. A thread that calls a
backend may hold a model slot (``holding_slot``); ``backoff`` gives the slot
up while it waits to retry.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

from .model import Classification, ConfigError, read_input, replace_surrogates, write_whole

log = logging.getLogger(__name__)

ENV_API_KEY = "QSC_API_KEY"
ENV_API_BASE = "QSC_API_BASE"
ENV_MODEL = "QSC_MODEL"

DEFAULT_TIMEOUT = 60.0
MAX_OUTPUT_TOKENS = 4096  # sent as max_tokens; in every request digest, so fixed
RETRY_WAITS = (1.0, 4.0)  # seconds; one retry after each
MAX_RETRY_AFTER = 30.0  # seconds; a longer Retry-After ends the batch instead
MAX_RESPONSE_BYTES = 1 << 20  # an answer capped by max_tokens is tens of KB; a longer body ends the batch

# The model slot the calling thread holds, if any (see holding_slot).
_slot = threading.local()


@contextmanager
def holding_slot(slot: threading.Semaphore) -> Iterator[None]:
    """Run the body on a slot the caller already took; give it back at the end.

    While the body waits out a retry backoff, the slot is free for another
    request.
    """
    _slot.held = slot
    try:
        yield
    finally:
        _slot.held = None
        slot.release()


def backoff(seconds: float) -> None:
    """Wait ``seconds`` before a retry without holding the thread's model slot.

    The slot is taken again before the next attempt. A thread holding no
    slot, such as a backend used outside the filter, just sleeps.
    """
    slot = getattr(_slot, "held", None)
    if slot is None:
        time.sleep(seconds)
        return
    slot.release()
    try:
        time.sleep(seconds)
    finally:
        slot.acquire()


@dataclass(frozen=True)
class LlmRequest:
    model_id: str
    system_text: str
    user_text: str
    # The ids of the findings the prompt lists, in batch order. Not part of
    # the request digest: the user text already determines them.
    finding_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.user_text:
            raise ValueError("user_text must be non-empty")


class BackendError(Exception):
    """Transport-class backend failure."""


class BackendTimeoutError(BackendError):
    """The request exceeded its timeout."""


class CassetteMissError(BackendError):
    """Replay found no recorded response for the request."""


def request_digest(request: LlmRequest) -> str:
    """Cryptographic hash of the normalized request."""
    payload = json.dumps(
        {
            "model_id": request.model_id,
            "system_text": request.system_text,
            "user_text": request.user_text,
            "max_output_tokens": MAX_OUTPUT_TOKENS,
        },
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _retry_after(value: str | None) -> float:
    """The wait a Retry-After header asks for, in seconds (RFC 9110 §10.2.3).

    The value is delay-seconds or an HTTP-date; a date in the past asks for
    no wait, and a missing or unparseable value is ignored (0).
    """
    value = (value or "").strip()
    if value.isascii() and value.isdigit():
        return float(value)  # inf for an absurd number of digits, never an error
    # Imported here, like the HTTP client, to keep them out of every run's set-up.
    from datetime import timezone
    from email.utils import parsedate_to_datetime

    try:
        date = parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return 0.0
    if date.tzinfo is None:  # "-0000" and asctime dates; HTTP dates are in GMT
        date = date.replace(tzinfo=timezone.utc)
    return max(0.0, date.timestamp() - time.time())


class LiveBackend:
    """OpenAI-compatible chat-completion client.

    Credentials come from the environment (QSC_API_KEY bearer token,
    QSC_API_BASE endpoint, QSC_MODEL default model); construction fails when
    any of the three is missing. An answer whose body is still arriving
    ``timeout`` seconds after its attempt began times the call out.
    Transient transport failures (connection errors, 429, 5xx) are retried
    once after each of the RETRY_WAITS (1s, then 4s); timeouts, bodies
    over MAX_RESPONSE_BYTES and malformed output are never retried. A 429 or
    503 may ask for a longer wait with Retry-After; one over MAX_RETRY_AFTER
    fails the call at once.
    """

    def __init__(
        self,
        api_base: str | None = None,
        api_key: str | None = None,
        model_id: str | None = None,
        timeout: float = DEFAULT_TIMEOUT,
    ):
        self.api_base = (api_base or os.environ.get(ENV_API_BASE, "")).rstrip("/")
        self.api_key = api_key or os.environ.get(ENV_API_KEY, "")
        self.model_id = model_id or os.environ.get(ENV_MODEL, "")
        self.timeout = timeout
        if not self.api_key:
            raise ConfigError(f"{ENV_API_KEY} is not set (bearer token required)")
        if not self.api_base:
            raise ConfigError(f"{ENV_API_BASE} is not set (endpoint URL required)")
        if not self.model_id:
            raise ConfigError(f"{ENV_MODEL} is not set and no model was given")
        # Imported here, not at module level, so only a run that builds a live
        # backend loads the HTTP stack; building it is part of set-up.
        import urllib.request

        if urllib.parse.urlsplit(self.api_base).scheme not in ("http", "https"):
            raise ConfigError(f"{ENV_API_BASE} must be an http(s) URL, got {self.api_base!r}")
        self._url = self.api_base.removesuffix("/chat/completions") + "/chat/completions"
        self._headers = {"Authorization": f"Bearer {self.api_key}", "Content-Type": "application/json"}
        # No redirect or error handler: every status is the answer; the token goes to no other host.
        self._opener = urllib.request.OpenerDirector()
        for handler in (urllib.request.ProxyHandler, urllib.request.HTTPHandler, urllib.request.HTTPSHandler):
            self._opener.add_handler(handler())

    def _send(self, data: bytes) -> tuple[int, Mapping[str, str], bytes]:
        """One attempt's status, headers and body; a timeout anywhere is BackendTimeoutError.

        Connecting, sending and each header read may wait ``timeout`` seconds;
        the body is read in chunks, each waiting only until ``timeout`` seconds
        after the attempt began.
        """
        from http.client import HTTPException
        from urllib.request import Request

        deadline = time.monotonic() + self.timeout
        try:
            with self._opener.open(Request(self._url, data, self._headers), timeout=self.timeout) as answer:
                # CPython's socket file keeps its socket in _sock; without it, reads wait `timeout` each.
                sock = getattr(getattr(answer.fp, "raw", None), "_sock", None)
                body = bytearray()
                while (left := deadline - time.monotonic()) > 0:
                    if sock is not None:
                        sock.settimeout(left)
                    if not (chunk := answer.read1(MAX_RESPONSE_BYTES + 1 - len(body))):
                        break  # the end, or read1(0) once past the cap
                    body += chunk
                else:
                    raise TimeoutError
                return answer.status, answer.headers, bytes(body)
        except (OSError, HTTPException) as exc:
            if isinstance(getattr(exc, "reason", exc), TimeoutError):  # a URLError wraps the cause
                raise BackendTimeoutError(f"request timed out after {self.timeout}s") from exc
            raise BackendError(f"transport error: {exc}") from exc

    def complete(self, request: LlmRequest) -> str:
        body = {
            "model": request.model_id or self.model_id,
            "messages": [
                {"role": "system", "content": request.system_text},
                {"role": "user", "content": request.user_text},
            ],
            "temperature": 0,
            "max_tokens": MAX_OUTPUT_TOKENS,
        }
        data = json.dumps(body).encode("utf-8")
        retry_after = 0.0
        for attempt, wait in enumerate((None, *RETRY_WAITS)):
            if wait is not None:
                backoff(max(retry_after, wait))
                retry_after = 0.0
            try:
                status, headers, payload = self._send(data)
            except BackendTimeoutError:
                raise
            except BackendError as exc:
                last_error = exc
                log.warning("attempt %d/%d failed: %s", attempt + 1, len(RETRY_WAITS) + 1, exc)
                continue
            if len(payload) > MAX_RESPONSE_BYTES:
                raise BackendError(f"response body over the {MAX_RESPONSE_BYTES}-byte cap")
            if status == 429 or status >= 500:
                last_error = BackendError(
                    f"transient HTTP {status}: {payload[:200].decode(errors='replace')}"
                )
                log.warning("attempt %d/%d: %s", attempt + 1, len(RETRY_WAITS) + 1, last_error)
                if status in (429, 503):
                    retry_after = _retry_after(headers.get("Retry-After"))
                    if retry_after > MAX_RETRY_AFTER:
                        raise BackendError(
                            f"HTTP {status} with Retry-After "
                            f"{retry_after:.0f}s, over the {MAX_RETRY_AFTER:.0f}s cap"
                        )
                continue
            if status != 200:
                raise BackendError(f"HTTP {status}: {payload[:500].decode(errors='replace')}")
            try:
                content = json.loads(payload)["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise BackendError(f"unexpected completion envelope: {exc}") from exc
            if not isinstance(content, str):
                raise BackendError("unexpected completion envelope: content is not text")
            return replace_surrogates(content)
        raise last_error  # set by the last attempt, which failed in a way worth retrying


class ScriptedBackend:
    """Returns canned verdicts keyed by finding id.

    Finding ids are taken from the request, never from its text, so source
    code quoted in the prompt cannot add ids. Ids without a
    scripted verdict fall back to ``default`` when given, and are omitted
    from the response otherwise (the filter then retains them fail-open).
    Read-only after construction, hence safe under concurrent calls.
    """

    def __init__(
        self,
        verdicts: Mapping[str, object] | None = None,
        default: Classification | str | None = None,
    ):
        normalized: dict[str, tuple[Classification, str]] = {}
        for fid, value in (verdicts or {}).items():
            pair = value if isinstance(value, (tuple, list)) else (value, "scripted verdict")
            try:
                classification, rationale = pair
                if not isinstance(rationale, str):
                    raise ValueError("the rationale is not text")
                normalized[fid] = (Classification(classification), rationale)
            except ValueError:
                raise ConfigError(
                    f"verdict for {fid!r} is not a classification or a "
                    f"[classification, rationale] pair: {value!r}"
                ) from None
        self._verdicts = normalized
        self._default = Classification(default) if default is not None else None

    def complete(self, request: LlmRequest) -> str:
        results = []
        for fid in request.finding_ids:
            entry = self._verdicts.get(fid)
            if entry is None:
                if self._default is None:
                    continue
                entry = (self._default, "scripted default")
            classification, rationale = entry
            results.append(
                {
                    "finding_id": fid,
                    "classification": classification.value,
                    "rationale": rationale,
                }
            )
        return json.dumps({"results": results})


def _recorded_responses(text: str) -> dict[str, str]:
    """Each response text of a cassette document by its request digest."""
    records = json.loads(text)
    if not isinstance(records, list):
        raise ValueError("must be a JSON array of records")
    responses: dict[str, str] = {}
    for record in records:
        if (
            not isinstance(record, dict)
            or not isinstance(record.get("request_digest"), str)
            or not isinstance(record.get("response_text"), str)
        ):
            raise ValueError("malformed record")
        responses[record["request_digest"]] = record["response_text"]
    return responses


class ReplayBackend:
    """Replays recorded responses byte for byte; a cache miss fails the call."""

    def __init__(self, cassette_path: Path | str):
        self._responses = read_input("cassette", cassette_path, _recorded_responses)

    def complete(self, request: LlmRequest) -> str:
        digest = request_digest(request)
        try:
            return self._responses[digest]
        except KeyError:
            raise CassetteMissError(
                f"no recorded response for request {digest[:12]}... under model "
                f"{request.model_id!r}; a cassette replays only under the model it was "
                f"recorded with"
            ) from None


class CassetteRecorder:
    """Wraps another backend and persists every successful exchange.

    Records accumulate in memory and are written by ``save()``, sorted by
    digest so the cassette file is independent of batch completion order.
    """

    def __init__(self, inner, cassette_path: Path | str):
        self._inner = inner
        self._path = Path(cassette_path)
        self._records: dict[str, dict[str, str]] = {}
        self._lock = threading.Lock()

    def complete(self, request: LlmRequest) -> str:
        text = self._inner.complete(request)
        digest = request_digest(request)
        with self._lock:
            self._records[digest] = {
                "request_digest": digest,
                "request_user_text": request.user_text,
                "response_text": text,
            }
        return text

    @property
    def record_count(self) -> int:
        with self._lock:
            return len(self._records)

    def save(self) -> None:
        """Write the cassette whole or not at all: a failed save keeps the old file."""
        with self._lock:
            records = [self._records[k] for k in sorted(self._records)]
        text = json.dumps(records, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        write_whole(self._path, text.encode("utf-8"))
