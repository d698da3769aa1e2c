"""The benchmark's fake reviewer model and its loopback HTTP stub.

The model is deterministic per request content: verdicts and faults are
keyed on finding id, and latency depends on the prompt and on a jitter
seeded from (seed, request digest), never on arrival order or thread.

Latency = (BASE_S + PER_KIB_S * prompt KiB + PER_FINDING_S * findings)
          * jitter, with jitter uniform in [JITTER_LO, JITTER_HI].
"""

from __future__ import annotations

import hashlib
import json
import re
import select
import socket
import threading
import time

BASE_S = 0.040
PER_KIB_S = 0.001
PER_FINDING_S = 0.004
JITTER_LO = 0.9
JITTER_HI = 1.1
FALSE_POSITIVE_SHARE = 0.35

MALFORMED_TEXT = "I am unable to review these findings right now."

# How the model reads finding ids out of a prompt: the findings block puts
# each id on its own "### Finding <id>" line.
_FINDING_LINE = re.compile(r"^### Finding (\S+)\s*$", re.MULTILINE)

# Captured at import so that a traced process, which wraps time.sleep to
# time the program's retry backoff, does not count model time as backoff.
sleep = time.sleep


def unit_hash(*parts: object) -> float:
    """A uniform value in [0, 1) derived from the parts."""
    key = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") / 2**64


class FakeModel:
    """Answers review prompts like an OpenAI-compatible model would.

    ``verdicts`` maps finding id to classification; ids not in it get a
    verdict drawn from (seed, id). A prompt that names any id in
    ``malformed`` gets non-JSON text; ids in ``missing`` are left out of the
    answer. ``unavailable`` ids make the stub answer HTTP 503 to the first
    attempt of their request.
    """

    def __init__(self, seed: int, verdicts=None, malformed=(), missing=(), unavailable=()):
        self.seed = seed
        self.verdicts = dict(verdicts or {})
        self.malformed = frozenset(malformed)
        self.missing = frozenset(missing)
        self.unavailable = frozenset(unavailable)

    @classmethod
    def from_spec(cls, spec: dict) -> "FakeModel":
        return cls(
            spec["seed"],
            spec.get("verdicts"),
            spec.get("malformed", ()),
            spec.get("missing", ()),
            spec.get("unavailable", ()),
        )

    def spec(self) -> dict:
        return {
            "seed": self.seed,
            "verdicts": self.verdicts,
            "malformed": sorted(self.malformed),
            "missing": sorted(self.missing),
            "unavailable": sorted(self.unavailable),
        }

    def verdict(self, finding_id: str) -> str:
        known = self.verdicts.get(finding_id)
        if known is not None:
            return known
        if unit_hash(self.seed, "verdict", finding_id) < FALSE_POSITIVE_SHARE:
            return "false_positive"
        return "true_positive"

    def answer(self, system_text: str, user_text: str) -> tuple[str, float, list[str]]:
        """(response text, modelled latency in seconds, finding ids read)."""
        ids = _FINDING_LINE.findall(user_text)
        prompt = system_text.encode("utf-8") + b"\0" + user_text.encode("utf-8")
        digest = hashlib.sha256(prompt).hexdigest()
        jitter = JITTER_LO + (JITTER_HI - JITTER_LO) * unit_hash(self.seed, "jitter", digest)
        latency = (BASE_S + PER_KIB_S * len(prompt) / 1024 + PER_FINDING_S * len(ids)) * jitter
        if self.malformed.intersection(ids):
            return MALFORMED_TEXT, latency, ids
        results = [
            {
                "finding_id": fid,
                "classification": self.verdict(fid),
                "rationale": f"fake review of {fid}",
            }
            for fid in ids
            if fid not in self.missing
        ]
        return json.dumps({"results": results}), latency, ids


class Stub:
    """OpenAI-compatible ``/chat/completions`` on 127.0.0.1.

    ``workers`` threads serve one request each at a time, so no more than
    ``workers`` requests are ever in service. Between requests a keep-alive
    connection waits in a shared idle set that every free worker watches,
    so a client that is slow to close its socket holds no worker. Each
    response goes out in one send on a TCP_NODELAY socket, so keep-alive
    clients see no Nagle/delayed-ACK stall.
    """

    POLL_S = 0.2
    READ_TIMEOUT_S = 10.0

    def __init__(self, model: FakeModel, workers: int):
        self.model = model
        self._listener = socket.create_server(("127.0.0.1", 0), backlog=64)
        self._listener.setblocking(False)
        self.port = self._listener.getsockname()[1]
        # Writing to _wake interrupts the workers' select when _idle changes.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._idle: set[socket.socket] = set()
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self.reset()
        self._threads = [
            threading.Thread(target=self._serve, name=f"stub-{i}", daemon=True)
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    def reset(self) -> None:
        """Zero the counters and forget earlier attempts (one per invocation)."""
        with self._lock:
            self.connections = 0
            self.attempts = 0
            self.retries = 0
            self.service_s: list[float] = []
            self._seen: dict[str, int] = {}

    def stats(self) -> dict:
        with self._lock:
            return {
                "connections": self.connections,
                "attempts": self.attempts,
                "retries": self.retries,
                "service_s": list(self.service_s),
            }

    def close(self) -> None:
        self._stopping.set()
        self._wake_w.send(b"x")
        for thread in self._threads:
            thread.join(timeout=10)
        with self._lock:
            for conn in self._idle:
                conn.close()
            self._idle.clear()
        for sock in (self._listener, self._wake_r, self._wake_w):
            sock.close()

    def _serve(self) -> None:
        while not self._stopping.is_set():
            with self._lock:
                watched = [self._listener, self._wake_r, *self._idle]
            try:
                ready, _, _ = select.select(watched, [], [], self.POLL_S)
            except (OSError, ValueError):
                continue  # another worker closed a watched connection
            for sock in ready:
                if sock is self._wake_r:
                    try:
                        self._wake_r.recv(4096)
                    except BlockingIOError:
                        pass
                    continue
                if sock is self._listener:
                    try:
                        conn, _ = self._listener.accept()
                    except BlockingIOError:
                        continue  # another worker took it
                    conn.setblocking(True)
                    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    conn.settimeout(self.READ_TIMEOUT_S)
                    with self._lock:
                        self.connections += 1
                else:
                    with self._lock:
                        if sock not in self._idle:
                            continue  # another worker claimed it
                        self._idle.discard(sock)
                    conn = sock
                if self._serve_request(conn):
                    with self._lock:
                        self._idle.add(conn)
                    self._wake_w.send(b"x")
                else:
                    conn.close()
                break  # the idle set may have changed: select again

    def _serve_request(self, conn: socket.socket) -> bool:
        """Answer one request; True when the connection stays open."""
        try:
            buffer = b""
            while b"\r\n\r\n" not in buffer:
                chunk = conn.recv(65536)
                if not chunk:
                    return False
                buffer += chunk
            head, _, body = buffer.partition(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            headers = {}
            for line in lines[1:]:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0"))
            chunks = [body]
            received = len(body)
            while received < length:
                chunk = conn.recv(max(65536, length - received))
                if not chunk:
                    return False
                chunks.append(chunk)
                received += len(chunk)
            started = time.perf_counter()
            status, payload = self._respond(lines[0], b"".join(chunks))
            keep_alive = headers.get("connection", "").lower() != "close"
            conn.sendall(
                (
                    f"HTTP/1.1 {status}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
                ).encode("latin-1")
                + payload
            )
            with self._lock:
                self.service_s.append(time.perf_counter() - started)
            return keep_alive
        except OSError:
            return False

    def _respond(self, request_line: str, body: bytes) -> tuple[str, bytes]:
        if not request_line.startswith("POST ") or "/chat/completions" not in request_line:
            return "404 Not Found", b'{"error": "not found"}'
        try:
            messages = json.loads(body)["messages"]
            system_text = next(m["content"] for m in messages if m["role"] == "system")
            user_text = next(m["content"] for m in messages if m["role"] == "user")
        except (ValueError, KeyError, TypeError, StopIteration):
            return "400 Bad Request", b'{"error": "bad request"}'
        digest = hashlib.sha256(body).hexdigest()
        text, latency, ids = self.model.answer(system_text, user_text)
        with self._lock:
            self.attempts += 1
            attempt = self._seen.get(digest, 0) + 1
            self._seen[digest] = attempt
            self.retries += attempt > 1
            unavailable = attempt == 1 and not self.model.unavailable.isdisjoint(ids)
        if unavailable:
            return "503 Service Unavailable", b'{"error": "overloaded"}'
        sleep(latency)
        envelope = {"choices": [{"index": 0, "message": {"role": "assistant", "content": text}}]}
        return "200 OK", json.dumps(envelope).encode("utf-8")
