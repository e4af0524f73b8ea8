"""Closed-loop load generator: one keep-alive HTTP connection, one thread.

The client sends its next request only after the previous reply has been
read, the way a browsing user waits for the table before clicking again.
It keeps ``workload.width`` users active and serves them round-robin, one
step each: a mutating ``POST .../actions`` followed by the page read
``GET .../etable?limit=50``. Slot ``j`` starts at pass ``j``, so with
several active users their script positions are staggered. The caller
drives it one step at a time (:meth:`Client.step`), so warm-up, the timed
window and the reads of ``/v1/stats`` between them run in one thread.
"""

from __future__ import annotations

import json
import socket
import time
from dataclasses import dataclass
from typing import Any, Iterator

from workloads import Action, Workload

PAGE = 50  # rows a Figure 9 client renders per page


class HttpConnection:
    """A minimal HTTP/1.1 keep-alive client; one request at a time.

    Each request goes out in a single ``sendall``. Replies must carry a
    Content-Length (both frontends always send one). A transport error
    closes the socket; the next request reconnects.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host, self.port, self.timeout = host, port, timeout
        self._sock: socket.socket | None = None
        self._buffer = b""

    def request(self, method: str, path: str,
                body: Any = None) -> tuple[int, bytes, int]:
        """(status, body, bytes received) for one request."""
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        head = (f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n")
        try:
            if self._sock is None:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout)
                self._buffer = b""
            self._sock.sendall(head.encode("ascii") + payload)
            return self._read_response()
        except (OSError, ValueError):
            self.close()
            raise

    def _fill(self) -> None:
        assert self._sock is not None
        chunk = self._sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk

    def _read_response(self) -> tuple[int, bytes, int]:
        while (end := self._buffer.find(b"\r\n\r\n")) < 0:
            self._fill()
        lines = self._buffer[:end].decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length, close = None, False
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name, value = name.strip().lower(), value.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection":
                close = value == "close"
        if length is None:
            raise ValueError("reply has no Content-Length")
        total = end + 4 + length
        while len(self._buffer) < total:
            self._fill()
        body = self._buffer[end + 4:total]
        self._buffer = self._buffer[total:]
        if close:
            self.close()
        return status, body, total

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None


@dataclass
class Record:
    """One request as the client saw it."""

    session: str
    seq: int | None  # per-session order of requests reaching handle_request
    start: float
    end: float
    ok: bool  # 2xx reply (no transport error)
    wire: int  # reply bytes received, headers included


@dataclass
class _User:
    session: str
    script: list[Action]
    position: int = 0
    seq: int = 0


class Client:
    """The closed loop over this workload's stream of users."""

    def __init__(self, workload: Workload, seed: int, host: str,
                 port: int) -> None:
        self.records: list[Record] = []
        # (action record index, read record index) per step.
        self.steps: list[tuple[int, int]] = []
        # Actions the server acknowledged, per sampled session.
        self.applied: dict[str, list[Action]] = {}
        self.sampled = workload.sampled(seed)
        self._http = HttpConnection(host, port)
        self._loop = self._stepper(workload.users(seed), workload.width)

    def step(self) -> None:
        """Send the next step, and the create or delete around it."""
        next(self._loop)

    def close(self) -> None:
        self._http.close()

    def _stepper(self, users: Iterator[tuple[str, list[Action]]],
                 width: int) -> Iterator[None]:
        slots: list[_User | None] = [None] * width
        passes = 0
        while True:
            for slot in range(min(width, passes + 1)):
                user = slots[slot]
                if user is None:
                    user = slots[slot] = _User(*next(users))
                    self._send(user, "create", "POST", "/v1/sessions",
                               {"session_id": user.session})
                self._step(user)
                if user.position == len(user.script):
                    if user.session not in self.sampled:
                        self._send(user, "delete", "DELETE",
                                   f"/v1/sessions/{user.session}")
                    slots[slot] = None
                yield
            passes += 1

    def _step(self, user: _User) -> None:
        action, params = user.script[user.position]
        user.position += 1
        base = f"/v1/sessions/{user.session}"
        acted = self._send(user, "action", "POST", f"{base}/actions",
                           {"action": action, "params": params})
        self._send(user, "read", "GET", f"{base}/etable?limit={PAGE}")
        self.steps.append((len(self.records) - 2, len(self.records) - 1))
        if acted and user.session in self.sampled:
            self.applied.setdefault(user.session, []).append((action, params))

    def _send(self, user: _User, kind: str, method: str, path: str,
              body: Any = None) -> bool:
        seq = None
        if kind != "delete":
            seq, user.seq = user.seq, user.seq + 1
        start = time.perf_counter()
        try:
            status, _, wire = self._http.request(method, path, body)
            ok = 200 <= status < 300
        except (OSError, ValueError):
            ok, wire = False, 0
        self.records.append(Record(user.session, seq, start,
                                   time.perf_counter(), ok, wire))
        return ok
