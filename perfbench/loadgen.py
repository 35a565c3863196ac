"""Closed-loop load generator over one raw keep-alive socket.

Request bodies are encoded before the run; during it the caller only
writes pre-built bytes, reads the response into memory and stamps the
time, then sends the next request. Responses are checked after the
timed window, so the numbers measure the server, not the client's
parsing.
"""

from __future__ import annotations

import itertools
import socket
import time
from dataclasses import dataclass

RECV_BYTES = 1 << 16


class HttpConnection:
    """One keep-alive HTTP/1.1 connection that sends pre-encoded requests."""

    def __init__(self, port: int, timeout: float = 120.0) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._pending = b""

    def close(self) -> None:
        self.sock.close()

    def exchange(self, message: bytes) -> "tuple[int, bytes]":
        """Send one request, return ``(status, body)`` of its response."""
        self.sock.sendall(message)
        buffered = self._pending
        while b"\r\n\r\n" not in buffered:
            piece = self.sock.recv(RECV_BYTES)
            if not piece:
                raise ConnectionError("server closed the connection")
            buffered += piece
        head, _, rest = buffered.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        pieces = [rest]
        received = len(rest)
        while received < length:
            piece = self.sock.recv(max(RECV_BYTES, length - received))
            if not piece:
                raise ConnectionError("server closed the connection mid-body")
            pieces.append(piece)
            received += len(piece)
        data = b"".join(pieces)
        self._pending = data[length:]
        return status, data[:length]


def request_head(body, request_id: int) -> bytes:
    return (
        f"POST {body.path} HTTP/1.1\r\n"
        f"Host: 127.0.0.1\r\n"
        f"Content-Type: {body.content_type}\r\n"
        f"Accept: {body.accept}\r\n"
        f"Content-Length: {len(body.payload)}\r\n"
        f"X-Request-Id: {request_id}\r\n\r\n"
    ).encode("latin-1")


@dataclass
class Sample:
    request_id: int
    body_index: int
    start: float
    end: float
    status: int
    response: bytes

    @property
    def latency_ms(self) -> float:
        return (self.end - self.start) * 1000.0


class LoadGenerator:
    """One closed-loop caller: the next request goes out when the previous
    reply is in, cycling through ``bodies``."""

    def __init__(self, port: int, bodies: list) -> None:
        self.bodies = bodies
        self.connection = HttpConnection(port)
        self._ids = itertools.count(1)

    def close(self) -> None:
        self.connection.close()

    def run(self, seconds: float, max_requests: int | None = None, mark_every: int = 0,
            on_mark=None) -> "tuple[list[Sample], list[str], float, float]":
        """Send requests until ``seconds`` elapse (or ``max_requests`` were
        sent); returns samples, transport errors and the window.

        ``on_mark(requests_done)``, when given, is called between
        requests: before the first, after the last and, with
        ``mark_every`` > 0, after every ``mark_every`` requests.
        """
        samples: "list[Sample]" = []
        errors: "list[str]" = []
        start = time.perf_counter()
        deadline = start + seconds
        done = 0
        while True:
            stop = time.perf_counter() >= deadline or (
                max_requests is not None and done >= max_requests
            )
            if on_mark is not None and (stop or done == 0 or (mark_every and done % mark_every == 0)):
                on_mark(done)
            if stop:
                break
            body_index = done % len(self.bodies)
            body = self.bodies[body_index]
            request_id = next(self._ids)
            message = request_head(body, request_id) + body.payload
            sent = time.perf_counter()
            try:
                status, response = self.connection.exchange(message)
            except (OSError, ValueError) as exc:
                errors.append(f"request {request_id}: {exc}")
                break
            samples.append(Sample(request_id, body_index, sent, time.perf_counter(), status, response))
            done += 1
        end = max([start] + [sample.end for sample in samples])
        return samples, errors, start, end
