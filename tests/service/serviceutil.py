"""Shared helpers for the TraceBank-service tests.

``ServerThread`` hosts a real :class:`ServiceServer` (real sockets, real
event loop) on a background thread so synchronous test code can speak
plain HTTP at it; ``http_request`` is the matching one-shot client.
``raw_socket`` hands back a connected plain socket for the fault tests
that need to misbehave at the transport level (half-sent bodies, abrupt
disconnects).
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import threading
from typing import Any, Dict, Optional, Tuple

from repro.service.api import ServiceApp
from repro.service.server import ServiceServer


class ServerThread:
    """One live service on a daemon thread; use as a context manager."""

    def __init__(self, store_root, **app_kwargs):
        self.store_root = str(store_root)
        self.app_kwargs = app_kwargs
        self.app: Optional[ServiceApp] = None
        self.host = ""
        self.port = 0
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self.loop = asyncio.get_running_loop()
        self.app = ServiceApp(self.store_root, **self.app_kwargs)
        server = ServiceServer(self.app, port=0)
        self.host, self.port = await server.start()
        self._stop = asyncio.Event()
        self._started.set()
        await self._stop.wait()
        await server.stop(drain=False)

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        assert self._started.wait(timeout=10), "server failed to start"
        return self

    def __exit__(self, *exc) -> None:
        assert self.loop is not None and self._stop is not None
        self.loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10)

    def run_coro(self, coro) -> Any:
        """Run a coroutine on the server's loop from test code."""
        assert self.loop is not None
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout=10)

    def call_soon(self, fn, *args) -> None:
        assert self.loop is not None
        self.loop.call_soon_threadsafe(fn, *args)


def http_request(
    host: str,
    port: int,
    method: str,
    target: str,
    body: bytes = b"",
    timeout: float = 10.0,
    headers: Optional[Dict[str, str]] = None,
) -> Tuple[int, Dict[str, str], bytes]:
    """One HTTP round trip -> (status, lowercase headers, body bytes)."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    send_headers = {"Content-Length": str(len(body))}
    send_headers.update(headers or {})
    try:
        conn.request(method, target, body=body or None, headers=send_headers)
        resp = conn.getresponse()
        payload = resp.read()
        headers = {k.lower(): v for k, v in resp.getheaders()}
        return resp.status, headers, payload
    finally:
        conn.close()


def http_json(
    host: str, port: int, method: str, target: str, body: bytes = b""
) -> Tuple[int, Dict[str, str], Any]:
    status, headers, payload = http_request(host, port, method, target, body)
    return status, headers, json.loads(payload.decode("utf-8"))


def raw_socket(host: str, port: int, timeout: float = 10.0) -> socket.socket:
    sock = socket.create_connection((host, port), timeout=timeout)
    return sock
