"""A stdlib-asyncio HTTP/1.1 front end for :class:`ServiceApp`.

No web framework: ``asyncio.start_server`` plus a small, strict HTTP/1.1
reader.  The server supports exactly what the service needs — methods
with ``Content-Length`` bodies, percent-encoded query strings, and
keep-alive — and turns every transport-level defect (malformed request
line, truncated body, client disconnect mid-upload) into a clean
connection close with *nothing* persisted: the WAL entry for an upload
is only written after the full body arrived and decoded.

Oversized uploads are refused before the body is buffered (413 from the
declared ``Content-Length``), so a hostile client cannot balloon memory
past ``capacity x max_body_bytes`` + one rejected header.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Tuple
from urllib.parse import unquote, unquote_plus

from repro.service.api import Request, Response, ServiceApp

__all__ = ["ServiceServer", "parse_qs", "serve"]

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}

_MAX_HEADER_BYTES = 16384


def parse_qs(raw: str) -> Dict[str, List[str]]:
    """Decode a query string into a multi-value dict (order-preserving)."""
    params: Dict[str, List[str]] = {}
    for piece in raw.split("&"):
        if not piece:
            continue
        key, sep, value = piece.partition("=")
        params.setdefault(unquote_plus(key), []).append(unquote_plus(value))
    return params


class _BadRequest(Exception):
    def __init__(self, status: int, message: str):
        self.status = status
        self.message = message
        super().__init__(message)


class ServiceServer:
    """One listening socket over one :class:`ServiceApp`."""

    def __init__(
        self,
        app: ServiceApp,
        host: str = "127.0.0.1",
        port: int = 0,
        body_read_timeout: float = 30.0,
    ):
        self.app = app
        self.host = host
        self.port = port
        self.body_read_timeout = float(body_read_timeout)
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> Tuple[str, int]:
        """Recover the WAL, start the workers, bind, return (host, port)."""
        await self.app.startup()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def stop(self, drain: bool = True) -> None:
        """Close the socket and shut the app down (optionally draining)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.app.shutdown(drain=drain)

    async def serve_forever(self) -> None:
        """Serve until cancelled; ``start()`` must have been awaited."""
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # -- the wire ------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request, keep_alive = await self._read_request(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    # Client went away (possibly mid-body).  Nothing was
                    # accepted, so nothing needs cleaning up.
                    return
                except asyncio.TimeoutError:
                    await self._write_error(writer, 408, "body read timed out")
                    return
                except _BadRequest as exc:
                    await self._write_error(writer, exc.status, exc.message)
                    return
                if request is None:
                    return  # clean EOF between requests
                response = await self.app.handle(request)
                try:
                    await self._write_response(writer, response, keep_alive)
                except ConnectionError:
                    return
                if not keep_alive:
                    return
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[Optional[Request], bool]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
            # Request arrival on the app's uptime clock — the trace's
            # http.request span starts here, covering the body read.
            t_recv = self.app.uptime()
        except asyncio.LimitOverrunError:
            raise _BadRequest(400, "request head too large") from None
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None, False  # clean close between requests
            raise
        if len(head) > _MAX_HEADER_BYTES:
            raise _BadRequest(400, "request head too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _BadRequest(400, "malformed request line %r" % lines[0][:200])
        method, target, version = parts
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise _BadRequest(400, "malformed header line %r" % line[:200])
            headers[name.strip().lower()] = value.strip()
        path, _, raw_query = target.partition("?")
        if "chunked" in headers.get("transfer-encoding", "").lower():
            raise _BadRequest(400, "chunked transfer encoding not supported")
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _BadRequest(400, "bad Content-Length") from None
        if length < 0:
            raise _BadRequest(400, "bad Content-Length")
        if length > self.app.max_body_bytes:
            # Refuse before buffering: the declared size already breaks
            # the contract, so the body is never read.
            raise _BadRequest(
                413,
                "declared body of %d bytes exceeds the %d-byte limit"
                % (length, self.app.max_body_bytes),
            )
        body = b""
        if length:
            body = await asyncio.wait_for(
                reader.readexactly(length), timeout=self.body_read_timeout
            )
        keep_alive = (
            version != "HTTP/1.0"
            and headers.get("connection", "").lower() != "close"
        )
        # Percent-decode the path with unquote (NOT unquote_plus): "+"
        # only means space in query strings, never in path segments.
        request = Request(
            method=method.upper(),
            path=unquote(path),
            params=parse_qs(raw_query),
            headers=headers,
            body=body,
            t_recv=t_recv,
        )
        return request, keep_alive

    async def _write_response(
        self, writer: asyncio.StreamWriter, response: Response, keep_alive: bool
    ) -> None:
        reason = _REASONS.get(response.status, "Unknown")
        head = [
            "HTTP/1.1 %d %s" % (response.status, reason),
            "Content-Type: %s" % response.content_type,
            "Content-Length: %d" % len(response.body),
            "Connection: %s" % ("keep-alive" if keep_alive else "close"),
        ]
        head.extend("%s: %s" % (k, v) for k, v in sorted(response.headers.items()))
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(response.body)
        await writer.drain()

    async def _write_error(
        self, writer: asyncio.StreamWriter, status: int, message: str
    ) -> None:
        body = (
            '{"error": {"message": %s, "type": "BadRequest"}}\n'
            % _json_string(message)
        ).encode("utf-8")
        try:
            await self._write_response(
                writer, Response(status, body), keep_alive=False
            )
        except ConnectionError:
            pass


def _json_string(text: str) -> str:
    import json

    return json.dumps(text)


async def _serve_async(
    store_root: str,
    host: str,
    port: int,
    queue_capacity: int,
    max_body_bytes: int,
    query_jobs: int,
    commit_workers: int,
    access_log: Optional[str] = None,
) -> None:
    app = ServiceApp(
        store_root,
        queue_capacity=queue_capacity,
        max_body_bytes=max_body_bytes,
        query_jobs=query_jobs,
        commit_workers=commit_workers,
        access_log=access_log,
    )
    server = ServiceServer(app, host=host, port=port)
    bound_host, bound_port = await server.start()
    print("repro service listening on http://%s:%d" % (bound_host, bound_port), flush=True)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()


def serve(
    store_root: str,
    host: str = "127.0.0.1",
    port: int = 8080,
    queue_capacity: int = 256,
    max_body_bytes: int = 32 << 20,
    query_jobs: int = 1,
    commit_workers: int = 2,
    access_log: Optional[str] = None,
) -> None:
    """Blocking entry point for ``repro service serve``."""
    try:
        asyncio.run(
            _serve_async(
                store_root,
                host,
                port,
                queue_capacity,
                max_body_bytes,
                query_jobs,
                commit_workers,
                access_log=access_log,
            )
        )
    except KeyboardInterrupt:
        pass
