"""Stdlib HTTP front for :class:`~repro.serve.service.AggregatorService`.

One :class:`~http.server.ThreadingHTTPServer` hosts the seven routes of
serve mode; each connection gets a handler thread, and all of them call
into one shared :class:`AggregatorService`, which serializes kernel
access internally.  HTTP/1.1 with explicit ``Content-Length`` on every
response, so clients can keep connections alive across a whole
benchmark run.

Routes
======

==========================  ======  =========================================
path                        method  behaviour
==========================  ======  =========================================
``/register``               POST    membership handshake (wire-encoded
                                    ``registration_request`` body)
``/reports``                POST    batched report ingestion, per-report
                                    verdicts in the response (d3a batch idiom)
``/alerts``                 GET     long-poll alert stream
                                    (``?since=&timeout_s=``)
``/ledger/headers``         GET     header-chain batch with checkpoint
                                    fast-forward (``?from_height=&count=``)
``/proofs/<device>/<seq>``  GET     Merkle inclusion receipt, offline
                                    verifiable
``/metrics``                GET     Prometheus text exposition
``/healthz``                GET     liveness + world snapshot
==========================  ======  =========================================

Error mapping: :class:`~repro.errors.CodecError` and bad parameters are
400, a missing proof (:class:`~repro.errors.ChainError`) is 404, unknown
paths are 404, wrong methods are 405, anything unexpected is 500 —
always as a JSON body ``{"error": ...}``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.errors import ChainError, CodecError, ConfigError, NetworkError
from repro.serve.service import AggregatorService

# Largest request body accepted; protects the decoder from a client
# streaming an unbounded batch into memory.
_MAX_BODY_BYTES = 8 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """Routes one connection's requests into the shared service."""

    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: a response's body never waits for the client to ACK
    # its headers (Nagle against the client's delayed ACK cost ~40 ms
    # per keep-alive request).
    disable_nagle_algorithm = True
    server: "ServeHTTPServer"

    # -- plumbing --------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict[str, Any]) -> None:
        self._send(
            status,
            json.dumps(payload).encode("utf-8"),
            "application/json; charset=utf-8",
        )

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        if length < 0 or length > _MAX_BODY_BYTES:
            raise CodecError(f"request body of {length} bytes refused")
        return self.rfile.read(length) if length else b""

    def _dispatch(self, method: str) -> None:
        parts = urlsplit(self.path)
        query = {k: v[-1] for k, v in parse_qs(parts.query).items()}
        try:
            self._route(method, parts.path.rstrip("/") or "/", query)
        except (CodecError, ConfigError, ValueError) as exc:
            self._send_error_json(400, str(exc))
        except NetworkError as exc:
            # Bad device names in paths/payloads parse as AddressError.
            self._send_error_json(400, str(exc))
        except ChainError as exc:
            self._send_error_json(404, str(exc))
        except BrokenPipeError:
            pass  # client went away mid-response; nothing to answer
        except Exception as exc:  # pragma: no cover - last-resort guard
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")

    # -- routing ---------------------------------------------------------

    def _route(self, method: str, path: str, query: dict[str, str]) -> None:
        service = self.server.service
        if path == "/register":
            if method != "POST":
                return self._send_error_json(405, "POST only")
            return self._send_json(200, service.register(self._read_body()))
        if path == "/reports":
            if method != "POST":
                return self._send_error_json(405, "POST only")
            return self._send_json(200, service.ingest(self._read_body()))
        if path == "/alerts":
            if method != "GET":
                return self._send_error_json(405, "GET only")
            since = int(query.get("since", "0"))
            timeout_s = float(query["timeout_s"]) if "timeout_s" in query else None
            return self._send_json(200, service.alerts(since, timeout_s))
        if path == "/ledger/headers":
            if method != "GET":
                return self._send_error_json(405, "GET only")
            return self._send_json(
                200,
                service.ledger_headers(
                    int(query.get("from_height", "0")),
                    int(query.get("count", "64")),
                ),
            )
        if path.startswith("/proofs/"):
            if method != "GET":
                return self._send_error_json(405, "GET only")
            tail = path[len("/proofs/") :].split("/")
            if len(tail) != 2 or not tail[0]:
                return self._send_error_json(
                    404, "proof path is /proofs/<device>/<sequence>"
                )
            return self._send_json(200, service.proof(tail[0], int(tail[1])))
        if path == "/metrics":
            if method != "GET":
                return self._send_error_json(405, "GET only")
            return self._send(
                200,
                service.metrics().encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        if path == "/healthz":
            if method != "GET":
                return self._send_error_json(405, "GET only")
            return self._send_json(200, service.healthz())
        self._send_error_json(404, f"no route for {path}")

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch("POST")


class ServeHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one :class:`AggregatorService`."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: AggregatorService,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = verbose


class ServeRunner:
    """Owns a server's lifecycle: bind, serve on a thread, shut down.

    Usable as a context manager in tests and benchmarks::

        with ServeRunner(service, port=0) as runner:
            ...  # http requests against runner.address

    Port 0 binds an ephemeral port; :attr:`address` reports the real one.
    """

    def __init__(
        self,
        service: AggregatorService,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ) -> None:
        self._server = ServeHTTPServer((host, port), service, verbose=verbose)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``."""
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    @property
    def server(self) -> ServeHTTPServer:
        """The underlying server (for ``serve_forever`` in the CLI)."""
        return self._server

    def start(self) -> "ServeRunner":
        """Start serving on a background thread."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, drain handler threads, close the socket."""
        self._server.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._server.server_close()

    def __enter__(self) -> "ServeRunner":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
