"""Asyncio front end turning the analysis pipeline into a service.

Request path, in order:

1. **Admission.**  A bounded counter of in-flight requests; a request
   arriving when ``queue_limit`` are already admitted (or while the
   server is draining) is rejected immediately with ``overloaded`` —
   explicit backpressure, never an unbounded queue or a silent hang.
2. **Read-through cache.**  Compute endpoints key their work with
   :func:`repro.study.cache.cache_key` (identically to the batch CLI),
   so a warm ``.repro-cache/`` answers without touching the pool.
3. **Coalescing.**  Identical keys already being computed share one
   future: N concurrent duplicates cost one computation.  A waiter's
   deadline abandons *its wait*, never the shared computation — the
   result still lands in the cache for the retry.
4. **Pool.**  Misses run in a :class:`ProcessPoolExecutor` — the
   analyses are CPU-bound simulations, and worker processes keep the
   event loop responsive for health checks and admission decisions.
5. **Deadline.**  Each request carries a seconds budget (bounded by the
   server's maximum); expiry returns ``deadline``.

Shutdown is drain-then-exit: stop accepting, reject new work as
``overloaded``, wait (bounded) for admitted requests to finish, then
shut the pool down.

Every stage is metered through a :class:`repro.obs` registry
(``server.*`` counters/gauges/timers); the ``metrics`` endpoint
snapshots it live.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.obs import registry as obs
from repro.serve import protocol
from repro.serve.handlers import (
    ENDPOINTS,
    Endpoint,
    Prepared,
    endpoint_catalog,
)
from repro.study.cache import ResultCache, code_fingerprint


@dataclass
class ServeConfig:
    """Tunables of one :class:`AnalysisServer` instance."""

    host: str = "127.0.0.1"
    #: 0 = ephemeral; the bound port is on ``server.port`` after start
    port: int = 0
    #: max requests admitted concurrently (queued + executing);
    #: arrivals beyond this are rejected with ``overloaded``
    queue_limit: int = 16
    #: analysis worker processes
    workers: int = 2
    #: deadline budget for requests that set none
    default_deadline_s: float = 60.0
    #: hard ceiling on any request's deadline budget
    max_deadline_s: float = 600.0
    #: how long shutdown waits for admitted requests to finish
    drain_s: float = 10.0
    max_frame: int = protocol.MAX_FRAME


class AnalysisServer:
    """One listening service over a result cache and a worker pool."""

    def __init__(self, config: ServeConfig | None = None, *,
                 cache: ResultCache | None = None,
                 registry: obs.MetricsRegistry | None = None):
        self.config = config or ServeConfig()
        self.cache = cache if cache is not None else ResultCache()
        #: server-owned registry: the ``metrics`` endpoint snapshots it
        #: live and never races the global one
        self.registry = registry if registry is not None \
            else obs.MetricsRegistry()
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._in_flight = 0
        self._draining = False
        self._idle = asyncio.Event()
        self._idle.set()
        #: cache key -> future of the one in-progress computation
        self._computing: dict[str, asyncio.Future] = {}
        #: live connection-handler tasks, cancelled at shutdown
        self._connections: set[asyncio.Task] = set()
        reg = self.registry
        self._c_connections = reg.counter("server.connections")
        self._c_requests = reg.counter("server.requests")
        self._c_ok = reg.counter("server.responses.ok")
        self._c_cache_hits = reg.counter("server.cache.hits")
        self._c_computations = reg.counter("server.computations")
        self._c_coalesced = reg.counter("server.coalesced")
        self._c_errors = {code: reg.counter(f"server.errors.{code}")
                          for code in protocol.ERROR_CODES}
        self._g_in_flight = reg.gauge("server.in_flight")
        self._g_in_flight_max = reg.gauge("server.in_flight_max")
        self._t_request = reg.timer("server.request_seconds")
        self._t_compute = reg.timer("server.compute_seconds")

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind, spin up the pool, and begin accepting connections."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._pool = ProcessPoolExecutor(max_workers=self.config.workers)
        self._server = await asyncio.start_server(
            self._serve_connection, self.config.host, self.config.port)
        sock = self._server.sockets[0]
        self.port = sock.getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def stop(self) -> None:
        """Drain-then-exit: refuse new work, finish admitted work."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        try:
            await asyncio.wait_for(self._idle.wait(),
                                   timeout=self.config.drain_s)
        except asyncio.TimeoutError:
            pass  # bounded drain: give up on stragglers
        for fut in list(self._computing.values()):
            fut.cancel()
        # idle keep-alive connections are parked in read_frame; hang
        # up on them so nothing outlives the loop
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections,
                                 return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        self._server = None

    # -- connection handling -----------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        self._c_connections.inc()
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    doc = await protocol.read_frame(
                        reader, max_frame=self.config.max_frame)
                except EOFError:
                    break
                except asyncio.IncompleteReadError:
                    break  # peer vanished mid-frame
                except protocol.FrameTooLarge as exc:
                    # cannot resync a stream we refused to read:
                    # answer, then close
                    await self._respond_error(
                        writer, None, protocol.ERR_BAD_REQUEST,
                        str(exc))
                    break
                except protocol.ProtocolError as exc:
                    # framing is intact (length prefix honoured), the
                    # body was garbage: answer and keep the connection
                    await self._respond_error(
                        writer, None, protocol.ERR_BAD_REQUEST,
                        str(exc))
                    continue
                try:
                    response = await self._handle(doc)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # noqa: BLE001 — taxonomy:
                    # a handler bug degrades to 'internal', never to a
                    # dead connection or a crashed server
                    response = self._error(
                        doc.get("id"), protocol.ERR_INTERNAL,
                        f"{type(exc).__name__}: {exc}")
                await protocol.write_frame(writer, response)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, RuntimeError):
                pass

    async def _respond_error(self, writer: asyncio.StreamWriter,
                             req_id, code: str, message: str) -> None:
        self._c_errors[code].inc()
        try:
            await protocol.write_frame(
                writer, protocol.error_response(req_id, code, message))
        except (ConnectionError, OSError):
            pass

    # -- request handling --------------------------------------------------

    async def _handle(self, doc: dict) -> dict:
        """One request document -> one response document."""
        self._c_requests.inc()
        try:
            request = protocol.parse_request(doc)
        except protocol.BadRequest as exc:
            return self._error(doc.get("id"), protocol.ERR_BAD_REQUEST,
                               str(exc))
        endpoint = ENDPOINTS.get(request.endpoint)
        if endpoint is None:
            known = ", ".join(ENDPOINTS)
            return self._error(request.id, protocol.ERR_BAD_REQUEST,
                               f"unknown endpoint "
                               f"{request.endpoint!r}; known: {known}")
        if endpoint.inline:
            # liveness/introspection reads bypass admission: a full
            # queue (or a drain) must never hide the server's state
            return self._ok(request.id, self._inline(endpoint.name))
        if self._draining:
            return self._error(request.id, protocol.ERR_OVERLOADED,
                               "server is draining")
        if self._in_flight >= self.config.queue_limit:
            return self._error(
                request.id, protocol.ERR_OVERLOADED,
                f"admission queue full "
                f"({self._in_flight}/{self.config.queue_limit} in "
                f"flight)")
        self._admit(+1)
        try:
            with self._t_request.time():
                return await self._dispatch(request, endpoint)
        finally:
            self._admit(-1)

    def _admit(self, delta: int) -> None:
        self._in_flight += delta
        self._g_in_flight.set(self._in_flight)
        self._g_in_flight_max.set_max(self._in_flight)
        if self._in_flight == 0:
            self._idle.set()
        else:
            self._idle.clear()

    def _error(self, req_id, code: str, message: str) -> dict:
        self._c_errors[code].inc()
        return protocol.error_response(req_id, code, message)

    def _ok(self, req_id, result: dict, *, cached: bool = False,
            coalesced: bool = False) -> dict:
        self._c_ok.inc()
        return protocol.ok_response(req_id, result, cached=cached,
                                    coalesced=coalesced)

    async def _dispatch(self, request: protocol.Request,
                        endpoint: Endpoint) -> dict:
        assert endpoint.prepare is not None
        try:
            prepared = endpoint.prepare(request.params)
        except protocol.BadRequest as exc:
            return self._error(request.id, protocol.ERR_BAD_REQUEST,
                               str(exc))
        return await self._serve_prepared(request, prepared)

    def _inline(self, name: str) -> dict:
        if name == "healthz":
            # three-valued health: 'ok', 'degraded' (admission is
            # saturated — the next compute request gets 'overloaded'),
            # or 'draining'.
            if self._draining:
                status = "draining"
            elif self._in_flight >= self.config.queue_limit:
                status = "degraded"
            else:
                status = "ok"
            return {"status": status,
                    "degraded": status != "ok",
                    "in_flight": self._in_flight,
                    "queue_limit": self.config.queue_limit,
                    "workers": self.config.workers,
                    "endpoints": endpoint_catalog(),
                    "protocol": protocol.PROTOCOL_VERSION}
        if name == "fingerprint":
            return {"fingerprint": code_fingerprint(),
                    "cache_enabled": self.cache.enabled,
                    "cache_root": str(self.cache.root)}
        if name == "metrics":
            return {"metrics": self.registry.snapshot()}
        raise AssertionError(f"unhandled inline endpoint {name!r}")

    async def _serve_prepared(self, request: protocol.Request,
                              prepared: Prepared) -> dict:
        key = prepared.key
        payload = self.cache.get(key)
        if payload is not None:
            self._c_cache_hits.inc()
            return self._ok(request.id, payload, cached=True)

        deadline = min(request.deadline_s
                       or self.config.default_deadline_s,
                       self.config.max_deadline_s)
        fut = self._computing.get(key)
        coalesced = fut is not None
        if fut is None:
            # registered synchronously (no await between probe and
            # insert), so two arrivals in one loop tick still share
            fut = asyncio.ensure_future(self._compute(key, prepared))
            self._computing[key] = fut
        else:
            self._c_coalesced.inc()
        try:
            # shield: a waiter's deadline abandons its wait, never the
            # shared computation other waiters (and the cache) rely on
            payload = await asyncio.wait_for(asyncio.shield(fut),
                                             timeout=deadline)
        except asyncio.TimeoutError:
            return self._error(
                request.id, protocol.ERR_DEADLINE,
                f"deadline of {deadline:g}s expired computing "
                f"{request.endpoint}; the result will be cached — "
                f"retry to collect it")
        except asyncio.CancelledError:
            raise
        except protocol.BadRequest as exc:
            # a worker may only discover invalid params while running
            return self._error(request.id, protocol.ERR_BAD_REQUEST,
                               str(exc))
        except Exception as exc:  # noqa: BLE001 — the taxonomy demands
            return self._error(request.id, protocol.ERR_INTERNAL,
                               f"{type(exc).__name__}: {exc}")
        return self._ok(request.id, payload, coalesced=coalesced)

    async def _compute(self, key: str, prepared: Prepared) -> dict:
        """The one computation for ``key``; the caller registered it
        under ``self._computing[key]`` before this coroutine ran."""
        self._c_computations.inc()
        loop = asyncio.get_running_loop()
        try:
            with self._t_compute.time():
                payload = await loop.run_in_executor(
                    self._pool, prepared.worker, prepared.task)
            self.cache.put(key, payload)
            return payload
        finally:
            self._computing.pop(key, None)


@dataclass
class ServerHandle:
    """A server running on a background thread's event loop.

    The synchronous face for in-process callers such as tests:
    ``start()`` binds and returns once the port is known; ``stop()``
    drains and joins the thread.
    """

    server: AnalysisServer
    _loop: asyncio.AbstractEventLoop | None = None
    _thread: object = None
    _stop: asyncio.Event | None = None
    _start_error: BaseException | None = None

    @property
    def port(self) -> int:
        assert self.server.port is not None
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.config.host

    def start(self) -> "ServerHandle":
        import threading

        started = threading.Event()

        async def main() -> None:
            self._stop = asyncio.Event()
            try:
                await self.server.start()
            except Exception as exc:
                # surface bind/boot failures to the starting thread
                # instead of leaving it waiting forever
                self._start_error = exc
                started.set()
                return
            forever = asyncio.ensure_future(
                self.server.serve_forever())
            started.set()
            # stop() closes the listener, which also ends
            # serve_forever(); waiting on the explicit event keeps
            # the loop alive until the drain has fully finished
            await self._stop.wait()
            await self.server.stop()
            forever.cancel()

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(main())
            finally:
                try:
                    # flush teardown callbacks (transport
                    # connection_lost) so sockets actually close
                    # before the loop dies — a loop closed with those
                    # pending leaks live fds and peers hang on them
                    loop.run_until_complete(asyncio.sleep(0.01))
                except Exception:  # noqa: BLE001 — teardown only
                    pass
                loop.close()

        self._thread = threading.Thread(target=run, name="repro-serve",
                                        daemon=True)
        self._thread.start()
        started.wait()
        if self._start_error is not None:
            error, self._start_error = self._start_error, None
            self._loop = self._stop = None
            raise error
        return self

    def stop(self) -> None:
        loop, stop = self._loop, self._stop
        if loop is None or stop is None:
            return
        loop.call_soon_threadsafe(stop.set)
        self._thread.join(timeout=self.server.config.drain_s + 30)
        self._loop = self._stop = None

    def __enter__(self) -> "ServerHandle":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def start_background(config: ServeConfig | None = None, *,
                     cache: ResultCache | None = None) -> ServerHandle:
    """Start an :class:`AnalysisServer` on a daemon thread."""
    return ServerHandle(AnalysisServer(config, cache=cache)).start()


__all__ = [
    "AnalysisServer",
    "ServeConfig",
    "ServerHandle",
    "start_background",
]
