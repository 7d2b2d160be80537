"""Retrying client for the analysis service.

Reuses the retry discipline the PFS clients apply against failing
servers (:class:`repro.pfs.config.RetryPolicy`): exponential backoff
``base_delay * backoff**attempt`` stretched by a seeded jitter draw,
giving up after ``max_attempts``.  The same policy object, the same
``delay(attempt, u)`` arithmetic — only the clock is real here instead
of virtual, so the defaults are rescaled to network time.

Retried conditions:

* connection failures (refused, reset, closed mid-exchange) — the
  connection is re-established and the request reissued;
* ``overloaded`` responses — explicit backpressure; backing off is the
  protocol-mandated reaction.

``bad_request`` is never retried (the request will not get better),
and ``deadline``/``internal`` are surfaced to the caller, who knows
whether a retry makes sense (a ``deadline`` retry is usually a cheap
cache hit — the server kept computing).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.pfs.config import RetryPolicy
from repro.serve import protocol

#: the PFS policy rescaled to wall-clock networking: five attempts
#: backing off 50 ms, 100 ms, 200 ms, 400 ms (plus jitter)
DEFAULT_RETRY = RetryPolicy(max_attempts=5, base_delay=0.05,
                            backoff=2.0, jitter=0.1)

#: slack added to ``deadline_s`` for the client-side exchange bound:
#: the server is allowed to spend the full deadline computing before
#: answering ``deadline``, so the client must wait a little longer
#: before declaring the connection dead
DEADLINE_GRACE_S = 2.0


class ServeConnectionError(ReproError):
    """Could not complete an exchange within the retry budget."""


@dataclass
class ServeClient:
    """One connection-reusing client endpoint.

    Not thread-safe and not for concurrent use of a single instance:
    one client = one closed-loop requester.  ``seed`` feeds the jitter
    stream, keeping backoff schedules reproducible run to run.
    """

    host: str = "127.0.0.1"
    port: int = 0
    retry: RetryPolicy = field(default_factory=lambda: DEFAULT_RETRY)
    seed: int = 0
    connect_timeout_s: float = 5.0
    _reader: asyncio.StreamReader | None = None
    _writer: asyncio.StreamWriter | None = None
    _rng: random.Random | None = None
    _next_id: int = 0

    def _jitter(self) -> float:
        if self._rng is None:
            self._rng = random.Random(self.seed)
        return self._rng.random()

    async def _ensure_connected(self) -> None:
        if self._writer is not None and not self._writer.is_closing():
            return
        self._reader, self._writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port),
            timeout=self.connect_timeout_s)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._reader = self._writer = None

    async def _exchange(self, doc: dict) -> dict:
        await self._ensure_connected()
        assert self._reader is not None and self._writer is not None
        await protocol.write_frame(self._writer, doc)
        try:
            return await protocol.read_frame(self._reader)
        except (EOFError, asyncio.IncompleteReadError) as exc:
            raise ConnectionResetError(
                "server closed the connection") from exc

    async def request(self, endpoint: str, params: dict | None = None,
                      *, deadline_s: float | None = None,
                      request_id: str | int | None = None) -> dict:
        """One request -> the final response document.

        Connection failures and ``overloaded`` responses are retried
        under the policy; exhausting it raises
        :class:`ServeConnectionError`.  Any other response — success
        or terminal error — is returned as-is.
        """
        if request_id is None:
            self._next_id += 1
            request_id = self._next_id
        doc = protocol.Request(endpoint=endpoint, params=params or {},
                               id=request_id,
                               deadline_s=deadline_s).to_dict()
        # when the caller set a deadline, bound the whole exchange by
        # it client-side too: a half-open connection (a SIGKILLed
        # server whose port is still held open by its worker children)
        # otherwise blocks `read_frame` forever
        bound = None if deadline_s is None \
            else deadline_s + DEADLINE_GRACE_S
        attempt = 0
        last: str = "no attempt made"
        while attempt < self.retry.max_attempts:
            try:
                if bound is None:
                    response = await self._exchange(doc)
                else:
                    response = await asyncio.wait_for(
                        self._exchange(doc), timeout=bound)
            except (ConnectionError, OSError,
                    asyncio.TimeoutError) as exc:
                last = f"{type(exc).__name__}: {exc}"
                await self.close()
            else:
                code = protocol.response_error_code(response)
                if code not in protocol.RETRYABLE_CODES:
                    return response
                last = f"server answered {code!r}"
            attempt += 1
            if attempt >= self.retry.max_attempts:
                break
            await asyncio.sleep(
                self.retry.delay(attempt - 1, self._jitter()))
        raise ServeConnectionError(
            f"{endpoint} to {self.host}:{self.port} failed after "
            f"{attempt} attempt(s): {last}")

    async def __aenter__(self) -> "ServeClient":
        await self._ensure_connected()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()


def request_sync(host: str, port: int, endpoint: str,
                 params: dict | None = None, *,
                 deadline_s: float | None = None,
                 retry: RetryPolicy | None = None,
                 seed: int = 0) -> dict:
    """Blocking one-shot request (the ``study request`` CLI path)."""

    async def go() -> dict:
        client = ServeClient(host=host, port=port,
                             retry=retry or DEFAULT_RETRY, seed=seed)
        try:
            return await client.request(endpoint, params,
                                        deadline_s=deadline_s)
        finally:
            await client.close()

    return asyncio.run(go())


__all__ = [
    "DEADLINE_GRACE_S",
    "DEFAULT_RETRY",
    "ServeClient",
    "ServeConnectionError",
    "request_sync",
]
