"""Client retry discipline against a scripted fake server."""

import asyncio

import pytest

from repro.pfs.config import RetryPolicy
from repro.serve import protocol
from repro.serve.client import (
    DEFAULT_RETRY,
    ServeClient,
    ServeConnectionError,
)

FAST_RETRY = RetryPolicy(max_attempts=4, base_delay=0.01, backoff=2.0,
                         jitter=0.0)


class ScriptedServer:
    """A frame-speaking fake that plays back canned responses."""

    def __init__(self, script):
        #: per-request response factories, then steady-state ok
        self.script = list(script)
        self.requests_seen = 0
        self._server = None
        self.port = None

    async def _serve(self, reader, writer):
        try:
            while True:
                try:
                    doc = await protocol.read_frame(reader)
                except (EOFError, asyncio.IncompleteReadError):
                    break
                self.requests_seen += 1
                if self.script:
                    action = self.script.pop(0)
                else:
                    action = "ok"
                if action == "drop":
                    writer.close()
                    return
                if action == "ok":
                    response = protocol.ok_response(
                        doc.get("id"), {"echo": doc.get("endpoint")})
                else:
                    response = protocol.error_response(
                        doc.get("id"), action, f"scripted {action}")
                await protocol.write_frame(writer, response)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def __aenter__(self):
        self._server = await asyncio.start_server(
            self._serve, "127.0.0.1", 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc):
        self._server.close()
        await self._server.wait_closed()


class TestClientRetry:
    def run_script(self, script, *, retry=FAST_RETRY):
        async def go():
            async with ScriptedServer(script) as fake:
                client = ServeClient(host="127.0.0.1", port=fake.port,
                                     retry=retry, seed=3)
                try:
                    response = await client.request("cell", {"x": 1})
                finally:
                    await client.close()
                return response, fake.requests_seen

        return asyncio.run(go())

    def test_overloaded_is_retried_to_success(self):
        response, seen = self.run_script(["overloaded", "overloaded"])
        assert response["ok"] is True
        assert seen == 3

    def test_dropped_connection_is_retried(self):
        response, seen = self.run_script(["drop"])
        assert response["ok"] is True
        assert seen == 2

    def test_bad_request_is_never_retried(self):
        response, seen = self.run_script(["bad_request"])
        assert protocol.response_error_code(response) \
            == protocol.ERR_BAD_REQUEST
        assert seen == 1

    def test_deadline_is_surfaced_not_retried(self):
        response, seen = self.run_script(["deadline"])
        assert protocol.response_error_code(response) \
            == protocol.ERR_DEADLINE
        assert seen == 1

    def test_retry_budget_exhaustion_raises(self):
        with pytest.raises(ServeConnectionError) as excinfo:
            self.run_script(["overloaded"] * 10)
        assert "overloaded" in str(excinfo.value)

    def test_unreachable_server_raises(self):
        async def go():
            client = ServeClient(
                host="127.0.0.1", port=1,  # nothing listens here
                retry=RetryPolicy(max_attempts=2, base_delay=0.01,
                                  backoff=1.0, jitter=0.0),
                seed=0)
            try:
                await client.request("healthz")
            finally:
                await client.close()

        with pytest.raises(ServeConnectionError):
            asyncio.run(go())

    def test_jitter_stream_is_seeded(self):
        a = ServeClient(seed=42)
        b = ServeClient(seed=42)
        c = ServeClient(seed=43)
        draws_a = [a._jitter() for _ in range(4)]
        draws_b = [b._jitter() for _ in range(4)]
        draws_c = [c._jitter() for _ in range(4)]
        assert draws_a == draws_b
        assert draws_a != draws_c

    def test_default_policy_is_the_pfs_discipline(self):
        # same arithmetic as the PFS retry clients, rescaled to
        # wall-clock time: delay(n) = base * backoff**n * (1 + j*u)
        assert DEFAULT_RETRY.delay(0, 0.0) == pytest.approx(0.05)
        assert DEFAULT_RETRY.delay(2, 0.0) == pytest.approx(0.20)
        assert DEFAULT_RETRY.delay(0, 1.0) > DEFAULT_RETRY.delay(0, 0.0)
