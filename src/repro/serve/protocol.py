"""Wire protocol of the consistency-analysis service.

One frame is a 4-byte big-endian length prefix followed by a
canonical-JSON document (sorted keys, explicit separators, no NaN) —
the same serialization discipline :mod:`repro.study.cache` uses for
key material, so what travels on the wire is exactly what hashes and
caches deterministically.

Requests name an endpoint, carry a JSON-object parameter document, and
may set a per-request deadline budget in seconds.  Responses either
succeed (``ok: true`` with a ``result`` document plus provenance flags
``cached``/``coalesced``) or fail with one of four error codes:

* ``bad_request`` — the frame or request is malformed, the endpoint is
  unknown, or a parameter failed validation.  The caller's fault;
  never retried.
* ``overloaded``  — the admission queue is full; explicit backpressure.
  Retryable after backoff.
* ``deadline``    — the request's deadline budget expired before the
  analysis finished.  The computation itself keeps running and lands
  in the cache, so a retry is usually a cheap hit.
* ``internal``    — the analysis raised.  A bug (or a poisoned cell);
  reported, never hidden behind a hang.

Framing errors degrade, they never crash: an oversized or garbage
frame gets a ``bad_request`` response and (when the stream cannot be
resynchronized) a closed connection.
"""

from __future__ import annotations

import asyncio
import json
import math
import struct
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ReproError

#: protocol version; bumped only on incompatible frame/document changes
PROTOCOL_VERSION = 1

#: frame-length prefix: 4-byte unsigned big-endian
_HEADER = struct.Struct(">I")
HEADER_SIZE = _HEADER.size

#: default ceiling on one frame's body (chaos payloads are < 100 KiB;
#: this leaves two orders of magnitude of headroom)
MAX_FRAME = 8 * 1024 * 1024

# -- error taxonomy ------------------------------------------------------------

#: caller's fault: malformed frame, unknown endpoint, bad parameter
ERR_BAD_REQUEST = "bad_request"
#: explicit backpressure: the admission queue is full, retry later
ERR_OVERLOADED = "overloaded"
#: the per-request deadline budget expired before the result was ready
ERR_DEADLINE = "deadline"
#: the analysis raised; a server-side bug, never silently swallowed
ERR_INTERNAL = "internal"

ERROR_CODES = frozenset(
    {ERR_BAD_REQUEST, ERR_OVERLOADED, ERR_DEADLINE, ERR_INTERNAL})

#: error codes a client may retry (with backoff); the rest are final
RETRYABLE_CODES = frozenset({ERR_OVERLOADED})


class ProtocolError(ReproError):
    """A frame or document that violates the wire protocol."""


class FrameTooLarge(ProtocolError):
    """Length prefix exceeds the frame ceiling; the stream is suspect."""


class BadRequest(ProtocolError):
    """A decodable frame whose request document failed validation."""


def canonical_json(doc: dict) -> str:
    """The one serialization both sides agree on, byte for byte."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


# -- framing -------------------------------------------------------------------


def encode_frame(doc: dict) -> bytes:
    """Length-prefixed canonical-JSON frame for ``doc``."""
    body = canonical_json(doc).encode()
    if len(body) > MAX_FRAME:
        raise FrameTooLarge(
            f"frame body {len(body)} bytes exceeds {MAX_FRAME}")
    return _HEADER.pack(len(body)) + body


def decode_frame(data: bytes) -> dict:
    """Inverse of :func:`encode_frame` (header included), for tests."""
    if len(data) < HEADER_SIZE:
        raise ProtocolError(f"truncated header: {len(data)} bytes")
    (length,) = _HEADER.unpack_from(data)
    body = data[HEADER_SIZE:]
    if length != len(body):
        raise ProtocolError(
            f"length prefix {length} != body {len(body)} bytes")
    return decode_body(body)


def decode_body(body: bytes) -> dict:
    """Parse one frame body into a JSON object, or raise ProtocolError."""
    try:
        doc = json.loads(body.decode())
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"frame body is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got "
            f"{type(doc).__name__}")
    return doc


async def read_frame(reader: asyncio.StreamReader, *,
                     max_frame: int = MAX_FRAME) -> dict:
    """Read one frame; ``EOFError`` at a clean end of stream.

    Raises :class:`FrameTooLarge` for an over-limit length prefix
    (garbage bytes land here too: random headers decode to absurd
    lengths) and :class:`ProtocolError` for non-JSON bodies.
    """
    header = await reader.read(HEADER_SIZE)
    if not header:
        raise EOFError("connection closed")
    if len(header) < HEADER_SIZE:
        raise ProtocolError(f"truncated header: {len(header)} bytes")
    (length,) = _HEADER.unpack(header)
    if length > max_frame:
        raise FrameTooLarge(
            f"frame of {length} bytes exceeds limit {max_frame}")
    body = await reader.readexactly(length)
    return decode_body(body)


async def write_frame(writer: asyncio.StreamWriter, doc: dict) -> None:
    writer.write(encode_frame(doc))
    await writer.drain()


# -- requests ------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One validated request: endpoint + parameters + deadline budget."""

    endpoint: str
    params: dict = field(default_factory=dict)
    id: str | int | None = None
    #: seconds this request may spend server-side; ``None`` = server
    #: default.  The budget covers queueing *and* computation.
    deadline_s: float | None = None

    def to_dict(self) -> dict:
        doc: dict[str, Any] = {"v": PROTOCOL_VERSION,
                               "endpoint": self.endpoint,
                               "params": self.params}
        if self.id is not None:
            doc["id"] = self.id
        if self.deadline_s is not None:
            doc["deadline_s"] = self.deadline_s
        return doc


def parse_request(doc: dict) -> Request:
    """Validate a decoded frame into a :class:`Request`.

    Raises :class:`BadRequest` with a caller-facing message on any
    violation; the server maps that straight to a ``bad_request``
    response.
    """
    version = doc.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise BadRequest(f"unsupported protocol version {version!r}; "
                         f"this server speaks {PROTOCOL_VERSION}")
    endpoint = doc.get("endpoint")
    if not isinstance(endpoint, str) or not endpoint:
        raise BadRequest("request must name a string 'endpoint'")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise BadRequest("'params' must be a JSON object")
    req_id = doc.get("id")
    if req_id is not None and not isinstance(req_id, (str, int)):
        raise BadRequest("'id' must be a string or integer")
    deadline = doc.get("deadline_s")
    if deadline is not None:
        if not isinstance(deadline, (int, float)) \
                or isinstance(deadline, bool) \
                or not math.isfinite(deadline) or deadline <= 0:
            raise BadRequest("'deadline_s' must be a positive number")
        deadline = float(deadline)
    return Request(endpoint=endpoint, params=params, id=req_id,
                   deadline_s=deadline)


# -- responses -----------------------------------------------------------------


def ok_response(req_id: str | int | None, result: dict, *,
                cached: bool = False, coalesced: bool = False) -> dict:
    return {"v": PROTOCOL_VERSION, "id": req_id, "ok": True,
            "result": result, "cached": cached, "coalesced": coalesced}


def error_response(req_id: str | int | None, code: str,
                   message: str) -> dict:
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    return {"v": PROTOCOL_VERSION, "id": req_id, "ok": False,
            "error": {"code": code, "message": message}}


def response_error_code(doc: dict) -> str | None:
    """The error code of a response document, or ``None`` if it is ok."""
    if doc.get("ok"):
        return None
    error = doc.get("error")
    if isinstance(error, dict) and error.get("code") in ERROR_CODES:
        return error["code"]
    return ERR_INTERNAL


__all__ = [
    "BadRequest",
    "ERROR_CODES",
    "ERR_BAD_REQUEST",
    "ERR_DEADLINE",
    "ERR_INTERNAL",
    "ERR_OVERLOADED",
    "FrameTooLarge",
    "HEADER_SIZE",
    "MAX_FRAME",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RETRYABLE_CODES",
    "Request",
    "canonical_json",
    "decode_body",
    "decode_frame",
    "encode_frame",
    "error_response",
    "ok_response",
    "parse_request",
    "read_frame",
    "response_error_code",
    "write_frame",
]
