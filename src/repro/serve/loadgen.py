"""Seeded closed-loop load generator for the analysis service.

Models the service's expected traffic shape: many users repeatedly
asking for the semantics verdict of a *popular few* configurations —
a zipf-skewed popularity curve over the cell catalogue, the regime
where the read-through cache and in-flight coalescing pay.

Determinism contract: the request **schedule** (which client issues
which request in which order) is a pure function of the spec's seed —
per-client streams are seeded ``f"{seed}:{client}"``, so adding a
client never reshuffles another's sequence.  The report separates
deterministic fields (schedule digest, request mix, outcome counts)
from measured ones: everything nondeterministic lives under the
``"timing"`` key, and two runs with the same seed against a healthy
server produce byte-identical reports once ``"timing"`` is dropped
(pinned by ``tests/serve/test_client_loadgen.py``).

Closed loop: each simulated client waits for its response before
issuing the next request, so offered load self-limits to
``clients / mean_latency`` — the backpressure-friendly way to probe a
bounded admission queue.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
import time
from dataclasses import dataclass
from typing import Sequence

from repro.serve import protocol
from repro.serve.client import DEFAULT_RETRY, ServeClient, ServeConnectionError

#: latency quantiles the report carries, in report order
PERCENTILES = (0.50, 0.90, 0.99)


@dataclass(frozen=True)
class LoadSpec:
    """Shape of one load run; every field feeds the schedule or keys."""

    clients: int = 4
    requests_per_client: int = 25
    seed: int = 7
    #: zipf skew exponent: weight of catalogue rank r is (r+1)**-s
    zipf_s: float = 1.2
    #: ranks per requested cell (small: this is a query, not a campaign)
    nranks: int = 2
    #: per-request deadline budget shipped to the server
    deadline_s: float | None = 60.0

    def validate(self) -> None:
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.requests_per_client < 1:
            raise ValueError("requests_per_client must be >= 1")
        if self.zipf_s < 0:
            raise ValueError("zipf_s must be >= 0")


def default_catalog(*, nranks: int = 2,
                    seed: int = 7) -> list[tuple[str, dict]]:
    """Every registered configuration as a ``cell`` request."""
    from repro.apps.registry import all_variants

    return [("cell", {"app": v.label, "nranks": nranks, "seed": seed})
            for v in all_variants()]


def zipf_weights(n: int, s: float) -> list[float]:
    """Unnormalized zipf pmf over catalogue ranks 0..n-1."""
    return [(rank + 1) ** -s for rank in range(n)]


def build_schedule(catalog: Sequence[tuple[str, dict]],
                   spec: LoadSpec) -> list[list[int]]:
    """Per-client catalogue-index sequences, seeded and stable.

    ``random.Random`` with a string seed hashes deterministically, and
    each client draws from its own stream — the schedule is a pure
    function of ``(catalog order, spec.seed, spec.zipf_s, counts)``.
    """
    weights = zipf_weights(len(catalog), spec.zipf_s)
    schedule = []
    for client in range(spec.clients):
        rng = random.Random(f"{spec.seed}:{client}")
        schedule.append(rng.choices(range(len(catalog)),
                                    weights=weights,
                                    k=spec.requests_per_client))
    return schedule


def schedule_digest(catalog: Sequence[tuple[str, dict]],
                    schedule: list[list[int]]) -> str:
    """SHA-256 over the canonical schedule — the determinism witness."""
    doc = {"catalog": [[ep, params] for ep, params in catalog],
           "schedule": schedule}
    return hashlib.sha256(
        protocol.canonical_json(doc).encode()).hexdigest()


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(q * len(sorted_values) + 0.5) - 1))
    return sorted_values[rank]


async def _run_client(host: str, port: int, client_id: int,
                      catalog: Sequence[tuple[str, dict]],
                      sequence: list[int], spec: LoadSpec,
                      outcomes: dict[str, int],
                      latencies: list[float]) -> None:
    client = ServeClient(host=host, port=port, retry=DEFAULT_RETRY,
                         seed=spec.seed * 1000003 + client_id)
    try:
        for index in sequence:
            endpoint, params = catalog[index]
            t0 = time.perf_counter()
            try:
                response = await client.request(
                    endpoint, params, deadline_s=spec.deadline_s)
            except ServeConnectionError:
                outcome = "unreachable"
            else:
                code = protocol.response_error_code(response)
                outcome = "ok" if code is None else code
            latencies.append(time.perf_counter() - t0)
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
    finally:
        await client.close()


async def run_load(host: str, port: int, spec: LoadSpec,
                   catalog: Sequence[tuple[str, dict]] | None = None
                   ) -> dict:
    """Drive the schedule against a live server; return the report."""
    spec.validate()
    if catalog is None:
        catalog = default_catalog(nranks=spec.nranks, seed=spec.seed)
    schedule = build_schedule(catalog, spec)
    request_counts: dict[int, int] = {}
    for sequence in schedule:
        for index in sequence:
            request_counts[index] = request_counts.get(index, 0) + 1

    outcomes: dict[str, int] = {}
    latencies: list[float] = []
    t0 = time.perf_counter()
    await asyncio.gather(*(
        _run_client(host, port, client_id, catalog, sequence, spec,
                    outcomes, latencies)
        for client_id, sequence in enumerate(schedule)))
    wall = time.perf_counter() - t0

    server_counters: dict[str, int] = {}
    try:
        probe = ServeClient(host=host, port=port, seed=spec.seed)
        response = await probe.request("metrics")
        await probe.close()
        if response.get("ok"):
            metrics = response["result"]["metrics"]
            for name in ("server.requests", "server.computations",
                         "server.coalesced", "server.cache.hits"):
                doc = metrics.get(name)
                if doc is not None:
                    server_counters[name] = doc["value"]
    except ServeConnectionError:
        pass

    total = sum(outcomes.values())
    latencies.sort()
    return {
        "loadgen": {
            "clients": spec.clients,
            "requests_per_client": spec.requests_per_client,
            "seed": spec.seed,
            "zipf_s": spec.zipf_s,
            "nranks": spec.nranks,
            "deadline_s": spec.deadline_s,
            "catalog_size": len(catalog),
        },
        "schedule": {
            "digest": schedule_digest(catalog, schedule),
            "requests": total,
            "unique_cells": len(request_counts),
            # the zipf head: catalogue rank -> times requested
            "popularity": [[index, request_counts[index]]
                           for index in sorted(
                               request_counts,
                               key=lambda i: (-request_counts[i], i))
                           [:5]],
        },
        "outcomes": dict(sorted(outcomes.items())),
        "ok": set(outcomes) <= {"ok"} and total > 0,
        "timing": {
            "wall_s": round(wall, 4),
            "rps": round(total / wall, 2) if wall else 0.0,
            "latency_s": {
                **{f"p{int(q * 100)}": round(_percentile(latencies, q), 5)
                   for q in PERCENTILES},
                "mean": round(sum(latencies) / len(latencies), 5)
                if latencies else 0.0,
                "max": round(max(latencies), 5) if latencies else 0.0,
            },
            "server": server_counters,
        },
    }


def run_load_sync(host: str, port: int, spec: LoadSpec,
                  catalog: Sequence[tuple[str, dict]] | None = None
                  ) -> dict:
    """Blocking wrapper (the ``study loadtest`` CLI path)."""
    return asyncio.run(run_load(host, port, spec, catalog))


def report_text(report: dict) -> str:
    """Human rendering of one load report."""
    lg, timing = report["loadgen"], report["timing"]
    lat = timing["latency_s"]
    lines = [
        f"loadgen: {lg['clients']} clients x "
        f"{lg['requests_per_client']} requests, seed {lg['seed']}, "
        f"zipf_s {lg['zipf_s']:g}, catalog {lg['catalog_size']} cells",
        f"schedule: {report['schedule']['requests']} requests over "
        f"{report['schedule']['unique_cells']} unique cells "
        f"(digest {report['schedule']['digest'][:12]})",
        "outcomes: " + ", ".join(
            f"{name}={count}"
            for name, count in report["outcomes"].items()),
        f"throughput: {timing['rps']} req/s over {timing['wall_s']}s",
        f"latency: p50 {lat['p50']}s  p90 {lat['p90']}s  "
        f"p99 {lat['p99']}s  max {lat['max']}s",
    ]
    server = timing.get("server") or {}
    if server:
        lines.append("server: " + ", ".join(
            f"{name.removeprefix('server.')}={value}"
            for name, value in sorted(server.items())))
    lines.append("result: " + ("ok" if report["ok"] else "FAILURES"))
    return "\n".join(lines)


__all__ = [
    "LoadSpec",
    "PERCENTILES",
    "build_schedule",
    "default_catalog",
    "report_text",
    "run_load",
    "run_load_sync",
    "schedule_digest",
    "zipf_weights",
]
