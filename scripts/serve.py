#!/usr/bin/env python
"""Drive the micro-batching serving layer with synthetic traffic.

Spins up a :class:`repro.serving.PipelineServer` around a hybrid
pipeline, fires request-per-image traffic at it from concurrent client
threads, and prints the server's own metrics (throughput, latency
percentiles, realized batch size, backpressure counters) -- plus an
optional apples-to-apples serial ``infer()`` comparison.

Examples:

    # 512 requests from 16 clients, default batching knobs:
    scripts/serve.py

    # Bursty overload against a small reject-policy queue:
    scripts/serve.py --requests 1000 --clients 32 \\
        --queue-capacity 32 --overflow reject

    # Skewed traffic against the response cache (hit-rate reported):
    scripts/serve.py --cache lru --zipf 1.1 --requests 2000

    # Compare against the serial per-request loop and emit JSON:
    scripts/serve.py --compare-serial --json

See docs/serving.md for the knobs and the parity guarantee.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

# Allow running straight from a checkout: scripts/serve.py.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.api import (  # noqa: E402
    PipelineConfig,
    ServingConfig,
    build_pipeline,
)
from repro.data import render_sign  # noqa: E402
from repro.models.smallcnn import small_cnn  # noqa: E402
from repro.serving import ServerOverloaded  # noqa: E402


def build_args() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="synthetic-traffic demo of the serving layer"
    )
    parser.add_argument("--requests", type=int, default=512,
                        help="total requests to fire (default 512)")
    parser.add_argument("--clients", type=int, default=16,
                        help="concurrent client threads (default 16)")
    parser.add_argument("--image-size", type=int, default=32)
    parser.add_argument("--architecture", default="parallel",
                        choices=["parallel", "integrated"])
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--max-wait-ms", type=float, default=2.0)
    parser.add_argument("--queue-capacity", type=int, default=256)
    parser.add_argument("--overflow", default="block",
                        choices=["block", "reject"])
    parser.add_argument("--cache", default="off",
                        choices=["off", "lru"],
                        help="content-addressed response cache "
                             "(default off)")
    parser.add_argument("--cache-max-entries", type=int, default=1024,
                        help="LRU capacity under --cache lru")
    parser.add_argument("--zipf", type=float, default=None,
                        metavar="S",
                        help="draw each request's image Zipf(S) over "
                             "the corpus (skewed traffic; default: "
                             "round-robin)")
    parser.add_argument("--jitter-ms", type=float, default=0.2,
                        help="mean per-client inter-request delay")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--compare-serial", action="store_true",
                        help="also time a serial infer() loop and "
                             "report the speedup")
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable summary")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_args().parse_args(argv)
    rng = np.random.default_rng(args.seed)

    model = small_cnn(n_classes=8, input_size=args.image_size)
    pipeline = build_pipeline(
        PipelineConfig(
            architecture=args.architecture,
            pin_sobel=args.architecture == "integrated",
            name="serve-demo",
        ),
        model,
    )
    images = np.stack([
        render_sign(
            int(rng.integers(8)),
            size=args.image_size,
            rotation=float(rng.uniform(-np.pi, np.pi)),
        )
        for _ in range(min(args.requests, 256))
    ]).astype(np.float32)

    config = ServingConfig(
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        queue_capacity=max(args.queue_capacity, args.max_batch),
        overflow=args.overflow,
        cache=args.cache,
        cache_max_entries=args.cache_max_entries,
    )
    if args.zipf is not None:
        ranks = np.arange(1, len(images) + 1, dtype=np.float64)
        weights = ranks ** -args.zipf
        zipf_p = weights / weights.sum()
    flagged = []
    counters = {"served": 0, "rejected": 0}
    lock = threading.Lock()

    def client(client_index: int) -> None:
        client_rng = np.random.default_rng((args.seed, client_index))
        shard = range(client_index, args.requests, args.clients)
        for i in shard:
            if args.jitter_ms:
                time.sleep(
                    client_rng.exponential(args.jitter_ms / 1e3)
                )
            if args.zipf is not None:
                image = images[client_rng.choice(len(images), p=zipf_p)]
            else:
                image = images[i % len(images)]
            try:
                pending = server.submit(image)
                pending.result(timeout=120)
                with lock:
                    counters["served"] += 1
            except ServerOverloaded:
                with lock:
                    counters["rejected"] += 1

    start = time.perf_counter()
    with pipeline.serve(config, on_degraded=flagged.append) as server:
        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(args.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = server.stats()
    wall = time.perf_counter() - start

    summary = {
        "requests": args.requests,
        "clients": args.clients,
        "wall_seconds": wall,
        "client_served": counters["served"],
        "client_rejected": counters["rejected"],
        "degraded_routed": len(flagged),
        # Server-side accounting, surfaced top-level so downstream
        # tooling need not dig through "stats": backpressure rejects,
        # qualifier-flagged results, and abandoned requests.
        "rejected": stats.rejected,
        "degraded": stats.degraded,
        "cancelled": stats.cancelled,
        "cache": args.cache,
        "cache_hit_rate": stats.cache_hit_rate,
        "stats": stats.to_dict(),
    }

    if args.compare_serial:
        sample = images[: min(len(images), 128)]
        serial_start = time.perf_counter()
        for image in sample:
            pipeline.infer(image)
        serial_seconds = time.perf_counter() - serial_start
        serial_rps = len(sample) / serial_seconds
        summary["serial_rps"] = serial_rps
        summary["speedup_vs_serial"] = (
            stats.throughput_rps / serial_rps if serial_rps else 0.0
        )

    if args.json:
        print(json.dumps(summary, indent=2))
        return 0

    print(f"requests          {args.requests} from {args.clients} clients")
    print(f"wall time         {wall:.2f} s")
    print(f"throughput        {stats.throughput_rps:.0f} req/s")
    print(f"latency           p50 {stats.p50_latency_ms:.1f} ms   "
          f"p99 {stats.p99_latency_ms:.1f} ms")
    print(f"micro-batches     {stats.batches} "
          f"(mean size {stats.mean_batch_size:.1f}, max {config.max_batch})")
    print(f"completed/failed  {stats.completed}/{stats.failed}")
    print(f"rejected          {stats.rejected} "
          f"(policy {config.overflow!r}, queue {config.queue_capacity})")
    print(f"cancelled         {stats.cancelled}")
    print(f"degraded          {stats.degraded} qualifier-flagged "
          f"({len(flagged)} routed to the hook)")
    if args.cache != "off":
        print(f"cache             {stats.cache_hits} hits + "
              f"{stats.coalesced_joins} joins / {stats.cache_misses} "
              f"misses (hit-rate {stats.cache_hit_rate:.2f}, "
              f"{stats.cache_entries} entries, "
              f"{stats.cache_evictions} evictions)")
    if "speedup_vs_serial" in summary:
        print(f"serial baseline   {summary['serial_rps']:.0f} req/s "
              f"-> {summary['speedup_vs_serial']:.2f}x with batching")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
