"""Multi-tenant serving trajectory (``BENCH_serving.json``).

Replays a Zipf-distributed stream of query-template instances from the
four built-in domains (travel, news, bio, weekend) against the serving
layer and measures what the subsystem was built to amortize:

* **plan-cache hit rate** — the fraction of submissions answered
  without running the branch-and-bound optimizer (one shared
  :class:`~repro.serving.plan_cache.PlanCache` spans all four domain
  services: keys embed each registry's content epoch, so entries never
  cross tenants);
* **optimizer work saved** — total ``annotate`` calls, the search's
  unit of work, versus the no-cache baseline that re-optimizes every
  submission;
* **service calls saved** — remote calls under the shared logical
  cache versus the baseline's per-request private caches;
* **throughput** — wall-clock submissions/s, warm versus cold;
* **restart warmth** — a second fleet pointed at the same plan-cache
  file starts with zero misses (the disk tier);
* **concurrency** — N worker threads replay the same Zipf stream
  round-robin against one shared fleet over the SQLite WAL tier; every
  answer must be bit-identical to the sequential cold oracle and the
  plan-cache accounting must match the sequential schedule exactly
  (single-flight: misses == distinct plan-cache keys touched, i.e.
  query templates, for any N);
  each sweep point also records p50/p95/p99 per-request wall latency —
  the tail is what concurrent tenants feel, and a mean would hide
  single-flight stalls behind the cache-hit majority.

Every distinct template is also verified differentially: the warm
fleet's answer (plan rebuilt from the cached spec, pages largely from
the shared cache) must be bit-identical — rows, composed ranks,
per-service rank values, completeness — to a cold submit on a fresh
service with empty caches.
"""

from __future__ import annotations

import json
import random
import threading
import time

import pytest
from _bench_env import QUICK, bench_out_name, bench_scale

from repro.serving import PlanCache, QueryService, template_fingerprint
from repro.sources.bio import bio_registry, glycolysis_homolog_query
from repro.sources.news import market_moving_news_query, news_registry
from repro.sources.travel import running_example_query, travel_registry
from repro.sources.weekend import mahler_weekend_query, weekend_registry

pytestmark = pytest.mark.bench

REQUESTS = bench_scale(300, 80)
K = 5
ZIPF_EXPONENT = 1.1
SEED = 20080824
WORKER_COUNTS = bench_scale((1, 2, 4, 8), (1, 4))

_REGISTRIES = {
    "travel": travel_registry,
    "news": news_registry,
    "bio": bio_registry,
    "weekend": weekend_registry,
}


def _templates() -> list[tuple[str, str, object]]:
    """(domain, label, query) for every distinct template instance."""
    population: list[tuple[str, str, object]] = [
        ("travel", "travel/showcase", running_example_query()),
        ("bio", "bio/glycolysis", glycolysis_homolog_query()),
    ]
    for topic in ("merger", "earnings", "recall", "lawsuit"):
        for sector in ("tech", "energy"):
            population.append(
                (
                    "news",
                    f"news/{topic}-{sector}",
                    market_moving_news_query(topic, sector),
                )
            )
    for budget in (100, 120, 150):
        population.append(
            ("weekend", f"weekend/b{budget}", mahler_weekend_query(budget))
        )
    return population


def _zipf_stream(population_size: int, requests: int) -> list[int]:
    """A seeded Zipf-distributed index stream over the population."""
    rng = random.Random(SEED)
    order = list(range(population_size))
    rng.shuffle(order)  # which template is popular is itself random
    weights = [
        1.0 / (order.index(i) + 1) ** ZIPF_EXPONENT
        for i in range(population_size)
    ]
    return rng.choices(range(population_size), weights=weights, k=requests)


def _fleet(plan_cache: PlanCache) -> dict[str, QueryService]:
    """One QueryService per domain, all sharing *plan_cache*."""
    return {
        domain: QueryService(
            registry=build(), k_default=K, plan_cache=plan_cache
        )
        for domain, build in _REGISTRIES.items()
    }


def _baseline_fleet() -> dict[str, QueryService]:
    """No plan cache, no shared service cache: every submit is cold."""
    return {
        domain: QueryService(
            registry=build(),
            k_default=K,
            plan_cache=PlanCache(capacity=0),
            share_service_cache=False,
        )
        for domain, build in _REGISTRIES.items()
    }


def _replay(fleet, population, stream) -> dict:
    service_calls = 0
    page_fetches = 0
    annotate_calls = 0
    start = time.perf_counter()
    for index in stream:
        domain, _, query = population[index]
        response = fleet[domain].submit(query, k=K)
        service_calls += response.stats["service_calls"]
        page_fetches += response.stats["page_fetches"]
        annotate_calls += response.stats["annotate_calls"]
    elapsed = max(time.perf_counter() - start, 1e-9)
    return {
        "requests": len(stream),
        "service_calls": service_calls,
        "page_fetches": page_fetches,
        "optimizer_annotate_calls": annotate_calls,
        "wall_s": round(elapsed, 3),
        "requests_per_s": round(len(stream) / elapsed, 1),
    }


def _answer_signature(response):
    return (
        response.columns,
        response.rows,
        response.rank_keys,
        tuple(
            tuple(rank for _, rank in row_ranks) for row_ranks in response.ranks
        ),
        response.complete,
    )


def _remove_sqlite_files(path):
    for suffix in ("", "-wal", "-shm"):
        sibling = path.parent / (path.name + suffix)
        if sibling.exists():
            sibling.unlink()


def _percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile over pre-sorted per-request latencies."""
    rank = max(0, min(len(sorted_values) - 1,
                      int(fraction * len(sorted_values) + 0.5) - 1))
    return sorted_values[rank]


def _threaded_replay(fleet, population, stream, workers) -> dict:
    """Replay *stream* round-robin across *workers* barrier-started
    threads against one shared fleet; returns timing (throughput plus
    p50/p95/p99 per-request latency — tail latency is what concurrent
    tenants feel, and a mean hides single-flight stalls behind cache
    hits) and the answer signature of every request, indexed by
    position in the stream."""
    signatures: list = [None] * len(stream)
    latencies: list[float] = [0.0] * len(stream)
    barrier = threading.Barrier(workers)
    errors: list[BaseException] = []

    def run(worker_index):
        try:
            barrier.wait()
            for position in range(worker_index, len(stream), workers):
                domain, _, query = population[stream[position]]
                begun = time.perf_counter()
                response = fleet[domain].submit(query, k=K)
                latencies[position] = time.perf_counter() - begun
                signatures[position] = _answer_signature(response)
        except BaseException as error:  # pragma: no cover - fail loudly
            errors.append(error)

    threads = [
        threading.Thread(target=run, args=(index,), name=f"bench-w{index}")
        for index in range(workers)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = max(time.perf_counter() - start, 1e-9)
    if errors:
        raise errors[0]
    ordered = sorted(latencies)
    return {
        "workers": workers,
        "requests": len(stream),
        "wall_s": round(elapsed, 3),
        "requests_per_s": round(len(stream) / elapsed, 1),
        "latency_ms": {
            "p50": round(_percentile(ordered, 0.50) * 1000, 3),
            "p95": round(_percentile(ordered, 0.95) * 1000, 3),
            "p99": round(_percentile(ordered, 0.99) * 1000, 3),
        },
        "signatures": signatures,
    }


class TestServingTrajectory:
    def test_write_bench_serving(self, out_dir):
        population = _templates()
        stream = _zipf_stream(len(population), REQUESTS)
        touched = sorted({index for index in stream})
        # Plans are cached per query template, so labels that differ
        # only in constants (news topics/sectors, weekend budgets)
        # share one plan-cache key: the domain (one registry, so one
        # content epoch) plus the template fingerprint (metric, k and
        # optimizer config are fixed here).
        touched_keys = {
            (domain, template_fingerprint(query))
            for domain, _, query in (population[i] for i in touched)
        }

        # Cold baseline: every submission optimizes and fetches afresh.
        cold = _replay(_baseline_fleet(), population, stream)

        # Warm fleet: shared persistent plan cache + shared service
        # caches.  The cache file starts absent so the run is
        # reproducible.
        cache_path = out_dir / "plan_cache_serving.json"
        if cache_path.exists():
            cache_path.unlink()
        plan_cache = PlanCache(path=cache_path)
        fleet = _fleet(plan_cache)
        warm = _replay(fleet, population, stream)
        warm["plan_cache"] = plan_cache.stats.to_dict()
        hit_rate = plan_cache.stats.hit_rate

        # Restarted fleet: fresh processes, same plan-cache file.
        restarted_cache = PlanCache(path=cache_path)
        restarted = _replay(_fleet(restarted_cache), population, stream)
        restarted["plan_cache"] = restarted_cache.stats.to_dict()

        # Differential: warm answers are bit-identical to cold ones.
        # The cold signatures double as the sequential oracle for the
        # concurrency sweep below (answers are a pure function of
        # registry content, query, and k).
        fresh = _baseline_fleet()
        oracle: dict[int, tuple] = {}
        for index in touched:
            domain, label, query = population[index]
            warm_answer = fleet[domain].submit(query, k=K)
            assert warm_answer.provenance == "memory", label
            cold_answer = fresh[domain].submit(query, k=K)
            oracle[index] = _answer_signature(cold_answer)
            assert _answer_signature(warm_answer) == oracle[
                index
            ], f"warm answer diverged from cold for {label}"

        # The acceptance criteria of the subsystem.
        assert hit_rate >= 0.8, f"warm hit rate {hit_rate:.2%} below 80%"
        assert (
            warm["optimizer_annotate_calls"]
            < cold["optimizer_annotate_calls"]
        )
        assert warm["service_calls"] < cold["service_calls"]
        assert restarted_cache.stats.misses == 0, "disk tier must start warm"

        # Concurrency sweep: N threads share one fleet over the SQLite
        # WAL tier.  Bit-identity and sequential accounting must hold
        # for every worker count.
        sweep = []
        sqlite_path = None
        for workers in WORKER_COUNTS:
            sqlite_path = out_dir / f"plan_cache_serving_w{workers}.sqlite"
            _remove_sqlite_files(sqlite_path)
            swept_cache = PlanCache(path=sqlite_path)
            swept_fleet = _fleet(swept_cache)
            run = _threaded_replay(swept_fleet, population, stream, workers)
            for position, signature in enumerate(run.pop("signatures")):
                assert signature == oracle[stream[position]], (
                    f"answer diverged from sequential oracle at request "
                    f"{position} with {workers} workers"
                )
            # Single-flight pins the accounting to the sequential
            # schedule: one miss (and one optimize) per touched
            # template, independent of the thread count.
            assert swept_cache.stats.lookups == REQUESTS
            assert swept_cache.stats.misses == len(touched_keys)
            assert sum(
                s.stats.optimizer_runs for s in swept_fleet.values()
            ) == len(touched_keys)
            if not QUICK:
                assert swept_cache.stats.hit_rate >= 0.95, (
                    f"hit rate regressed: {swept_cache.stats.hit_rate:.2%}"
                )
            percentiles = run["latency_ms"]
            assert 0 < percentiles["p50"] <= percentiles["p95"] <= (
                percentiles["p99"]
            )
            run["plan_cache"] = swept_cache.stats.to_dict()
            run["hit_rate"] = round(swept_cache.stats.hit_rate, 4)
            run["backend"] = swept_cache.backend_name
            sweep.append(run)
            swept_cache.close()

        # Restart-from-SQLite warm start: a fresh fleet over the last
        # sweep's database replays every touched template with zero
        # misses and zero optimizer runs.  The first label of each key
        # is read from disk and promoted; later labels hit memory.
        warm_start_cache = PlanCache(path=sqlite_path)
        warm_start_fleet = _fleet(warm_start_cache)
        promoted: set[tuple[str, str]] = set()
        for index in touched:
            domain, label, query = population[index]
            response = warm_start_fleet[domain].submit(query, k=K)
            key = (domain, template_fingerprint(query))
            expected = "memory" if key in promoted else "disk"
            promoted.add(key)
            assert response.provenance == expected, label
            assert _answer_signature(response) == oracle[index], label
        assert warm_start_cache.stats.misses == 0, (
            "SQLite tier must start warm after restart"
        )
        warm_start = {
            "backend": warm_start_cache.backend_name,
            "requests": len(touched),
            "plan_cache": warm_start_cache.stats.to_dict(),
        }
        warm_start_cache.close()

        payload = {
            "bench": "serving",
            "quick": QUICK,
            "workload": {
                "requests": REQUESTS,
                "k": K,
                "distinct_templates": len(population),
                "templates_touched": len(touched),
                "plan_cache_keys_touched": len(touched_keys),
                "zipf_exponent": ZIPF_EXPONENT,
                "domains": sorted(_REGISTRIES),
                "baseline": "per-request optimization, no plan cache, "
                "private service caches",
            },
            "cold_baseline": cold,
            "warm_fleet": warm,
            "restarted_fleet": restarted,
            "concurrency": {
                "worker_counts": list(WORKER_COUNTS),
                "backend": "sqlite",
                "sweep": sweep,
                "restart_from_sqlite": warm_start,
            },
            "savings": {
                "plan_cache_hit_rate": round(hit_rate, 4),
                "optimizer_annotate_calls_saved": (
                    cold["optimizer_annotate_calls"]
                    - warm["optimizer_annotate_calls"]
                ),
                "service_calls_saved": (
                    cold["service_calls"] - warm["service_calls"]
                ),
                "throughput_speedup": round(
                    warm["requests_per_s"] / cold["requests_per_s"], 2
                ),
            },
        }
        (out_dir / bench_out_name("BENCH_serving.json")).write_text(
            json.dumps(payload, indent=2) + "\n"
        )

    def test_bench_serving_warm_submit(self, benchmark):
        service = QueryService(registry=news_registry(), k_default=K)
        query = market_moving_news_query()
        service.submit(query, k=K)  # prime plan + service caches
        response = benchmark(lambda: service.submit(query, k=K))
        assert response.provenance == "memory"
        assert response.stats["service_calls"] == 0
