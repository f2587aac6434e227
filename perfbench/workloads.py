"""The benchmark's three serving workloads.

Each workload is a seeded op stream plus a fleet factory.  An *op* is
one ``QueryService.submit`` or one ``QueryService.ask_for_more``; the
stream is generated from the seed before anything is timed, so the
program under test receives only the generated queries.  ``setup``
builds a fresh fleet (registries, corpus, SQLite stores, services,
plan cache) and runs the workload's priming pass; it is what
``setup_s`` times.

Why these three (see README.md for the per-layer predictions):

* ``zipf-warm`` — the warm served-request hot path: every plan comes
  from the memory tier and every page from the shared service cache,
  so engine execution does the work and the optimizer and services do
  none;
* ``cold-churn`` — almost every op is a plan-cache miss, so
  branch-and-bound, plan-cache stores and disk-tier reads do the work
  that ``zipf-warm`` bypasses;
* ``biblio-sessions`` — ``ask_for_more`` continuations over a 20k-paper
  SQLite corpus whose pages do not fit the bounded shared service
  cache, so lazy cursors, SQLite paging and cache eviction do the work.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.model.query import ConjunctiveQuery
from repro.serving import PlanCache, QueryService
from repro.sources.biblio import biblio_registry, experts_query, generate_corpus
from repro.sources.bio import bio_registry, glycolysis_homolog_query
from repro.sources.news import market_moving_news_query, news_registry
from repro.sources.travel import running_example_query, travel_registry
from repro.sources.weekend import mahler_weekend_query, weekend_registry


@dataclass(frozen=True)
class Op:
    """One client request of the closed loop.

    A submit carries its ``query``; a continuation has ``query=None``
    and names, in ``opened_by``, the stream position of the submit
    whose session it continues.  ``release`` closes the session after
    the reply, as a client that is done with it would.
    """

    domain: str
    label: str
    k: int
    query: ConjunctiveQuery | None = None
    opened_by: int = -1
    release: bool = False


@dataclass
class Fleet:
    """The services one pass drives, and what must be closed after it."""

    services: dict[str, QueryService]
    plan_cache: PlanCache
    closers: tuple[Callable[[], None], ...] = ()

    def close(self) -> None:
        for close in self.closers:
            close()


@dataclass(frozen=True)
class Workload:
    name: str
    make_ops: Callable[[int], list[Op]]
    setup: Callable[[Path], Fleet]
    #: The stream's shape, recorded in every result.
    config: dict


# -- zipf-warm -------------------------------------------------------------

ZIPF_OPS = 1000
ZIPF_K = 5
ZIPF_EXPONENT = 1.1

_FLEET_REGISTRIES = {
    "travel": travel_registry,
    "news": news_registry,
    "bio": bio_registry,
    "weekend": weekend_registry,
}


def _serving_templates() -> list[tuple[str, str, ConjunctiveQuery]]:
    """The 13 (domain, label, query) templates of the serving bench,
    most popular first."""
    templates = [
        ("travel", "travel/showcase", running_example_query()),
        ("bio", "bio/glycolysis", glycolysis_homolog_query()),
    ]
    for topic in ("merger", "earnings", "recall", "lawsuit"):
        for sector in ("tech", "energy"):
            templates.append(
                ("news", f"news/{topic}-{sector}",
                 market_moving_news_query(topic, sector))
            )
    for budget in (100, 120, 150):
        templates.append(
            ("weekend", f"weekend/b{budget}", mahler_weekend_query(budget))
        )
    return templates


def _zipf_ops(seed: int) -> list[Op]:
    # Every seed replays the same multiset of requests -- each template
    # as often as its Zipf weight says -- in a seeded order, so the
    # spread between seeds reflects the program, not a lucky draw of a
    # bimodal mix.
    templates = _serving_templates()
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(templates))]
    stream = [i for i, count in enumerate(_apportion(weights, ZIPF_OPS))
              for _ in range(count)]
    random.Random(seed).shuffle(stream)
    return [
        Op(domain=templates[i][0], label=templates[i][1], k=ZIPF_K,
           query=templates[i][2], release=True)
        for i in stream
    ]


def _apportion(weights: list[float], total: int) -> list[int]:
    """Integer counts summing to *total* in proportion to *weights*
    (largest remainders get the leftover units)."""
    scale = total / sum(weights)
    counts = [int(w * scale) for w in weights]
    by_remainder = sorted(range(len(weights)),
                          key=lambda i: counts[i] - weights[i] * scale)
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _zipf_setup(workdir: Path) -> Fleet:
    plan_cache = PlanCache()
    services = {
        domain: QueryService(registry=build(), k_default=ZIPF_K,
                             plan_cache=plan_cache)
        for domain, build in _FLEET_REGISTRIES.items()
    }
    # Priming: one submit per template fills the plan cache's memory
    # tier and the shared service caches before anything is timed.
    for domain, _, query in _serving_templates():
        response = services[domain].submit(query, k=ZIPF_K)
        services[domain].release(response.session_id)
    return Fleet(services=services, plan_cache=plan_cache)


ZIPF_WARM = Workload(
    name="zipf-warm",
    make_ops=_zipf_ops,
    setup=_zipf_setup,
    config={
        "ops_per_pass": ZIPF_OPS,
        "k": ZIPF_K,
        "zipf_exponent": ZIPF_EXPONENT,
    },
)


# -- cold-churn ------------------------------------------------------------

CHURN_OPS = 1000
CHURN_K = 5
CHURN_MEMORY_CAPACITY = 128
#: From this op on, every fourth op re-submits a query the plan cache's
#: memory tier has evicted (a disk-tier hit): ~21% of the ops.
CHURN_REPEATS_FROM = 152
CHURN_REPEAT_EVERY = 4
#: Share of the fresh queries that go to the news domain.
CHURN_NEWS_SHARE = 0.75
_NEWS_TOPICS = ("merger", "earnings", "recall", "lawsuit")
_NEWS_SECTORS = ("tech", "energy", "retail", "biotech")
_NEWS_MOVES = range(-10, 31)
_WEEKEND_BUDGETS = range(40, 301)
CHURN_PRIMING_MOVE = -50
CHURN_PRIMING_BUDGET = 1000


def _churn_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    repeat = [i >= CHURN_REPEATS_FROM and i % CHURN_REPEAT_EVERY == 0
              for i in range(CHURN_OPS)]
    fresh_count = repeat.count(False)
    news_count = round(fresh_count * CHURN_NEWS_SHARE)
    news = rng.sample(
        [(topic, sector, move) for topic in _NEWS_TOPICS
         for sector in _NEWS_SECTORS for move in _NEWS_MOVES],
        news_count,
    )
    budgets = rng.sample(list(_WEEKEND_BUDGETS), fresh_count - news_count)
    fresh = [
        ("news", f"news/{topic}-{sector}-m{move}",
         market_moving_news_query(topic, sector, move))
        for topic, sector, move in news
    ] + [
        ("weekend", f"weekend/b{budget}", mahler_weekend_query(budget))
        for budget in budgets
    ]
    rng.shuffle(fresh)
    # A model of the plan cache's LRU memory tier, which the priming
    # pass fills first: a repeat is drawn only from queries the tier
    # has evicted, so every repeat is a disk hit.
    memory: OrderedDict[str, tuple[str, str, ConjunctiveQuery]] = OrderedDict(
        (label, (domain, label, query))
        for domain, label, query in _churn_priming()
    )
    evicted: list[tuple[str, str, ConjunctiveQuery]] = []
    ops: list[Op] = []
    for is_repeat in repeat:
        if is_repeat:
            domain, label, query = evicted.pop(rng.randrange(len(evicted)))
        else:
            domain, label, query = fresh.pop()
        memory[label] = (domain, label, query)
        while len(memory) > CHURN_MEMORY_CAPACITY:
            evicted.append(memory.popitem(last=False)[1])
        ops.append(Op(domain=domain, label=label, k=CHURN_K, query=query,
                      release=True))
    return ops


def _churn_priming() -> list[tuple[str, str, ConjunctiveQuery]]:
    """Constants outside the stream's ranges: one query per news topic
    and sector, and one weekend query, to warm the service caches as a
    running server has them."""
    return [
        ("news", f"news/{topic}-{sector}-m{CHURN_PRIMING_MOVE}",
         market_moving_news_query(topic, sector, CHURN_PRIMING_MOVE))
        for topic in _NEWS_TOPICS for sector in _NEWS_SECTORS
    ] + [
        ("weekend", f"weekend/b{CHURN_PRIMING_BUDGET}",
         mahler_weekend_query(CHURN_PRIMING_BUDGET)),
    ]


def _churn_setup(workdir: Path) -> Fleet:
    plan_cache = PlanCache(path=workdir / "plans.sqlite",
                           capacity=CHURN_MEMORY_CAPACITY)
    services = {
        "news": QueryService(registry=news_registry(), k_default=CHURN_K,
                             plan_cache=plan_cache),
        "weekend": QueryService(registry=weekend_registry(),
                                k_default=CHURN_K, plan_cache=plan_cache),
    }
    for domain, _, query in _churn_priming():
        services[domain].release(services[domain].submit(query).session_id)
    return Fleet(services=services, plan_cache=plan_cache,
                 closers=(plan_cache.close,))


COLD_CHURN = Workload(
    name="cold-churn",
    make_ops=_churn_ops,
    setup=_churn_setup,
    config={
        "ops_per_pass": CHURN_OPS,
        "k": CHURN_K,
        "repeats_from": CHURN_REPEATS_FROM,
        "repeat_every": CHURN_REPEAT_EVERY,
        "news_share": CHURN_NEWS_SHARE,
    },
)


# -- biblio-sessions -------------------------------------------------------

BIBLIO_PAPERS = 20_000
BIBLIO_CORPUS_SEED = 0
BIBLIO_SESSIONS = 252
BIBLIO_K = 10
BIBLIO_MORE = 3
#: About half of the ~5,000 distinct pages an unbounded 60-session run
#: touches, so the working set does not fit the shared service cache.
BIBLIO_CACHE_CAPACITY = 2_500
_BIBLIO_TOPICS = ("service computing", "data integration", "ranking", "mashups")


def _biblio_ops(seed: int) -> list[Op]:
    # Tenants take turns: each block of four sessions visits every topic
    # once, in a seeded order.  A free shuffle would let the seed change
    # the fetch count by +-10% through the eviction pattern alone.
    rng = random.Random(seed)
    topics: list[str] = []
    for _ in range(BIBLIO_SESSIONS // len(_BIBLIO_TOPICS)):
        block = list(_BIBLIO_TOPICS)
        rng.shuffle(block)
        topics += block
    ops: list[Op] = []
    for topic in topics:
        opened = len(ops)
        ops.append(Op(domain="biblio", label=f"biblio/{topic}", k=BIBLIO_K,
                      query=experts_query(topic)))
        for step in range(BIBLIO_MORE):
            ops.append(Op(domain="biblio", label=f"biblio/{topic}",
                          k=BIBLIO_K, opened_by=opened,
                          release=step == BIBLIO_MORE - 1))
    return ops


def _biblio_setup(workdir: Path) -> Fleet:
    # The corpus is the database, fixed across seeds; the seed drives
    # the session stream.
    registry = biblio_registry(
        backend="sqlite",
        corpus=generate_corpus(BIBLIO_PAPERS, seed=BIBLIO_CORPUS_SEED),
    )
    plan_cache = PlanCache()
    service = QueryService(registry=registry, k_default=BIBLIO_K,
                           plan_cache=plan_cache,
                           service_cache_capacity=BIBLIO_CACHE_CAPACITY)
    # Priming: one plan per topic, so timed submits read the memory tier.
    for topic in _BIBLIO_TOPICS:
        service.release(service.submit(experts_query(topic)).session_id)
    return Fleet(
        services={"biblio": service},
        plan_cache=plan_cache,
        closers=tuple(s.close for s in registry),
    )


BIBLIO_SESSIONS_WORKLOAD = Workload(
    name="biblio-sessions",
    make_ops=_biblio_ops,
    setup=_biblio_setup,
    config={
        "ops_per_pass": BIBLIO_SESSIONS * (1 + BIBLIO_MORE),
        "sessions_per_pass": BIBLIO_SESSIONS,
        "k": BIBLIO_K,
        "continuations_per_session": BIBLIO_MORE,
        "papers": BIBLIO_PAPERS,
        "corpus_seed": BIBLIO_CORPUS_SEED,
    },
)


WORKLOADS = {
    w.name: w for w in (ZIPF_WARM, COLD_CHURN, BIBLIO_SESSIONS_WORKLOAD)
}
