"""Closed-loop serving benchmark of the multi-domain query service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload zipf-warm --seed 1 --seconds 45 --trace 0

One client thread drives one workload (see ``workloads.py``) as a
closed loop: the next op is sent only after the previous reply has
been encoded with ``QueryResponse.to_json``, as the CLI ``serve`` loop
does.  Nothing in the service queues arrivals, so a closed loop is the
model that matches it.

The run repeats *passes* until ``--seconds`` are used up.  A pass
builds a fresh fleet (timed as ``setup_s``), replays the seeded op
stream once, checks every answer against a cold oracle outside the
timed region, and closes the fleet.  Every pass replays the same
stream, so the exact counters (calls, fetches, virtual time, rounds,
engine calls, annotate calls, evictions) must agree between all
passes, traced or not; the run is marked incorrect otherwise.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the traced ones (``spans.py``), plus the
tracing overhead as traced over untraced median op latency.

Standard output ends with a report line (run metadata, sample counts,
the traced split) and then the result line
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import sqlite3
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# Measure the checkout's own sources, never an installed copy.
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"no repro package under {ROOT / 'src'} to measure")
sys.path.insert(0, str(ROOT / "src"))

from repro.serving import PlanCache, QueryService  # noqa: E402
from spans import SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS, Fleet, Op, Workload  # noqa: E402

#: A p99 is given only with at least this many distinct ops beyond it.
TAIL_SAMPLES = 10
#: ``setup_s`` is the median of at least this many set-ups.
MIN_SETUPS = 3
#: Scratch space for SQLite files, inside the checkout; removed on exit.
WORK_ROOT = ROOT / ".perfbench-work"


# -- one pass ----------------------------------------------------------------


def _signature(response) -> tuple:
    """What the oracle compares: rows, composed ranks, per-service rank
    values.  Plan node ids (a process-wide counter) and ``complete``
    (differs between a grown session and a cold run) are left out."""
    return (
        response.rows,
        response.rank_keys,
        tuple(tuple(rank for _, rank in row) for row in response.ranks),
    )


def _oracle(registry, query, k: int) -> tuple:
    """A cold submit: fresh service, empty plan and service caches."""
    cold = QueryService(registry=registry, k_default=k,
                        plan_cache=PlanCache(capacity=0),
                        share_service_cache=False)
    return _signature(cold.submit(query, k=k))


def _sqlite_settings(connection: sqlite3.Connection | None) -> dict | None:
    if connection is None:
        return None
    return {
        pragma: connection.execute(f"PRAGMA {pragma}").fetchone()[0]
        for pragma in ("journal_mode", "synchronous")
    }


def _fleet_settings(fleet: Fleet) -> dict:
    """Cache and storage settings as the live fleet has them, so that
    both sides of a comparison can be checked to match."""
    tier = getattr(fleet.plan_cache, "_tier", None)
    tier_connection = getattr(tier, "_connection", None)
    services = {}
    for domain, service in fleet.services.items():
        for remote in service.registry:
            pool = getattr(remote, "_pool", None)
            if pool is not None:
                services[f"{domain}/{remote.name}"] = _sqlite_settings(
                    pool.connection()
                )
    return {
        "plan_cache_backend": fleet.plan_cache.backend_name,
        "plan_cache_memory_capacity": fleet.plan_cache.capacity,
        "service_cache_capacity": {
            domain: service.service_cache_capacity
            for domain, service in fleet.services.items()
        },
        "sqlite_version": sqlite3.sqlite_version,
        "plan_cache_sqlite": _sqlite_settings(
            tier_connection() if tier_connection else None
        ),
        "services_sqlite": services,
    }


@dataclass
class Pass:
    """One replay of the op stream on a fresh fleet."""

    traced: bool
    setup_s: float = 0.0
    #: Set-up plus replay; the oracle, memoised per run, is left out.
    pass_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: The exact counters every pass of a run must reproduce.
    counters: dict = field(default_factory=dict)
    #: Tracer totals of a traced pass.
    spans: dict | None = None
    settings: dict | None = None
    #: Per op: (rows delivered, answer signature), None on error.
    answers: list = field(default_factory=list)


def run_pass(workload: Workload, ops: list[Op], workdir: Path, traced: bool,
             oracle: dict) -> Pass:
    result = Pass(traced)
    workdir.mkdir()
    began = perf_counter()
    fleet = workload.setup(workdir)
    result.setup_s = perf_counter() - began
    try:
        _replay(fleet, ops, result)
        result.pass_s = perf_counter() - began
        _check(fleet, ops, result, oracle)
        result.settings = _fleet_settings(fleet)
    finally:
        fleet.close()
    return result


def _service_cache_evictions(fleet: Fleet) -> int:
    return sum(
        service.snapshot().get("service_cache", {}).get("evictions", 0)
        for service in fleet.services.values()
    )


def _replay(fleet: Fleet, ops: list[Op], result: Pass) -> None:
    """The closed loop.  Only the request and its encoding are timed;
    bookkeeping between ops happens outside the timed region."""
    plan_stats = fleet.plan_cache.stats
    plan_before = plan_stats.to_dict()
    evictions_before = _service_cache_evictions(fleet)
    sessions: dict[int, str] = {}
    delivered: dict[int, int] = {}
    totals = dict.fromkeys(
        ("service_calls", "page_fetches", "cache_hits", "tuples_fetched",
         "rounds", "annotate_calls", "engine_calls", "answers"), 0)
    virtual_s = 0.0
    cost_ratios: list[float] = []
    answers: list = []
    tracer = Tracer() if result.traced else None
    with tracer or contextlib.nullcontext():
        for index, op in enumerate(ops):
            service = fleet.services[op.domain]
            opened = index if op.query is not None else op.opened_by
            began = perf_counter()
            try:
                if op.query is not None:
                    response = service.submit(op.query, k=op.k)
                else:
                    response = service.ask_for_more(sessions[opened], op.k)
                response.to_json()
            except Exception as error:  # counted as failed; the loop goes on
                result.latencies.append(perf_counter() - began)
                result.failed += 1
                result.errors.append(f"op {index}: {error!r}")
                answers.append(None)
                continue
            result.latencies.append(perf_counter() - began)
            stats = response.stats
            sessions[opened] = response.session_id
            executor = service.sessions.get(response.session_id).executor
            new_rounds = executor.rounds[len(executor.rounds) - stats["rounds"]:]
            totals["engine_calls"] += sum(not r.resumed for r in new_rounds)
            for key in ("service_calls", "page_fetches", "cache_hits",
                        "tuples_fetched", "rounds", "annotate_calls"):
                totals[key] += stats[key]
            virtual_s += stats["elapsed_virtual_s"]
            totals["answers"] += len(response.rows) - delivered.get(opened, 0)
            delivered[opened] = len(response.rows)
            if response.plan_cost and stats["page_fetches"]:
                cost_ratios.append(
                    stats["elapsed_virtual_s"] / response.plan_cost
                )
            answers.append((len(response.rows), _signature(response)))
            if op.release:
                service.release(response.session_id)
    plan_after = plan_stats.to_dict()
    result.counters = {
        **totals,
        "virtual_s": virtual_s,
        "service_cache_evictions": (
            _service_cache_evictions(fleet) - evictions_before
        ),
        **{
            f"plan_cache_{key}": plan_after[key] - plan_before[key]
            for key in ("memory_hits", "disk_hits", "misses", "stores",
                        "evictions")
        },
        "cost_ratio_median": _median(cost_ratios),
        "cost_log_error_median": _median(
            [abs(math.log(ratio)) for ratio in cost_ratios]
        ),
        "answer_signatures": hashlib.sha256(
            repr(answers).encode()
        ).hexdigest(),
    }
    result.spans = tracer.totals if tracer is not None else None
    result.answers = answers


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _check(fleet: Fleet, ops: list[Op], result: Pass, oracle: dict) -> None:
    """Compare every answered op with a cold submit of its query.

    A continuation is compared with a cold submit at the session's
    delivered count.  A submit is compared at the k it asked for: rank
    keys are composed over the plan's ranked nodes, and a submit that
    found fewer than k answers ran a plan optimized for k, which can
    differ from the plan a cold submit at the smaller count would get.
    """
    for index, (op, answer) in enumerate(zip(ops, result.answers)):
        if answer is None:
            continue
        delivered, signature = answer
        if op.query is not None:
            query, k = op.query, op.k
        else:
            query, k = ops[op.opened_by].query, delivered
        key = (op.domain, op.label, k)
        if key not in oracle:
            oracle[key] = _oracle(fleet.services[op.domain].registry, query,
                                  k)
        if oracle[key] != signature:
            result.failed += 1
            result.errors.append(f"op {index}: answer differs from oracle")
    result.answers = []


# -- the run -----------------------------------------------------------------


def measure(workload: Workload, ops: list[Op], seconds: float,
            traced: bool) -> tuple[list[Pass], list[float]]:
    """Passes until *seconds* are used: a pass is started only when it
    is expected to end in time, once the minimum passes are done.

    Returns the passes and the set-up times.  An untraced run tops the
    set-ups up with fleets that replay nothing, so that ``setup_s`` is
    a median of at least ``MIN_SETUPS``.
    """
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    oracle: dict = {}
    passes: list[Pass] = []
    started = perf_counter()
    try:
        while True:
            trace_pass = traced and len(passes) % 2 == 1
            passes.append(run_pass(workload, ops, workdir / str(len(passes)),
                                   trace_pass, oracle))
            gc.collect()
            if (len(passes) >= (2 if traced else 1)
                    and perf_counter() - started + passes[-1].pass_s > seconds):
                break
        setups = [p.setup_s for p in passes]
        while not traced and len(setups) < MIN_SETUPS:
            setup_dir = workdir / f"setup{len(setups)}"
            setup_dir.mkdir()
            began = perf_counter()
            fleet = workload.setup(setup_dir)
            setups.append(perf_counter() - began)
            fleet.close()
            gc.collect()
        return passes, setups
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def _p99(passes: list[Pass]) -> dict:
    """Nearest-rank p99 of the pooled op latencies, with its counts.

    Passes replay one stream, so a sample beyond the p99 counts as
    evidence of the tail only once per op: the p99 is given only when
    at least ``TAIL_SAMPLES`` distinct ops lie beyond it.
    """
    samples = sorted(
        (latency, index)
        for p in passes for index, latency in enumerate(p.latencies)
    )
    rank = math.ceil(0.99 * len(samples))
    value = samples[rank - 1][0]
    beyond = [index for latency, index in samples[rank:] if latency > value]
    distinct = len(set(beyond))
    return {
        "op_p99_ms": value * 1e3 if distinct >= TAIL_SAMPLES else None,
        "op_samples": len(samples),
        "p99_samples_beyond": len(beyond),
        "p99_distinct_ops_beyond": distinct,
    }


def end_to_end(passes: list[Pass], setups: list[float]) -> tuple[dict, dict]:
    latencies = [s for p in passes for s in p.latencies]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }
    # The p99 is reported here, not as a metric: across runs on a shared
    # two-core host it spread by 0.27-0.32 of its median, more than any
    # bound a metric may have.
    return metrics, {"setup_s_samples": setups, **_p99(passes)}


def _per_call_ms(spans: dict, name: str) -> float:
    calls, total, _ = spans[name]
    return total / calls * 1e3 if calls else 0.0


def per_layer(passes: list[Pass]) -> tuple[dict, dict]:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    spans = {
        name: [sum(p.spans[name][i] for p in traced) for i in range(3)]
        for name, _, _ in SPANS
    }
    ops = sum(len(p.latencies) for p in traced)
    c = traced[0].counters

    def self_ms(*names: str, per: int) -> float:
        return sum(spans[n][2] for n in names) / per * 1e3 if per else 0.0

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    submits = spans["serving.submit"][0]
    continuations = spans["serving.ask_for_more"][0]
    lookups = (c["plan_cache_memory_hits"] + c["plan_cache_disk_hits"]
               + c["plan_cache_misses"])
    ops_per_pass = ops / len(traced)
    untraced_p50 = statistics.median(s for p in untraced for s in p.latencies)
    traced_p50 = statistics.median(s for p in traced for s in p.latencies)
    metrics = {
        "serving.submit.self_ms": (
            self_ms("serving.submit", per=submits), "ms"),
        "serving.ask_for_more.self_ms": (
            self_ms("serving.ask_for_more", per=continuations), "ms"),
        "serving.plan_cache.lookup_ms": (
            _per_call_ms(spans, "serving.plan_cache.lookup"), "ms"),
        "serving.plan_cache.store_ms": (
            _per_call_ms(spans, "serving.plan_cache.store"), "ms"),
        "serving.plan_cache.hit_rate": (
            share(lookups - c["plan_cache_misses"], lookups), "ratio"),
        "serving.plan_cache.disk_hits_per_op": (
            c["plan_cache_disk_hits"] / ops_per_pass, "count"),
        "serving.encode_ms": (_per_call_ms(spans, "serving.encode"), "ms"),
        "serving.service_cache.evictions_per_op": (
            c["service_cache_evictions"] / ops_per_pass, "count"),
        "optimizer.optimize_ms": (
            _per_call_ms(spans, "optimizer.optimize"), "ms"),
        "optimizer.annotate_calls_per_miss": (
            share(c["annotate_calls"], c["plan_cache_misses"]), "count"),
        "optimizer.cost_ratio": (c["cost_ratio_median"], "ratio"),
        "optimizer.cost_log_error": (c["cost_log_error_median"], "ratio"),
        "plans.build_ms": (_per_call_ms(spans, "plans.build"), "ms"),
        "plans.build_calls_per_op": (
            share(spans["plans.build"][0], ops), "count"),
        # One top-level progressive call per op (``more`` calls ``run``).
        "execution.progressive.self_ms": (
            self_ms("execution.progressive.run", "execution.progressive.more",
                    per=ops), "ms"),
        "execution.engine.self_ms": (
            self_ms("execution.engine", per=spans["execution.engine"][0]),
            "ms"),
        "execution.engine_calls_per_op": (
            c["engine_calls"] / ops_per_pass, "count"),
        "execution.rounds_per_op": (c["rounds"] / ops_per_pass, "count"),
        "execution.cache_hit_share": (
            share(c["cache_hits"], c["cache_hits"] + c["service_calls"]),
            "ratio"),
        "execution.tuples_per_answer": (
            share(c["tuples_fetched"], c["answers"]), "count"),
        "execution.calls_per_op": (
            c["service_calls"] / ops_per_pass, "count"),
        "execution.fetches_per_op": (
            c["page_fetches"] / ops_per_pass, "count"),
        "execution.virtual_s_per_op": (c["virtual_s"] / ops_per_pass, "s"),
        "services.invoke_ms": (_per_call_ms(spans, "services.invoke"), "ms"),
        "services.invokes_per_op": (
            share(spans["services.invoke"][0], ops), "count"),
        "tracing.overhead_ratio": (traced_p50 / untraced_p50, "ratio"),
    }
    wall = sum(s for p in traced for s in p.latencies)
    roots = spans["serving.submit"][1] + spans["serving.ask_for_more"][1] + (
        spans["serving.encode"][1])
    split = {
        name: {
            "calls_per_op": calls / ops,
            "self_ms_per_op": self_s / ops * 1e3,
            "self_share": share(self_s, wall),
        }
        for name, (calls, _, self_s) in spans.items()
    }
    split["unattributed"] = {"self_ms_per_op": (wall - roots) / ops * 1e3,
                             "self_share": share(wall - roots, wall)}
    report = {
        "traced_ops": ops,
        "untraced_ops": sum(len(p.latencies) for p in untraced),
        "untraced_op_p50_ms": untraced_p50 * 1e3,
        "traced_op_p50_ms": traced_p50 * 1e3,
        "split": split,
    }
    # The tracer's own counts must agree with the program's counters.
    if spans["execution.engine"][0] != c["engine_calls"] * len(traced):
        raise RuntimeError("traced engine calls differ from the counters")
    return metrics, report


def _commit() -> str | None:
    """The checked-out commit, when the tree is a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    """sha256 over the program's sources, so a result names its code
    even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A run stopped from outside still removes its scratch files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workload = WORKLOADS[args.workload]
    ops = workload.make_ops(args.seed)
    # SQLite's own temporary files stay inside the checkout too.
    os.environ["SQLITE_TMPDIR"] = str(WORK_ROOT)
    passes, setups = measure(workload, ops, args.seconds,
                             traced=bool(args.trace))

    counters = passes[0].counters
    consistent = all(p.counters == counters for p in passes)
    failed = sum(p.failed for p in passes)
    attempted = sum(len(p.latencies) for p in passes)
    untraced = [p for p in passes if not p.traced]
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_digest": _source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "config": workload.config,
        "settings": passes[0].settings,
        "ops_per_pass": len(ops),
        "passes": len(passes),
        "traced_passes": sum(p.traced for p in passes),
        "pass_op_p50_ms": [
            statistics.median(p.latencies) * 1e3 for p in passes
        ],
        "counters_per_pass": counters,
        "counters_identical": consistent,
        "failed_share": failed / attempted,
        "errors": [e for p in passes for e in p.errors][:20],
    }
    if args.trace:
        metrics, traced_report = per_layer(passes)
        report.update(traced_report)
    else:
        metrics, samples = end_to_end(untraced, setups)
        report.update(samples)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": consistent and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
