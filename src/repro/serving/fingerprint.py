"""Normalized query fingerprints and plan-cache keys.

The serving layer amortizes optimization across repeated traffic: two
submissions must land on the same cached plan whenever the optimizer
would provably make the same decisions for both.  That holds when

* the queries are identical up to a *renaming of variables* — the
  optimizer never looks at a variable's name, only at the sharing
  structure it induces (which atoms it links, where it repeats);
* the queries are identical up to an *injective renaming of
  constants* — the optimizer never reads a constant's value either.
  It sees a constant only through ``isinstance(term, Constant)``
  (input fields a constant fills are callable, and an all-constant
  input is one cached invocation) and through term or predicate
  equality (which predicates are the same predicate, which atoms
  repeat a term).  Selectivities come from the explicit estimate or
  the operator's default, never from the compared value.  Renaming
  constants by *equality class* keeps all of this intact: equal
  constants share a placeholder, different ones never do;
* the optimizer's inputs agree: registry content (profiles, join
  methods, selectivities — summarized by
  :meth:`~repro.services.registry.ServiceRegistry.content_epoch`),
  the cost metric, the answer budget ``k``, and the cache setting
  assumed while costing plans.

Both fingerprints come from one renderer, which renames variables in
order of first occurrence (head first, then body) and keeps
everything else the optimizer can observe: atom order (plan specs
address atoms by body index), predicate operators and structure, and
explicit selectivities.  The two differ only in how constants are
rendered:

* :func:`canonical_query` / :func:`query_fingerprint` render each
  constant's value (with ``repr``, so ``'5'`` and ``5`` stay
  distinct).  This is the *exact* identity of a submission: responses
  and continuations report it.
* :func:`template_fingerprint` renames constants ``$c0, $c1, ...`` by
  first-occurrence equality class, exactly as variables are renamed.
  This is the identity of the query *template* whose plan is optimized
  once and reused for every constant value (Section 2.2), and it is
  what :func:`plan_cache_key` combines with the optimization context
  into the single string key the
  :class:`~repro.serving.plan_cache.PlanCache` stores under.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.digest import content_digest
from repro.model.predicates import BinaryExpression, Comparison, Expression
from repro.model.query import ConjunctiveQuery
from repro.model.terms import Constant, Term, Variable
from repro.optimizer.optimizer import OptimizerConfig


def canonical_query(query: ConjunctiveQuery) -> str:
    """Alpha-invariant canonical rendering of *query*.

    Variables are renamed ``?0, ?1, ...`` in order of first occurrence
    scanning the head, then the body atoms left to right, then the
    predicates; constants are rendered with ``repr`` so ``'5'`` and
    ``5`` stay distinct.  Atom and predicate order is preserved —
    cached plan specs refer to atoms by body position, so queries that
    differ only in atom order deliberately get different fingerprints.
    """
    return _render(query, lambda constant: f"c:{constant.value!r}")


def _template_constants() -> Callable[[Constant], str]:
    """A fresh constant renamer: ``$c0, $c1, ...`` per equality class.

    Classes are keyed by :class:`Constant` equality — the relation the
    optimizer itself applies to terms and predicates.
    """
    naming: dict[Constant, str] = {}

    def rename(constant: Constant) -> str:
        if constant not in naming:
            naming[constant] = f"$c{len(naming)}"
        return naming[constant]

    return rename


def _render(
    query: ConjunctiveQuery, constant: Callable[[Constant], str]
) -> str:
    """Render *query* with variables renamed by first occurrence and
    constants rendered by the *constant* rule."""
    naming: dict[Variable, str] = {}

    def rename(term: Term) -> str:
        if isinstance(term, Constant):
            return constant(term)
        if term not in naming:
            naming[term] = f"?{len(naming)}"
        return naming[term]

    head = ",".join(rename(variable) for variable in query.head)
    atoms = ";".join(
        f"{atom.service}({','.join(rename(term) for term in atom.terms)})"
        for atom in query.atoms
    )
    predicates = ";".join(
        _render_comparison(predicate, rename) for predicate in query.predicates
    )
    return f"head[{head}]body[{atoms}]where[{predicates}]"

def _render_comparison(
    predicate: Comparison, rename: Callable[[Term], str]
) -> str:
    left = _render_expression(predicate.left, rename)
    right = _render_expression(predicate.right, rename)
    # The explicit selectivity participates: it drives the annotated
    # cardinalities, so the same text with a different estimate may
    # legitimately optimize to a different plan.
    return f"{left}{predicate.op}{right}@{predicate.estimated_selectivity()!r}"


def _render_expression(
    expression: Expression, rename: Callable[[Term], str]
) -> str:
    if isinstance(expression, BinaryExpression):
        left = _render_expression(expression.left, rename)
        right = _render_expression(expression.right, rename)
        return f"({left}{expression.op}{right})"
    return rename(expression)


def query_fingerprint(query: ConjunctiveQuery) -> str:
    """Stable hex digest of the canonical rendering of *query*."""
    return content_digest(canonical_query(query))


def template_fingerprint(query: ConjunctiveQuery) -> str:
    """Stable hex digest of *query*'s template: its canonical rendering
    with constants renamed by first-occurrence equality class."""
    return content_digest(_render(query, _template_constants()))


def query_fingerprints(query: ConjunctiveQuery) -> tuple[str, str]:
    """``(query_fingerprint, template_fingerprint)`` of *query*."""
    return query_fingerprint(query), template_fingerprint(query)


def optimizer_config_token(config: OptimizerConfig) -> str:
    """Stable token over every search-shaping knob of *config*.

    ``k`` and ``cache_setting`` are excluded — they are explicit key
    components already.  ``memoize`` is excluded too: memoization is
    bit-identical to the unmemoized search by contract, so it cannot
    change which plan a key maps to.  Everything else (fetch
    heuristic, exploration, cogency restriction, pruning, topology
    budget) can legitimately pick a different plan for the same query,
    so two services with different configs must never serve each
    other's cache entries.
    """
    fields = dataclasses.asdict(config)
    for keyed_elsewhere in ("k", "cache_setting", "memoize"):
        fields.pop(keyed_elsewhere)
    return content_digest({name: repr(value) for name, value in fields.items()})


def plan_cache_key(
    fingerprint: str,
    epoch: str,
    metric_name: str,
    k: int,
    cache_setting_value: str,
    config_token: str,
) -> str:
    """The plan-cache key for one (query template, optimization
    context) pair; *fingerprint* is a :func:`template_fingerprint`.

    The registry epoch is baked into the key, so entries optimized
    under drifted profiles can never be returned — they simply stop
    being addressed and age out of the LRU tier.  The config token
    does the same for optimizer settings: a cache shared between
    services (or processes) with different search knobs keeps their
    plans apart.
    """
    return "|".join(
        (
            fingerprint,
            epoch,
            metric_name,
            f"k={k}",
            cache_setting_value,
            config_token,
        )
    )
