"""Content fingerprints: profiles, registry epochs, query normalization.

The serving layer's invalidation story rests on three stability
properties, pinned here:

* a :meth:`ServiceProfile.fingerprint` depends on the statistical
  content only — equal profiles hash equally, any field drift changes
  the hash;
* a :meth:`ServiceRegistry.content_epoch` is independent of
  registration/insertion order (dict ordering) but sensitive to every
  optimizer-visible change (profiles, join methods, selectivities);
* a :func:`query_fingerprint` is invariant under alpha-renaming of
  variables but sensitive to constants, selectivities, and atom order
  (plan specs address atoms positionally);
* a :func:`template_fingerprint` is additionally invariant under an
  injective relabeling of constants — and so, property-tested here, is
  the optimizer's plan and cost — but sensitive to merging two
  distinct constants.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.costs.time_cost import ExecutionTimeMetric
from repro.execution.cache import CacheSetting
from repro.model.atoms import Atom
from repro.model.parser import parse_query
from repro.model.predicates import BinaryExpression, Comparison
from repro.model.query import ConjunctiveQuery
from repro.model.terms import Constant
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.plans.spec import PlanSpec
from repro.serving.fingerprint import (
    canonical_query,
    plan_cache_key,
    query_fingerprint,
    query_fingerprints,
    template_fingerprint,
)
from repro.services.profile import exact_profile, search_profile
from repro.services.registry import JoinMethod, ServiceRegistry
from repro.services.table import TableExactService, TableSearchService
from repro.sources.biblio import biblio_registry, experts_query
from repro.sources.bio import bio_registry, glycolysis_homolog_query
from repro.sources.news import market_moving_news_query, news_registry
from repro.sources.travel import running_example_query, travel_registry
from repro.sources.weekend import mahler_weekend_query, weekend_registry


class TestProfileFingerprint:
    def test_equal_profiles_hash_equally(self):
        a = exact_profile(erspi=2.0, response_time=1.5, chunk_size=10)
        b = exact_profile(erspi=2.0, response_time=1.5, chunk_size=10)
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize(
        "change",
        [
            {"erspi": 3.0},
            {"response_time": 2.0},
            {"chunk_size": 5},
            {"decay": 40},
            {"cost_per_call": 2.0},
        ],
    )
    def test_any_field_drift_changes_the_hash(self, change):
        base = search_profile(chunk_size=10, response_time=1.5, decay=80)
        drifted = dataclasses.replace(base, **change)
        assert base.fingerprint() != drifted.fingerprint()

    def test_kind_participates(self):
        exact = exact_profile(erspi=10.0, response_time=1.0, chunk_size=10)
        search = search_profile(chunk_size=10, response_time=1.0, erspi=10.0)
        assert exact.fingerprint() != search.fingerprint()

    @given(
        erspi=st.floats(0.01, 100, allow_nan=False),
        tau=st.floats(0.01, 100, allow_nan=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_fingerprint_equality_tracks_field_equality(self, erspi, tau):
        base = exact_profile(erspi=1.0, response_time=1.0)
        other = exact_profile(erspi=erspi, response_time=tau)
        same_fields = erspi == 1.0 and tau == 1.0
        assert (base.fingerprint() == other.fingerprint()) == same_fields


def _two_service_registry(order: str) -> ServiceRegistry:
    """The same content, registered in two different orders."""
    from repro.model.schema import signature

    alpha = TableExactService(
        signature("alpha", ["A", "B"], ["io", "oi"]),
        exact_profile(erspi=2.0, response_time=1.0),
        [("a", "b")],
        pattern_profiles={"oi": exact_profile(erspi=5.0, response_time=1.0)},
    )
    beta = TableSearchService(
        signature("beta", ["A", "B"], ["io"]),
        search_profile(chunk_size=4, response_time=2.0),
        [("a", index) for index in range(8)],
        score=lambda row: -row[1],
    )
    registry = ServiceRegistry()
    for service in (alpha, beta) if order == "ab" else (beta, alpha):
        registry.register(service)
    if order == "ab":
        registry.register_join_method("alpha", "beta", JoinMethod.MERGE_SCAN)
        registry.register_join_selectivity("alpha", "beta", 0.1)
    else:
        registry.register_join_selectivity("beta", "alpha", 0.1)
        registry.register_join_method("beta", "alpha", JoinMethod.MERGE_SCAN)
    return registry


class TestRegistryEpoch:
    def test_insensitive_to_registration_and_dict_order(self):
        assert (
            _two_service_registry("ab").content_epoch()
            == _two_service_registry("ba").content_epoch()
        )

    def test_deterministic_across_builds(self):
        assert (
            weekend_registry().content_epoch()
            == weekend_registry().content_epoch()
        )

    def test_different_domains_have_different_epochs(self):
        assert (
            weekend_registry().content_epoch()
            != news_registry().content_epoch()
        )

    def test_selectivity_drift_bumps_the_epoch(self):
        registry = weekend_registry()
        before = registry.content_epoch()
        registry.register_join_selectivity("lowcost", "concerts", 0.5)
        assert registry.content_epoch() != before

    def test_join_method_drift_bumps_the_epoch(self):
        registry = weekend_registry()
        before = registry.content_epoch()
        registry.register_join_method(
            "lowcost", "concerts", JoinMethod.NESTED_LOOP
        )
        assert registry.content_epoch() != before

    def test_pattern_profile_override_participates(self):
        base = _two_service_registry("ab")
        from repro.model.schema import signature

        no_override = ServiceRegistry()
        no_override.register(
            TableExactService(
                signature("alpha", ["A", "B"], ["io", "oi"]),
                exact_profile(erspi=2.0, response_time=1.0),
                [("a", "b")],
            )
        )
        assert base.content_epoch() != no_override.content_epoch()


class TestQueryFingerprint:
    def test_alpha_renaming_is_invariant(self):
        a = parse_query("q(X, Y) :- s('m', X, D, Y), Y <= 120.")
        b = parse_query("q(A, B) :- s('m', A, E, B), B <= 120.")
        assert canonical_query(a) == canonical_query(b)
        assert query_fingerprint(a) == query_fingerprint(b)

    def test_constants_are_significant(self):
        a = parse_query("q(X) :- s('m', X).")
        b = parse_query("q(X) :- s('n', X).")
        assert query_fingerprint(a) != query_fingerprint(b)

    def test_constant_type_is_significant(self):
        a = parse_query("q(X) :- s(X, Y), Y <= 5.")
        b = parse_query("q(X) :- s(X, Y), Y <= '5'.")
        assert query_fingerprint(a) != query_fingerprint(b)

    def test_atom_order_is_significant(self):
        a = parse_query("q(X) :- s(X, Y), t(Y, Z).")
        b = parse_query("q(X) :- t(Y, Z), s(X, Y).")
        assert query_fingerprint(a) != query_fingerprint(b)

    def test_variable_sharing_structure_is_significant(self):
        joined = parse_query("q(X) :- s(X, Y), t(Y, Z).")
        cross = parse_query("q(X) :- s(X, Y), t(W, Z).")
        assert query_fingerprint(joined) != query_fingerprint(cross)

    def test_selectivity_participates(self):
        from repro.model.predicates import Comparison
        from repro.model.query import query
        from repro.model.atoms import Atom
        from repro.model.terms import Constant, Variable

        x, y = Variable("X"), Variable("Y")
        atoms = [Atom("s", (x, y))]

        def build(selectivity):
            return query(
                "q", [x], atoms,
                [Comparison(y, "<=", Constant(5), selectivity=selectivity)],
            )

        assert query_fingerprint(build(0.1)) != query_fingerprint(build(0.9))

    def test_rendering_and_digest_are_pinned(self):
        # Responses, continuations, and logs report this digest; the
        # template fingerprint must not have changed it.
        query = parse_query("q(X, Y) :- s('m', X, 5, Y), t(Y, 5), Y <= 120.")
        assert canonical_query(query) == (
            "head[?0,?1]body[s(c:'m',?0,c:5,?1);t(?1,c:5)]"
            "where[?1<=c:120@0.3333333333333333]"
        )
        assert query_fingerprint(query) == "f8a749d62c4b30f2"


def _template(text: str) -> str:
    return template_fingerprint(parse_query(text))


class TestTemplateFingerprint:
    def test_new_constant_values_share_the_template(self):
        assert _template("q(X) :- s('m', X, 5), X <= 3.") == _template(
            "q(X) :- s('n', X, 6), X <= 40."
        )

    def test_constant_type_is_not_part_of_the_template(self):
        assert _template("q(X) :- s(X, Y), Y <= 5.") == _template(
            "q(X) :- s(X, Y), Y <= '5'."
        )

    def test_equal_constants_are_one_class(self):
        # s(X,5,5) repeats a constant; s(X,5,6) does not — a difference
        # the optimizer sees through term equality.
        assert _template("q(X) :- s(X, 5, 5).") != _template(
            "q(X) :- s(X, 5, 6)."
        )
        assert _template("q(X) :- s(X, 5, 5).") == _template(
            "q(X) :- s(X, 7, 7)."
        )

    def test_classes_span_atoms_and_predicates(self):
        assert _template("q(X) :- s(X, 5), X <= 5.") != _template(
            "q(X) :- s(X, 5), X <= 6."
        )

    def test_selectivity_still_counts(self):
        from repro.model.query import query
        from repro.model.terms import Variable

        x, y = Variable("X"), Variable("Y")

        def build(selectivity, bound):
            return query(
                "q", [x], [Atom("s", (x, y))],
                [Comparison(y, "<=", Constant(bound),
                            selectivity=selectivity)],
            )

        assert template_fingerprint(build(0.1, 5)) == template_fingerprint(
            build(0.1, 9)
        )
        assert template_fingerprint(build(0.1, 5)) != template_fingerprint(
            build(0.9, 5)
        )

    @pytest.mark.parametrize(
        "other",
        [
            "q(X) :- s(X, Y), Y >= 5.",  # operator
            "q(X) :- t(X, Y), Y <= 5.",  # service
            "q(Y) :- s(X, Y), Y <= 5.",  # head
            "q(X) :- s(Y, X), Y <= 5.",  # sharing structure
        ],
    )
    def test_structure_still_counts(self, other):
        assert _template("q(X) :- s(X, Y), Y <= 5.") != _template(other)

    def test_atom_order_still_counts(self):
        assert _template("q(X) :- s(X, 'a'), t(X, 'b').") != _template(
            "q(X) :- t(X, 'b'), s(X, 'a')."
        )

    def test_query_fingerprints_returns_both(self):
        query = market_moving_news_query("recall", "energy", 9)
        assert query_fingerprints(query) == (
            query_fingerprint(query), template_fingerprint(query)
        )
        assert query_fingerprint(query) != query_fingerprint(
            market_moving_news_query()
        )
        assert template_fingerprint(query) == template_fingerprint(
            market_moving_news_query()
        )


# -- the soundness of template keys, property-tested ----------------------

_DOMAINS = {
    "biblio": (biblio_registry, experts_query),
    "bio": (bio_registry, glycolysis_homolog_query),
    "news": (news_registry, market_moving_news_query),
    "travel": (travel_registry, running_example_query),
    "weekend": (weekend_registry, mahler_weekend_query),
}


def _constants(query: ConjunctiveQuery) -> list[Constant]:
    """Distinct constants of *query* in first-occurrence order."""
    found: dict[Constant, None] = {}

    def visit(expression):
        if isinstance(expression, BinaryExpression):
            visit(expression.left)
            visit(expression.right)
        elif isinstance(expression, Constant):
            found.setdefault(expression)

    for atom in query.atoms:
        for term in atom.terms:
            visit(term)
    for predicate in query.predicates:
        visit(predicate.left)
        visit(predicate.right)
    return list(found)


def _relabel(query: ConjunctiveQuery, values: dict) -> ConjunctiveQuery:
    """*query* with every constant ``c`` replaced by ``values[c]``."""

    def swap(expression):
        if isinstance(expression, BinaryExpression):
            return BinaryExpression(
                op=expression.op,
                left=swap(expression.left),
                right=swap(expression.right),
            )
        if isinstance(expression, Constant):
            return Constant(values[expression])
        return expression

    return ConjunctiveQuery(
        name=query.name,
        head=query.head,
        atoms=tuple(
            Atom(atom.service, tuple(swap(term) for term in atom.terms))
            for atom in query.atoms
        ),
        predicates=tuple(
            dataclasses.replace(
                predicate, left=swap(predicate.left),
                right=swap(predicate.right),
            )
            for predicate in query.predicates
        ),
    )


def _optimize(domain: str, query: ConjunctiveQuery, k: int):
    registry = _DOMAINS[domain][0]()
    config = OptimizerConfig(k=k, cache_setting=CacheSetting.OPTIMAL)
    optimized = Optimizer(registry, ExecutionTimeMetric(), config).optimize(
        query
    )
    return PlanSpec.from_optimized(optimized), optimized.cost


@lru_cache(maxsize=None)
def _optimized_original(domain: str, k: int):
    return _optimize(domain, _DOMAINS[domain][1](), k)


_new_values = st.lists(
    st.one_of(st.integers(-10**6, 10**6), st.text(max_size=6)),
    min_size=8, max_size=8, unique=True,
)


class TestTemplateRelabelingSoundness:
    """An injective relabeling of constants changes neither the template
    fingerprint nor the optimizer's plan and cost; merging two distinct
    constants changes the template fingerprint."""

    @given(
        domain=st.sampled_from(sorted(_DOMAINS)),
        k=st.sampled_from((1, 5, 10)),
        values=_new_values,
    )
    @settings(max_examples=15, deadline=None)
    def test_injective_relabeling_keeps_template_plan_and_cost(
        self, domain, k, values
    ):
        query = _DOMAINS[domain][1]()
        constants = _constants(query)
        assert len(constants) <= len(values)
        relabeled = _relabel(query, dict(zip(constants, values)))
        assert template_fingerprint(relabeled) == template_fingerprint(query)
        assert _optimize(domain, relabeled, k) == _optimized_original(
            domain, k
        )

    @given(
        domain=st.sampled_from(sorted(_DOMAINS)),
        pair=st.tuples(st.integers(0, 7), st.integers(0, 7)),
        values=_new_values,
    )
    @settings(max_examples=40, deadline=None)
    def test_merging_two_constants_changes_the_template(
        self, domain, pair, values
    ):
        query = _DOMAINS[domain][1]()
        constants = _constants(query)
        first, second = (index % len(constants) for index in pair)
        assume(first != second)
        mapping = dict(zip(constants, values))
        mapping[constants[second]] = mapping[constants[first]]
        merged = _relabel(query, mapping)
        assert template_fingerprint(merged) != template_fingerprint(query)


class TestPlanCacheKey:
    def test_every_component_participates(self):
        base = plan_cache_key("fp", "epoch", "time", 10, "optimal", "cfg")
        for changed in (
            plan_cache_key("fp2", "epoch", "time", 10, "optimal", "cfg"),
            plan_cache_key("fp", "epoch2", "time", 10, "optimal", "cfg"),
            plan_cache_key("fp", "epoch", "requests", 10, "optimal", "cfg"),
            plan_cache_key("fp", "epoch", "time", 11, "optimal", "cfg"),
            plan_cache_key("fp", "epoch", "time", 10, "one-call", "cfg"),
            plan_cache_key("fp", "epoch", "time", 10, "optimal", "cfg2"),
        ):
            assert changed != base


class TestOptimizerConfigToken:
    def test_search_shaping_knobs_participate(self):
        import dataclasses

        from repro.optimizer.optimizer import OptimizerConfig
        from repro.serving.fingerprint import optimizer_config_token

        base = OptimizerConfig()
        token = optimizer_config_token(base)
        for change in (
            {"fetch_heuristic": "square"},
            {"explore_fetches": False},
            {"most_cogent_only": True},
            {"prune": False},
            {"max_topologies_per_sequence": 3},
        ):
            drifted = dataclasses.replace(base, **change)
            assert optimizer_config_token(drifted) != token, change

    def test_keyed_elsewhere_knobs_do_not(self):
        import dataclasses

        from repro.execution.cache import CacheSetting
        from repro.optimizer.optimizer import OptimizerConfig
        from repro.serving.fingerprint import optimizer_config_token

        base = OptimizerConfig()
        token = optimizer_config_token(base)
        # k and cache_setting are explicit plan-cache-key components,
        # and memoize is bit-identical by contract.
        for change in (
            {"k": 25},
            {"cache_setting": CacheSetting.NO_CACHE},
            {"memoize": False},
        ):
            drifted = dataclasses.replace(base, **change)
            assert optimizer_config_token(drifted) == token, change
