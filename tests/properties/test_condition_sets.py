"""Seeded property test: set-at-a-time condition evaluation equals the
per-node oracle.

``repro.core.planner.condition_ids`` answers a selection condition as one
node-id set (index walks per distinct value, reverse-edge semi-joins, set
algebra). For random condition trees up to depth 3 over every node type of
the academic, movies and toy TGDBs it must return exactly
``{n for n in ids if condition.matches(node, graph)}``, and
``candidate_ids`` must list those ids in the type's own order.

The generator draws constants from the data (so conditions hit), plus
constants that do not: NULL, values of the wrong type, node ids of the
wrong type or of no node at all, and neighbor edges whose source is another
type. A copy of the toy graph adds NULL attributes, a mixed int/float
bucket, extra self-loop citations, one unhashable attribute value that
forces the scan fallback, and a one-way edge type (no reverse twin to
semi-join through).
"""

import random

import pytest

from repro.datasets.academic import default_label_overrides
from repro.datasets.toy import generate_toy
from repro.tgm.conditions import (
    AndCondition,
    AttributeCompare,
    AttributeIn,
    AttributeLike,
    LabelLike,
    NeighborSatisfies,
    NodeIn,
    NodeIs,
    NotCondition,
    OrCondition,
)
from repro.tgm.schema_graph import EdgeTypeCategory
from repro.translate import translate_database
from repro.core.planner import ConditionSets, candidate_ids, condition_ids

CONDITIONS_PER_TYPE = 60
MAX_DEPTH = 3
_OPS = ("=", "!=", "<", "<=", ">", ">=")


def _oracle(graph, type_name, condition):
    return [
        node.node_id
        for node in graph.nodes_of_type(type_name)
        if condition.matches(node, graph)
    ]


def _values(graph, type_name, attribute):
    return [
        node.attributes.get(attribute)
        for node in graph.nodes_of_type(type_name)
    ]


def _constant(rng, graph, type_name, attribute):
    roll = rng.random()
    if roll < 0.08:
        return None
    if roll < 0.16:
        return rng.choice(["zzz", 2008, 3.5, True])  # possibly the wrong type
    values = [v for v in _values(graph, type_name, attribute) if v is not None]
    return rng.choice(values) if values else None


def _like_pattern(rng, graph, type_name, attribute):
    values = [
        str(v) for v in _values(graph, type_name, attribute) if v is not None
    ]
    if not values or rng.random() < 0.15:
        return rng.choice(["%", "_%", "%q%", "2012%", ""])
    text = rng.choice(values)
    start = rng.randrange(len(text) + 1)
    fragment = text[start:start + rng.randint(0, 3)]
    return rng.choice(["%{}%", "{}%", "%{}", "{}_%"]).format(fragment)


def _any_node_id(rng, graph):
    return rng.randint(0, graph.node_count + 3)  # 0 and the tail: no node


def random_condition(rng, graph, type_name, depth):
    """A random condition tree over ``type_name`` nodes."""
    schema = graph.schema
    node_type = schema.node_type(type_name)
    if depth > 0 and rng.random() < 0.45:
        kind = rng.choice(["and", "or", "not", "neighbor"])
        if kind == "not":
            return NotCondition(
                random_condition(rng, graph, type_name, depth - 1)
            )
        if kind == "neighbor":
            if rng.random() < 0.8 and schema.edges_from(type_name):
                edge = rng.choice(schema.edges_from(type_name))
            else:  # an edge whose source is another type
                edge = rng.choice(schema.edge_types)
            return NeighborSatisfies(
                edge.name, random_condition(rng, graph, edge.target, depth - 1)
            )
        operands = tuple(
            random_condition(rng, graph, type_name, depth - 1)
            for _ in range(rng.randint(1, 3))
        )
        return (AndCondition if kind == "and" else OrCondition)(operands)
    attribute = rng.choice(node_type.attributes)
    kind = rng.choice(
        ["compare", "compare", "in", "like", "like", "label", "node_is",
         "node_in"]
    )
    if kind == "compare":
        return AttributeCompare(
            attribute, rng.choice(_OPS),
            _constant(rng, graph, type_name, attribute),
        )
    if kind == "in":
        return AttributeIn(attribute, tuple(
            _constant(rng, graph, type_name, attribute)
            for _ in range(rng.randint(0, 3))
        ))
    if kind == "like":
        return AttributeLike(
            attribute, _like_pattern(rng, graph, type_name, attribute),
            negate=rng.random() < 0.4,
        )
    if kind == "label":
        return LabelLike(_like_pattern(
            rng, graph, type_name, node_type.label_attribute
        ))
    own = graph.node_ids_of_type(type_name)
    if kind == "node_is":
        node_id = rng.choice(own) if rng.random() < 0.6 else _any_node_id(
            rng, graph
        )
        return NodeIs(node_id)
    return NodeIn(
        [rng.choice(own) for _ in range(rng.randint(0, 3))]
        + [_any_node_id(rng, graph) for _ in range(rng.randint(0, 3))]
    )


def _edge_cases_graph():
    """A private toy graph with NULLs, a mixed bucket, extra self-loops,
    one unhashable value, and an edge type without a reverse twin."""
    tgdb = translate_database(
        generate_toy(),
        categorical_attributes={"Institutions": ["country"],
                                "Papers": ["year"]},
        label_overrides=default_label_overrides(),
    )
    graph = tgdb.graph
    papers = graph.node_ids_of_type("Papers")
    authors = graph.node_ids_of_type("Authors")
    untitled = graph.add_node("Papers", {"title": None, "year": 2012.0})
    graph.add_node("Papers", {"title": "No Year At All"})
    graph.add_node("Papers", {"title": ["an", "unhashable", "title"],
                              "year": 2012})
    graph.add_edge("Papers->Papers (referencing)", untitled.node_id,
                   papers[0])
    graph.add_edge("Papers->Papers (referencing)", papers[0],
                   untitled.node_id)
    graph.add_edge("Papers->Authors", untitled.node_id, authors[0])
    graph.add_node("Authors", {"name": None})
    graph.schema.add_edge_type("Papers->Authors (one-way)", "Papers",
                               "Authors", EdgeTypeCategory.MANY_TO_MANY)
    for paper_id, author_id in zip(papers, reversed(authors)):
        graph.add_edge("Papers->Authors (one-way)", paper_id, author_id)
    return graph


@pytest.fixture(scope="module")
def edge_cases_graph():
    return _edge_cases_graph()


def _check(graph, seed):
    rng = random.Random(seed)
    sets = ConditionSets(graph)
    checked = 0
    for node_type in graph.schema.node_types:
        type_name = node_type.name
        for _ in range(CONDITIONS_PER_TYPE):
            condition = random_condition(rng, graph, type_name, MAX_DEPTH)
            expected = _oracle(graph, type_name, condition)
            assert condition_ids(graph, type_name, condition) == set(
                expected
            ), f"{type_name}: {condition}"
            # Through the memo, twice: a stored answer equals a fresh one.
            for _ in range(2):
                assert candidate_ids(
                    graph, type_name, condition, sets
                ) == expected, f"{type_name}: {condition}"
            checked += 1
    return checked


@pytest.mark.parametrize("dataset", ["academic", "movies", "toy"])
def test_set_evaluation_equals_per_node_oracle(dataset, request):
    graph = request.getfixturevalue(dataset).graph
    assert _check(graph, seed=f"condition-sets:{dataset}") > 0


def test_set_evaluation_edge_cases(edge_cases_graph):
    graph = edge_cases_graph
    assert not graph.attribute_index_covers("Papers", "title")
    assert graph.attribute_index_covers("Papers", "year")
    assert _check(graph, seed="condition-sets:edge-cases") > 0


@pytest.mark.parametrize("condition", [
    AttributeLike("title", "%data%", negate=True),  # NULL title: no match
    NotCondition(AttributeLike("title", "%data%")),  # ... but Not matches
    NotCondition(AttributeCompare("year", ">", 2000)),  # missing year
    AttributeLike("year", "2012"),  # 2012.0 reads "2012.0", not "2012"
    AttributeLike("year", "2012.0"),
    AttributeCompare("year", "=", 2012),  # the int/float bucket matches
    AttributeIn("year", (2012, None)),
    AttributeLike("title", "%unhashable%"),  # the scan fallback
    LabelLike("%unhashable%"),
    AttributeCompare("title", "=", ["an", "unhashable", "title"]),
    NeighborSatisfies("Papers->Papers (referencing)",
                      AttributeCompare("year", "=", 2012)),
    NeighborSatisfies("Papers->Papers (referenced)",
                      AttributeLike("title", "%")),
    NeighborSatisfies("Authors->Papers", AttributeLike("title", "%")),
    NeighborSatisfies("Papers->Authors", NotCondition(
        AttributeLike("name", "%"))),
    NeighborSatisfies("Papers->Authors (one-way)", AttributeLike("name", "%a%")),
    AndCondition((NodeIs(1), AttributeLike("title", "%"))),
    NodeIn([1, 2, 3, 10_000]),
])
def test_named_edge_cases(edge_cases_graph, condition):
    graph = edge_cases_graph
    expected = _oracle(graph, "Papers", condition)
    assert candidate_ids(graph, "Papers", condition) == expected
    assert candidate_ids(
        graph, "Papers", condition, ConditionSets(graph)
    ) == expected
