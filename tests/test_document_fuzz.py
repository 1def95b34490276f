"""Parser fuzz: ``algctl check`` on mutated documents of every kind exits
0, 1 or 2 and raises nothing.

Each example starts from a valid document with at most 12 elements and
replaces values (by integers, floats, strings, ``null`` or lists) or drops
keys and list items anywhere in the tree.  Only ``check`` runs, so no
example can start a dual or a hom search.  Replacement integers stay small:
a large ``size`` still starts unbounded work (see ROADMAP, Known defects).
"""

import contextlib
import copy
import io
import json
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from algdual.algebra import builtin
from algdual.cli import main
from algdual.documents import dumps_document
from algdual.duality import gr_three, lift_functor_dir_to_inv, wk_space
from algdual.generate import (
    random_bsl,
    random_ibsl,
    random_join_semilattice,
    random_poset,
)
from algdual.lattices import lift_system_dl_to_posets, plonka_decompose_bsl
from algdual.systems import plonka_decompose


def _seed_documents():
    ibsl = random_ibsl(Random(3), 3, 2)
    bsl = random_bsl(Random(4), 3, 2)
    assert ibsl.size <= 12 and bsl.size <= 12
    poset = random_poset(Random(5), 5)
    sl = random_join_semilattice(Random(6), 5)
    objects = [
        (builtin("wk"), "ibsl"), (ibsl, "ibsl"), (builtin("three"), "bsl"),
        (bsl, "bsl"), (builtin("two"), "ba"), (sl.algebra, "sl"),
        (plonka_decompose_bsl(bsl).fiber(0), "dl"),
        (wk_space(), None), (gr_three(), None), (poset, None),
        (plonka_decompose(ibsl), None), (plonka_decompose_bsl(bsl), None),
        (lift_functor_dir_to_inv(plonka_decompose(ibsl)), None),
        (lift_functor_dir_to_inv(plonka_decompose(builtin("wk"))), None),
        (lift_system_dl_to_posets(plonka_decompose_bsl(bsl)), None),
    ]
    docs = [json.loads(dumps_document(obj, kind)) for obj, kind in objects]
    docs.append({"kind": "space", "size": 3})
    return docs


SEEDS = _seed_documents()

_REPLACEMENTS = (
    st.sampled_from([-1, 0, 1, 2]),
    st.integers(min_value=-2, max_value=13),
    st.sampled_from([0.0, 1.0, 0.5]),
    st.floats(),
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(min_value=-1, max_value=3), max_size=3),
)
_action = st.one_of(st.just(("drop",)),
                    *[r.map(lambda v: ("set", v)) for r in _REPLACEMENTS])


def _paths(node, prefix=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(SEEDS)))
    # a uniform pick: sampled_from would favour the first keys of the tree
    rng = Random(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        paths = list(_paths(doc))
        if not paths:
            break
        if rng.random() < 0.5:
            # half the time a scalar: sizes, entries, constants, kinds
            paths = [p for p in paths if not isinstance(
                _at(doc, p), (dict, list))] or paths
        path = rng.choice(paths)
        action = draw(_action)
        parent = _at(doc, path[:-1])
        if action[0] == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = action[1]
    return doc


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


def test_seed_documents_check_clean(doc_path):
    for doc in SEEDS:
        doc_path.write_text(json.dumps(doc), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["check", str(doc_path)]) == 0, doc["kind"]


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_check_of_mutated_document_exits_cleanly(doc_path, doc):
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["check", str(doc_path)])
    assert code in (0, 1, 2)
