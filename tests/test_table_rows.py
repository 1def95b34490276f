"""Operation tables between documents, ``FiniteAlgebra`` and text, a row
or a table at a time, against their cell-by-cell forms in
``tests/oracles.py``.

``FiniteAlgebra`` reads a table as one bytes object while its entries
fit in a byte, else as one tuple of ints, so every test here runs on
both sides of 256 elements: sizes 1-8, 255-257 and 300.  The constructor must refuse every
non-integer entry and otherwise give the messages of the loop checks; the
reader must give the messages of its one-entry-at-a-time form; the writer
must give ``json.dumps``' text, which reads back as the same algebra; and
the closed-form power set and the down-set lattice must equal their loop
forms.
"""

import json
from random import Random

import pytest

from algdual import documents
from algdual.algebra import FiniteAlgebra, row_kernel
from algdual.documents import loads_document
from algdual.errors import DocumentError, TooLarge
from algdual.lattices import MAX_POWER_SET_POINTS, ba_of_space, dl_of_poset
from algdual.orders import FinitePoset, FiniteSpace
from algdual.writer import document_data, dumps_document
from oracles import (
    loop_algebra_error,
    loop_ba_of_space,
    loop_dl_of_poset,
    loop_int_list,
    loop_int_table,
)
from test_lattices import all_posets

SIZES = [*range(1, 9), 255, 256, 257, 300]


def _random_tables(n, rng):
    """A join and meet table, a neg map and two constants of random ints
    below n."""
    return ({nm: [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
             for nm in ("join", "meet")},
            {"neg": [rng.randrange(n) for _ in range(n)]},
            {"zero": rng.randrange(n), "one": rng.randrange(n)})


def _chain(k):
    return FinitePoset(k, [[x <= y for y in range(k)] for x in range(k)])


# ---------------------------------------------------------------------------
# The constructor
# ---------------------------------------------------------------------------

NOT_INTS = [1.5, 0.7, "1", "0", None, [1], (0,), b"\0"]


@pytest.mark.parametrize("n", [2, 300])
@pytest.mark.parametrize("bad", NOT_INTS, ids=repr)
def test_non_integer_entries_are_refused_in_every_position(n, bad):
    binary, unary, constants = _random_tables(n, Random(n))
    table = [list(r) for r in binary["join"]]
    table[n - 1][0] = bad
    with pytest.raises(ValueError, match="table 'join' has a non-integer"):
        FiniteAlgebra(n, {**binary, "join": table}, unary, constants)
    neg = list(unary["neg"])
    neg[n // 2] = bad
    with pytest.raises(ValueError, match="map 'neg' has a non-integer"):
        FiniteAlgebra(n, binary, {"neg": neg}, constants)
    with pytest.raises(ValueError, match="constant 'one' is not an integer"):
        FiniteAlgebra(n, binary, unary, {**constants, "one": bad})


@pytest.mark.parametrize("n", [2, 300])
@pytest.mark.parametrize("far", [-1, 256, 10 ** 20])
def test_a_non_integer_is_reported_before_an_entry_out_of_range(n, far):
    table = [[0] * n for _ in range(n)]
    table[0][0], table[n - 1][n - 1] = far, 1.5
    with pytest.raises(ValueError, match="table 'join' has a non-integer"):
        FiniteAlgebra(n, {"join": table})
    with pytest.raises(ValueError, match="map 'neg' has a non-integer"):
        FiniteAlgebra(n, unary_ops={"neg": [far, *[0] * (n - 2), 1.5]})


def test_entries_are_not_truncated():
    # each of these was once read through int(), which truncates
    with pytest.raises(ValueError, match="non-integer"):
        FiniteAlgebra(2, {"join": [[0, 1.5], [1, 1]]})
    with pytest.raises(ValueError, match="non-integer"):
        FiniteAlgebra(2, {"join": [["0", "1"], ["1", "1"]]})
    with pytest.raises(ValueError, match="non-integer"):
        FiniteAlgebra(2, {"join": ["01", "11"]})
    with pytest.raises(ValueError, match="non-integer"):
        FiniteAlgebra(2, unary_ops={"neg": [1.9, 0]})
    with pytest.raises(ValueError, match="not an integer"):
        FiniteAlgebra(2, constants={"zero": 0.7})


@pytest.mark.parametrize("n", [2, 3, 300])
def test_a_row_or_a_map_that_is_an_int_is_refused(n):
    # bytes(k) of an int k is k zero bytes: a row of zeros
    with pytest.raises(ValueError, match="non-integer"):
        FiniteAlgebra(n, {"join": [n] * n})
    with pytest.raises(ValueError, match="non-integer"):
        FiniteAlgebra(n, unary_ops={"neg": n})


def test_bools_are_kept_as_the_ints_they_are():
    a = FiniteAlgebra(2, {"join": [[False, True], [True, True]]},
                      {"neg": [True, False]}, {"zero": False})
    assert a == FiniteAlgebra(2, {"join": [[0, 1], [1, 1]]}, {"neg": [1, 0]},
                              {"zero": 0})
    cells = [*a.binary("join")[0], *a.unary("neg"), a.const("zero")]
    assert {type(v) for v in cells} == {int}


def _broken_inputs(n, rng):
    """Tables, maps, constants and names of ints, each with one fault or
    none: a row too many or too few, a row too long or too short, an entry
    out of range, a map entry out of range or of the wrong length, a
    constant out of range, a duplicate name, names of the wrong length."""
    binary, unary, constants = _random_tables(n, rng)
    yield binary, unary, constants, None
    far = [n, n + 1, -1, 255, 256, 10 ** 20, -(10 ** 20)]
    for fault in [*range(10), *[4, 5, 7] * len(far)]:
        b = {nm: [list(r) for r in t] for nm, t in binary.items()}
        u = {nm: list(t) for nm, t in unary.items()}
        c, names = dict(constants), None
        if fault == 0:
            b["meet"].append(list(range(n)))
        elif fault == 1:
            del b["join"][rng.randrange(n)]
        elif fault == 2:
            b["meet"][rng.randrange(n)].append(0)
        elif fault == 3:
            b["join"][rng.randrange(n)].pop()
        elif fault == 4:
            b[rng.choice(["join", "meet"])][rng.randrange(n)][
                rng.randrange(n)] = far[0]
        elif fault == 5:
            u["neg"][rng.randrange(n)] = far[0]
        elif fault == 6:
            u["neg"] = u["neg"][:-1] if rng.random() < 0.5 else u["neg"] + [0]
        elif fault == 7:
            c["one"] = far[0]
        elif fault == 8:
            c["join"] = 0
        else:
            names = [str(x) for x in range(n + 1)]
        yield b, u, c, names
        if fault in (4, 5, 7):
            far.append(far.pop(0))
        # two faults: the first one checked is reported
        if fault in (0, 2, 4):
            b["meet"][0][0] = rng.choice(far)
            u["neg"][0] = rng.choice(far)
            yield b, u, c, names


def _row_forms(t, n, rng):
    """``t`` with each row a list, a tuple or, where it fits, bytes."""
    forms = [list, tuple]
    if n <= 256 and all(0 <= v < 256 for row in t for v in row):
        forms.append(bytes)
    return [rng.choice(forms)(row) for row in t]


@pytest.mark.parametrize("n", SIZES)
def test_constructor_messages_match_the_loop_checks(n):
    rng = Random(f"constructor/{n}")
    for binary, unary, constants, names in _broken_inputs(n, rng):
        expected = loop_algebra_error(n, binary, unary, constants, names)
        given = {nm: _row_forms(t, n, rng) for nm, t in binary.items()}
        try:
            a = FiniteAlgebra(n, given, unary, constants, names)
        except ValueError as exc:
            assert str(exc) == expected
            continue
        assert expected is None
        assert a.binary_ops == {nm: tuple(map(tuple, t))
                                for nm, t in binary.items()}
        assert a.unary_ops == {nm: tuple(t) for nm, t in unary.items()}
        assert {type(v) for t in a.binary_ops.values() for row in t
                for v in row} == {int}


def test_iterables_are_read_like_lists():
    a = FiniteAlgebra(3, {"join": (range(3) for _ in range(3))},
                      {"neg": iter([2, 1, 0])})
    assert a.binary("join") == ((0, 1, 2),) * 3
    assert a.unary("neg") == (2, 1, 0)


def test_row_kernel_is_built_once_per_side():
    assert row_kernel(1) is row_kernel(256)
    assert row_kernel(257) is row_kernel(1024)
    assert row_kernel(256) is not row_kernel(257)


# ---------------------------------------------------------------------------
# The writer and the reader
# ---------------------------------------------------------------------------

def _algebras(n):
    """A random algebra of ``n`` elements and a generated one: the
    down-set lattice of a chain, the power set when n is a power of 2."""
    rng = Random(f"algebras/{n}")
    yield FiniteAlgebra(n, *_random_tables(n, rng)), "ibsl"
    yield dl_of_poset(_chain(n - 1)), "dl"
    if n & (n - 1) == 0:
        yield ba_of_space(FiniteSpace(n.bit_length() - 1)), "ba"


@pytest.mark.parametrize("n", SIZES)
def test_written_documents_read_back_and_equal_json_dumps(n):
    for a, kind in _algebras(n):
        text = dumps_document(a, kind)
        assert loads_document(text).payload == a
        data = document_data(a, kind)
        assert text == json.dumps(data, ensure_ascii=False, indent=2,
                                  sort_keys=True) + "\n"
        # the rows are lists, equal to plain ones
        assert data["ops"]["join"] == [list(r) for r in a.binary("join")]


def test_the_cached_texts_grow_with_the_largest_algebra_written():
    # an algebra's rows are written from texts cached up to its size
    for n in (3, 1025, 2, 1030):
        a = FiniteAlgebra(n, unary_ops={"neg": range(n - 1, -1, -1)},
                          constants={"top": n - 1})
        text = dumps_document(a, "sl")
        assert loads_document(text).payload == a
        assert text == json.dumps(document_data(a, "sl"), ensure_ascii=False,
                                  indent=2, sort_keys=True) + "\n"


BAD_ENTRIES = [True, False, 1.0, 0.5, "0", None, [0], {}]


def _parent_message(monkeypatch, text):
    """The reader's message with its one-entry-at-a-time checks."""
    with monkeypatch.context() as m:
        m.setattr(documents, "int_list", loop_int_list)
        m.setattr(documents, "int_table", loop_int_table)
        return _message(text)


def _message(text):
    try:
        loads_document(text)
    except DocumentError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("n", [2, 8, 255, 257])
@pytest.mark.parametrize("bad", BAD_ENTRIES, ids=repr)
def test_reader_messages_match_the_entrywise_reader(monkeypatch, n, bad):
    rng = Random(f"reader/{n}")
    binary, unary, constants = _random_tables(n, rng)
    ops = {**binary, **unary, **constants}
    cases = []
    for where in ("row", "first-row", "map", "first-of-map", "constant"):
        data = json.loads(json.dumps(ops))
        if where == "row":
            data["join"][rng.randrange(n)][rng.randrange(n)] = bad
        elif where == "first-row":
            data["meet"][0] = bad if isinstance(bad, list) else [bad] * n
        elif where == "map":
            data["neg"][rng.randrange(1, n)] = bad
        elif where == "first-of-map":
            data["neg"][0] = bad
        else:
            data["zero"] = bad
        cases.append(json.dumps({"kind": "ibsl", "size": n, "ops": data}))
    for text in cases:
        expected = _parent_message(monkeypatch, text)
        assert expected is not None
        assert _message(text) == expected


# ---------------------------------------------------------------------------
# The lattice constructors
# ---------------------------------------------------------------------------

def test_dl_of_poset_matches_the_loop_form():
    for n in range(5):
        for p in all_posets(n):
            assert dl_of_poset(p) == loop_dl_of_poset(p)


@pytest.mark.parametrize("points", range(MAX_POWER_SET_POINTS + 1))
def test_ba_of_space_matches_the_loop_form(points):
    x = FiniteSpace(points)
    assert ba_of_space(x) == loop_ba_of_space(x)


def test_ba_of_space_refuses_the_same_spaces():
    x = FiniteSpace(MAX_POWER_SET_POINTS + 1)
    with pytest.raises(TooLarge) as ours:
        ba_of_space(x)
    with pytest.raises(TooLarge) as loops:
        loop_ba_of_space(x)
    assert str(ours.value) == str(loops.value)
