"""Storage and value-coercion tests."""

import pytest

from repro.adt.types import (BOOLEAN, CHAR, CollectionType, INT, NUMERIC,
                             REAL, TupleType, TypeSystem)
from repro.adt.values import (BagValue, ListValue, ObjectStore, SetValue,
                              TupleValue)
from repro.engine.storage import BaseRelation, coerce_row, coerce_value
from repro.errors import ValueError_
from repro.lera.schema import Schema


@pytest.fixture
def store():
    return ObjectStore()


class TestAtomCoercion:
    def test_int(self, store):
        assert coerce_value(3, INT, store) == 3

    def test_int_rejects_bool(self, store):
        with pytest.raises(ValueError_):
            coerce_value(True, INT, store)

    def test_int_rejects_float(self, store):
        with pytest.raises(ValueError_):
            coerce_value(1.5, INT, store)

    def test_real_widens_int(self, store):
        out = coerce_value(3, REAL, store)
        assert out == 3.0 and isinstance(out, float)

    def test_numeric_keeps_kind(self, store):
        assert coerce_value(3, NUMERIC, store) == 3
        assert coerce_value(3.5, NUMERIC, store) == 3.5

    def test_char(self, store):
        assert coerce_value("abc", CHAR, store) == "abc"
        with pytest.raises(ValueError_):
            coerce_value(5, CHAR, store)

    def test_boolean(self, store):
        assert coerce_value(True, BOOLEAN, store) is True
        with pytest.raises(ValueError_):
            coerce_value(1, BOOLEAN, store)


class TestStructuredCoercion:
    def test_list_from_python_list(self, store):
        t = CollectionType("LIST", INT)
        out = coerce_value([1, 2], t, store)
        assert out == ListValue([1, 2])

    def test_set_from_python_list(self, store):
        t = CollectionType("SET", INT)
        assert coerce_value([1, 1, 2], t, store) == SetValue([1, 2])

    def test_elements_coerced_recursively(self, store):
        t = CollectionType("LIST", REAL)
        out = coerce_value([1, 2], t, store)
        assert all(isinstance(e, float) for e in out)

    def test_element_type_enforced(self, store):
        t = CollectionType("SET", INT)
        with pytest.raises(ValueError_):
            coerce_value(["a"], t, store)

    def test_collection_value_rekinds(self, store):
        t = CollectionType("BAG", INT)
        assert coerce_value(SetValue([1]), t, store) == BagValue([1])

    def test_non_collection_rejected(self, store):
        with pytest.raises(ValueError_):
            coerce_value(5, CollectionType("SET", INT), store)

    def test_tuple_from_dict(self, store):
        t = TupleType("P", [("X", INT), ("Y", INT)])
        out = coerce_value({"X": 1, "Y": 2}, t, store)
        assert out == TupleValue([("X", 1), ("Y", 2)])

    def test_tuple_positional(self, store):
        t = TupleType("P", [("X", INT), ("Y", INT)])
        out = coerce_value((5, 6), t, store)
        assert out["X"] == 5 and out["Y"] == 6

    def test_tuple_wrong_arity(self, store):
        t = TupleType("P", [("X", INT), ("Y", INT)])
        with pytest.raises(ValueError_):
            coerce_value((1,), t, store)

    def test_enumeration_checked(self, store):
        ts = TypeSystem()
        cat = ts.define_enumeration("Category", ["Comedy", "Western"])
        assert coerce_value("Comedy", cat, store) == "Comedy"
        with pytest.raises(ValueError_):
            coerce_value("Cartoon", cat, store)

    def test_object_ref_validated(self, store):
        ts = TypeSystem()
        actor = ts.define_object("Actor", [("S", INT)])
        ref = store.create("Actor", TupleValue({"S": 1}))
        assert coerce_value(ref, actor, store) == ref

    def test_dangling_ref_rejected(self, store):
        from repro.adt.values import ObjectRef
        ts = TypeSystem()
        actor = ts.define_object("Actor", [("S", INT)])
        with pytest.raises(ValueError_):
            coerce_value(ObjectRef(99, "Actor"), actor, store)

    def test_non_ref_for_object_rejected(self, store):
        ts = TypeSystem()
        actor = ts.define_object("Actor", [("S", INT)])
        with pytest.raises(ValueError_):
            coerce_value(5, actor, store)


class TestBaseRelation:
    def test_insert_and_count(self, store):
        rel = BaseRelation("R", Schema([("A", INT), ("B", CHAR)]))
        rel.insert((1, "x"), store)
        rel.insert_many([(2, "y"), (3, "z")], store)
        assert rel.cardinality == 3
        assert len(rel) == 3

    def test_row_width_checked(self, store):
        rel = BaseRelation("R", Schema([("A", INT)]))
        with pytest.raises(ValueError_):
            rel.insert((1, 2), store)

    def test_coerce_row(self, store):
        schema = Schema([("A", INT), ("B", CollectionType("SET", INT))])
        row = coerce_row((1, [2, 2, 3]), schema, store)
        assert row == (1, SetValue([2, 3]))

    def test_clear(self, store):
        rel = BaseRelation("R", Schema([("A", INT)]))
        rel.insert((1,), store)
        rel.clear()
        assert rel.cardinality == 0


class TestKeyedAtomicity:
    """Regression tests: batch DML must stage-then-swap, never leave a
    partially applied batch or a corrupted key index behind."""

    @pytest.fixture
    def rel(self, store):
        r = BaseRelation(
            "R", Schema([("A", INT), ("B", CHAR)]), key=(1,)
        )
        r.insert_many([(1, "x"), (2, "y")], store)
        return r

    def test_insert_many_bad_row_applies_nothing(self, rel, store):
        with pytest.raises(ValueError_):
            rel.insert_many([(3, "ok"), (4, 7)], store)
        assert rel.rows == [(1, "x"), (2, "y")]
        assert rel._key_index == {(1,), (2,)}

    def test_insert_many_existing_key_applies_nothing(self, rel, store):
        with pytest.raises(ValueError_):
            rel.insert_many([(3, "a"), (1, "dup")], store)
        assert rel.rows == [(1, "x"), (2, "y")]
        assert rel._key_index == {(1,), (2,)}

    def test_insert_many_intra_batch_duplicate(self, rel, store):
        with pytest.raises(ValueError_):
            rel.insert_many([(3, "a"), (3, "b")], store)
        assert rel.rows == [(1, "x"), (2, "y")]
        assert (3,) not in rel._key_index

    def test_replace_rows_swaps_atomically(self, rel):
        rel.replace_rows([(5, "a"), (6, "b")])
        assert rel.rows == [(5, "a"), (6, "b")]
        assert rel._key_index == {(5,), (6,)}

    def test_replace_rows_violation_changes_nothing(self, rel):
        with pytest.raises(ValueError_):
            rel.replace_rows([(5, "a"), (5, "b")])
        assert rel.rows == [(1, "x"), (2, "y")]
        assert rel._key_index == {(1,), (2,)}

    def test_replace_rows_on_unkeyed_relation(self, store):
        rel = BaseRelation("R", Schema([("A", INT)]))
        rel.insert((1,), store)
        rel.replace_rows([(2,), (2,)])  # duplicates fine without a key
        assert rel.rows == [(2,), (2,)]
