"""Shared fixtures and builders: the paper's film database (Figure 2),
graph data, and the seeded sales / ticket / measure schemas the
experiments of EXPERIMENTS.md are asserted on
(``tests/integration/test_experiments.py``)."""

from __future__ import annotations

import random

import pytest

from repro import Database
from repro.engine.catalog import Catalog
from repro.adt.types import NUMERIC


FIGURE2_SCHEMA = """
TYPE Category ENUMERATION OF ('Comedy', 'Adventure', 'Science Fiction',
                              'Western');
TYPE Point TUPLE (ABS : REAL, ORD : REAL);
TYPE Person OBJECT TUPLE (Name : CHAR, Firstname : SET OF CHAR,
                          Caricature : LIST OF Point);
TYPE Actor SUBTYPE OF Person OBJECT TUPLE (Salary : NUMERIC)
    FUNCTION IncreaseSalary(This Actor, Val NUMERIC);
TYPE Text LIST OF CHAR;
TYPE SetCategory SET OF Category;
TYPE Pairs LIST OF TUPLE (Pros : INT, Cons : INT);
TABLE FILM (Numf : NUMERIC, Title : Text, Categories : SetCategory);
TABLE APPEARS_IN (Numf : NUMERIC, Refactor : Actor);
TABLE DOMINATE (Numf : NUMERIC, Refactor1 : Actor, Refactor2 : Actor,
                Score : Pairs)
"""


def make_film_db() -> Database:
    """The Figure 2 schema with a small, deterministic data set."""
    db = Database()
    db.execute(FIGURE2_SCHEMA)
    db.execute("""
    INSERT INTO FILM VALUES
      (1, LIST('Z','o','r','r','o'), SET('Adventure')),
      (2, LIST('U','p'), SET('Comedy', 'Adventure')),
      (3, LIST('N','o','v','a'), SET('Science Fiction'))
    """)
    # actors: Quinn(50k), Rich(20k), Bo(5k), Ann(30k)
    db.execute("""
    INSERT INTO APPEARS_IN VALUES
      (1, NEW Actor('Quinn', SET('A'), LIST(), 50000)),
      (1, NEW Actor('Rich', SET('R'), LIST(), 20000)),
      (2, NEW Actor('Bo', SET('B'), LIST(), 5000)),
      (2, NEW Actor('Quinn', SET('A'), LIST(), 50000)),
      (3, NEW Actor('Ann', SET('A'), LIST(), 30000))
    """)
    return db


def load_dominate_chain(db: Database, names: list[str]) -> None:
    """DOMINATE rows forming a chain name[0] > name[1] > ... (one film).

    Each actor is ONE shared object: object identity is what the
    recursive BETTER_THAN join compares.
    """
    refs = {
        name: db.catalog.new_object(
            "Actor", (name, [name[0]], [], 1)
        )
        for name in names
    }
    for left, right in zip(names, names[1:]):
        db.catalog.insert("DOMINATE", (1, refs[left], refs[right], []))


@pytest.fixture
def film_db() -> Database:
    return make_film_db()


def load(db: Database, table: str, rows) -> None:
    """Insert Python tuples of numbers and strings, one statement."""
    values = ", ".join(
        "(" + ", ".join(repr(v) for v in row) + ")" for row in rows
    )
    if values:
        db.execute(f"INSERT INTO {table} VALUES {values}")


def make_db(script: str, **options) -> Database:
    db = Database(**options)
    db.execute(script)
    return db


def chain_graph(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(1, n + 1)]


def random_graph(nodes: int, edges: int, seed: int = 11):
    rng = random.Random(seed)
    return list({
        (rng.randint(1, nodes), rng.randint(1, nodes))
        for __ in range(edges)
    })


def add_graph(db: Database, edges) -> Database:
    """EDGE(Src, Dst) and the recursive REACH view over it."""
    db.execute("TABLE EDGE (Src : NUMERIC, Dst : NUMERIC)")
    load(db, "EDGE", edges)
    db.execute("""
    CREATE VIEW REACH (Src, Dst) AS
    ( SELECT Src, Dst FROM EDGE
      UNION
      SELECT R.Src, E.Dst FROM REACH R, EDGE E WHERE R.Dst = E.Src )
    """)
    return db


def make_graph_db(edges: list[tuple[int, int]]) -> Database:
    """A plain EDGE(Src, Dst) database with a recursive REACH view."""
    return add_graph(Database(), edges)


def make_sales_db(rows: int, shops: int = 10, seed: int = 3) -> Database:
    """SALE / SHOP under two stacked views (Figure 7's input)."""
    db = make_db("""
    TABLE SALE (Shop : NUMERIC, Item : NUMERIC, Amount : NUMERIC);
    TABLE SHOP (Sid : NUMERIC, Region : NUMERIC);
    CREATE VIEW BIG_SALE (Shop, Item, Amount) AS
      SELECT Shop, Item, Amount FROM SALE WHERE Amount > 50;
    CREATE VIEW REGION_SALE (Region, Item, Amount) AS
      SELECT SHOP.Region, BIG_SALE.Item, BIG_SALE.Amount
      FROM BIG_SALE, SHOP WHERE BIG_SALE.Shop = SHOP.Sid
    """)
    rng = random.Random(seed)
    load(db, "SHOP", [(sid, sid % 3) for sid in range(1, shops + 1)])
    load(db, "SALE", [
        (rng.randint(1, shops), rng.randint(1, 50), rng.randint(1, 100))
        for __ in range(rows)
    ])
    return db


def make_ticket_db(rows: int, price_mod: int = 97, **options) -> Database:
    """TICKET with an enumerated State and the integrity constraint
    that says so (Figure 10's input)."""
    db = make_db("""
    TYPE Status ENUMERATION OF ('open', 'closed', 'void');
    TABLE TICKET (Id : NUMERIC, State : Status, Price : NUMERIC)
    """, **options)
    db.add_integrity_constraint(
        "ic_status: F(x) / ISA(x, Status) --> "
        "F(x) AND MEMBER(x, MAKESET('open', 'closed', 'void')) /"
    )
    states = ["open", "closed", "void"]
    load(db, "TICKET",
         [(i, states[i % 3], i % price_mod) for i in range(rows)])
    return db


def make_measure_db(rows: int) -> Database:
    """MEASURE(Id, Lo, Hi) with Hi = Lo + 10 (Figures 11 and 12)."""
    db = make_db("TABLE MEASURE (Id : NUMERIC, Lo : NUMERIC, Hi : NUMERIC)")
    load(db, "MEASURE", [(i, i % 50, i % 50 + 10) for i in range(rows)])
    return db


@pytest.fixture
def chain_db() -> Database:
    return make_graph_db([(i, i + 1) for i in range(1, 10)])


@pytest.fixture
def empty_catalog() -> Catalog:
    return Catalog()


@pytest.fixture
def edge_catalog() -> Catalog:
    cat = Catalog()
    cat.define_table("EDGE", [("Src", NUMERIC), ("Dst", NUMERIC)])
    cat.insert_many("EDGE", [(1, 2), (2, 3), (3, 4)])
    return cat
