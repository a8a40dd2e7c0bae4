"""Seeded workload generators: schema, data, statements, expected answers.

Each generator turns ``(seed, scale)`` into a :class:`Workload`: the
DDL and initial rows to load, a fixed statement list, and -- wherever
the generator knows the predicate -- the row bag each read must return,
computed here in plain Python so the check never asks the system under
test what the right answer is.  The program only ever sees the
statement texts.

Seeds move *which* rows match and in what order statements arrive, not
*how much* work a statement is: columns are seeded permutations of
fixed multisets and literals are drawn one per equal-width stratum of
their range (:func:`strata`), so the latency distribution of a
workload is the same shape on every seed and a run-to-run difference
is the machine's, not the generator's.

Nothing here imports the legacy ``benchmarks/conftest.py`` builders;
the few shapes shared with them (reachability views, stacked sale
views, the ticket integrity constraint) are restated below.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = ["Stmt", "Workload", "WORKLOADS", "build", "insert_sql",
           "strata"]


@dataclass(frozen=True)
class Stmt:
    """One generated statement.

    ``expect`` is the sorted row bag the generator's model predicts
    for a read; ``None`` on a read means "compare with the unrewritten
    reference database", and on ``sys``/``write`` statements "no row
    check" (writes are checked through the final table state).
    """

    text: str
    kind: str  # "read" | "write" | "sys"
    expect: Optional[tuple] = None
    client: int = 0


@dataclass
class Workload:
    name: str
    why: str
    tier: str  # "memory" | "durable" | "served" | "pooled"
    clients: int = 1
    workers: int = 0
    ddl: list = field(default_factory=list)
    constraints: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)
    # statements that undo one pass's writes on the live instance
    restore: list = field(default_factory=list)
    statements: list = field(default_factory=list)
    # table -> sorted rows the model predicts after one full pass
    final: dict = field(default_factory=dict)
    # index in ``statements`` before which the harness checkpoints
    checkpoint_at: Optional[int] = None
    # statements profiled / counted in the traced run (a prefix)
    count_prefix: int = 200
    # statements per client between calibration samples in the warm-up
    # pass: about 0.1 s of work (later passes use the measured rate)
    calibrate_every: int = 50
    mix: dict = field(default_factory=dict)

    def for_client(self, client: int) -> list:
        return [s for s in self.statements if s.client == client]


# -- helpers ------------------------------------------------------------------

def sql_value(value) -> str:
    return f"'{value}'" if isinstance(value, str) else str(value)


def insert_sql(table: str, rows) -> str:
    body = ", ".join(
        "(" + ", ".join(sql_value(v) for v in row) + ")" for row in rows
    )
    return f"INSERT INTO {table} VALUES {body}"


def strata(rng: random.Random, n: int, lo: int, hi: int) -> list:
    """``n`` ints from ``[lo, hi)``, one per equal-width stratum,
    shuffled: every seed covers the range evenly, so selectivities --
    and with them per-statement work -- repeat across seeds."""
    width = (hi - lo) / n
    values = [min(hi - 1, lo + int((i + rng.random()) * width))
              for i in range(n)]
    rng.shuffle(values)
    return values


def permuted(rng: random.Random, values) -> list:
    values = list(values)
    rng.shuffle(values)
    return values


def bag(rows) -> tuple:
    return tuple(sorted(rows))


def scaled(n: int, scale: float, floor: int = 24) -> int:
    return n if scale >= 1.0 else max(floor, int(n * scale))


def item_rows(rng: random.Random, n: int) -> list:
    """``(Id, Grp, Val, Tag)`` rows: ids in order, the other columns
    seeded permutations of fixed multisets."""
    grp = permuted(rng, (i % 20 for i in range(n)))
    val = permuted(rng, (i * 1000 // n for i in range(n)))
    tag = permuted(rng, (f"t{i % 10}" for i in range(n)))
    return [(i, grp[i], val[i], tag[i]) for i in range(n)]


ITEM_DDL = "TABLE {name} (Id : NUMERIC, Grp : NUMERIC, Val : NUMERIC, " \
           "Tag : CHAR)"


@dataclass(frozen=True)
class Template:
    """A parameterized single-table selection with its Python model."""

    table: str
    text: str  # str.format template over the literal names
    literals: tuple  # ((name, lo, hi), ...); Tag literals use 't<n>'
    where: Callable  # (row, **literals) -> bool
    select: Callable  # row -> output tuple

    def instances(self, rng: random.Random, n: int, rows: list) -> list:
        columns = {name: strata(rng, n, lo, hi)
                   for name, lo, hi in self.literals}
        out = []
        for i in range(n):
            lits = {name: col[i] for name, col in columns.items()}
            out.append(Stmt(
                self.text.format(**lits), "read",
                bag(self.select(r) for r in rows
                    if self.where(r, **lits)),
            ))
        return out


# filters that fire no rule: '=', '>', '>=' and '<>' only ('<' is
# flipped by lt_flip and a two-sided range runs the transitivity rules)
def _item_templates(small: str, big: str) -> list:
    T = Template
    return [
        T(small, f"SELECT Id, Val FROM {small} WHERE Val = {{v}}",
          (("v", 0, 1000),),
          lambda r, v: r[2] == v, lambda r: (r[0], r[2])),
        T(small, f"SELECT Id FROM {small} WHERE Val > {{v}}",
          (("v", 0, 1000),),
          lambda r, v: r[2] > v, lambda r: (r[0],)),
        T(small, f"SELECT Id, Grp FROM {small} WHERE Val >= {{v}}",
          (("v", 0, 1000),),
          lambda r, v: r[2] >= v, lambda r: (r[0], r[1])),
        T(small, f"SELECT * FROM {small} WHERE Id = {{k}}", (("k", 0, 240),),
          lambda r, k: r[0] == k, lambda r: r),
        T(small, f"SELECT Id FROM {small} WHERE Grp = {{g}} AND Val > {{v}}",
          (("g", 0, 20), ("v", 0, 1000)),
          lambda r, g, v: r[1] == g and r[2] > v, lambda r: (r[0],)),
        T(small, f"SELECT Val FROM {small} WHERE Tag = 't{{n}}' "
          f"AND Val >= {{v}}", (("n", 0, 10), ("v", 0, 1000)),
          lambda r, n, v: r[3] == f"t{n}" and r[2] >= v,
          lambda r: (r[2],)),
        T(small, f"SELECT Id, Tag FROM {small} WHERE Val <> {{v}}",
          (("v", 0, 1000),),
          lambda r, v: r[2] != v, lambda r: (r[0], r[3])),
        T(small, f"SELECT Id FROM {small} WHERE Grp = {{g}} AND Id > {{k}}",
          (("g", 0, 20), ("k", 0, 120)),
          lambda r, g, k: r[1] == g and r[0] > k, lambda r: (r[0],)),
        T(small, f"SELECT Id, Val FROM {small} WHERE Val + {{d}} > {{v}}",
          (("d", 1, 50), ("v", 0, 1000)),
          lambda r, d, v: r[2] + d > v, lambda r: (r[0], r[2])),
        T(small, f"SELECT Id, Val FROM {small} WHERE Tag = 't{{n}}' "
          f"AND Id > {{k}}", (("n", 0, 10), ("k", 0, 120)),
          lambda r, n, k: r[3] == f"t{n}" and r[0] > k,
          lambda r: (r[0], r[2])),
        T(small, f"SELECT Tag FROM {small} WHERE Val >= {{v}} "
          f"AND Grp <> {{g}}", (("v", 0, 1000), ("g", 0, 20)),
          lambda r, v, g: r[2] >= v and r[1] != g, lambda r: (r[3],)),
        T(big, f"SELECT Id FROM {big} WHERE Id = {{k}}", (("k", 0, 1000),),
          lambda r, k: r[0] == k, lambda r: (r[0],)),
    ]


def _selections(rng: random.Random, templates: list, tables: dict,
                n: int, repeats: float) -> list:
    """``n`` statements spread evenly over ``templates``; the last
    ``repeats`` share are exact copies of earlier texts."""
    fresh = n - int(n * repeats)
    per, extra = divmod(fresh, len(templates))
    out = []
    for i, template in enumerate(templates):
        count = per + (1 if i < extra else 0)
        if count:
            out.extend(template.instances(rng, count,
                                          tables[template.table]))
    out.extend(rng.choice(out) for __ in range(n - fresh))
    rng.shuffle(out)
    return out


# -- point_filter -------------------------------------------------------------

def point_filter(rng: random.Random, scale: float) -> Workload:
    tables = {"SMALL": item_rows(rng, 120), "BIG": item_rows(rng, 1000)}
    n = scaled(900, scale)
    templates = _item_templates("SMALL", "BIG")
    statements = _selections(rng, templates, tables, n, repeats=0.10)
    return Workload(
        name="point_filter",
        why="cheap single-table filters where no rule fires: parse and "
            "a no-op rewrite scan dominate, so rule indexing and a "
            "plan cache must show here and compiled plans must not",
        tier="memory",
        ddl=[ITEM_DDL.format(name="SMALL"), ITEM_DDL.format(name="BIG")],
        tables=tables, statements=statements, count_prefix=300,
        mix={"statements": n, "templates": len(templates),
             "distinct_texts": len({s.text for s in statements}),
             "rows": {"SMALL": 120, "BIG": 1000},
             "shares": {"read": 1.0}},
    )


# -- join_heavy ---------------------------------------------------------------

def join_heavy(rng: random.Random, scale: float) -> Workload:
    nc, no, ni = 40, 100, 100
    region = permuted(rng, (i % 10 for i in range(nc)))
    tier = permuted(rng, (i % 4 for i in range(nc)))
    cust = [(i, region[i], tier[i]) for i in range(nc)]
    owner = permuted(rng, (i % nc for i in range(no)))
    total = permuted(rng, (i * 1000 // no for i in range(no)))
    orders = [(i, owner[i], total[i]) for i in range(no)]
    parent = permuted(rng, (i % no for i in range(ni)))
    qty = permuted(rng, (i * 50 // ni for i in range(ni)))
    items = [(i, parent[i], qty[i]) for i in range(ni)]

    co = [(c, o) for c in cust for o in orders if c[0] == o[1]]
    oi = [(o, i) for o in orders for i in items if o[0] == i[1]]
    coi = [(c, o, i) for c, o in co for i in items if o[0] == i[1]]

    n = scaled(200, scale, floor=20)
    per = n // 5
    statements = []
    for r in strata(rng, per, 0, 10):
        statements.append(Stmt(
            "SELECT C.Id, O.Total FROM CUST C, ORD O "
            f"WHERE C.Id = O.Cust AND C.Region = {r}", "read",
            bag((c[0], o[2]) for c, o in co if c[1] == r)))
    for v in strata(rng, per, 0, 1000):
        statements.append(Stmt(
            "SELECT O.Id, C.Tier FROM CUST C, ORD O "
            f"WHERE C.Id = O.Cust AND O.Total > {v}", "read",
            bag((o[0], c[2]) for c, o in co if o[2] > v)))
    for q in strata(rng, per, 0, 50):
        statements.append(Stmt(
            "SELECT O.Id, I.Qty FROM ORD O, ITEM I "
            f"WHERE O.Id = I.Ord AND I.Qty > {q}", "read",
            bag((o[0], i[2]) for o, i in oi if i[2] > q)))
    for r in strata(rng, per, 0, 10):
        statements.append(Stmt(
            "SELECT C.Id, I.Id FROM CUST C, ORD O, ITEM I "
            "WHERE C.Id = O.Cust AND O.Id = I.Ord "
            f"AND C.Region = {r}", "read",
            bag((c[0], i[0]) for c, o, i in coi if c[1] == r)))
    rest = n - 4 * per
    for q, v in zip(strata(rng, rest, 0, 50), strata(rng, rest, 0, 1000)):
        statements.append(Stmt(
            "SELECT C.Id, I.Qty FROM CUST C, ORD O, ITEM I "
            "WHERE C.Id = O.Cust AND O.Id = I.Ord "
            f"AND I.Qty > {q} AND O.Total > {v}", "read",
            bag((c[0], i[2]) for c, o, i in coi
                if i[2] > q and o[2] > v)))
    rng.shuffle(statements)
    return Workload(
        name="join_heavy",
        why="two- and three-way equi-joins on the default nested "
            "loop: the evaluator is over 80% of each statement, so "
            "hash joins and compiled plans must show here and rule "
            "indexing must not",
        tier="memory",
        ddl=["TABLE CUST (Id : NUMERIC, Region : NUMERIC, "
             "Tier : NUMERIC)",
             "TABLE ORD (Id : NUMERIC, Cust : NUMERIC, Total : NUMERIC)",
             "TABLE ITEM (Id : NUMERIC, Ord : NUMERIC, Qty : NUMERIC)"],
        tables={"CUST": cust, "ORD": orders, "ITEM": items},
        statements=statements, count_prefix=40, calibrate_every=12,
        mix={"statements": n, "templates": 5,
             "rows": {"CUST": nc, "ORD": no, "ITEM": ni},
             "shares": {"two_way": 0.6, "three_way": 0.4}},
    )


# -- recursive_view -----------------------------------------------------------

def _reach_view(view: str, edges: str) -> list:
    return [
        f"TABLE {edges} (Src : NUMERIC, Dst : NUMERIC)",
        f"CREATE VIEW {view} (Src, Dst) AS "
        f"( SELECT Src, Dst FROM {edges} UNION "
        f"SELECT R.Src, E.Dst FROM {view} R, {edges} E "
        f"WHERE R.Dst = E.Src )",
    ]


def closure_from(edges: list, start: int) -> set:
    """Nodes reachable from ``start`` over one or more edges."""
    succ: dict = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    seen: set = set()
    frontier = list(succ.get(start, ()))
    while frontier:
        node = frontier.pop()
        if node not in seen:
            seen.add(node)
            frontier.extend(succ.get(node, ()))
    return seen


def recursive_view(rng: random.Random, scale: float) -> Workload:
    chain = [(i, i + 1) for i in range(30)]
    tree = [(i, 2 * i + k) for i in range(31) for k in (1, 2)]
    # a layered DAG, out-degree 2 into the next layer.  The three
    # graphs are the same on every seed -- closure sizes decide the run
    # time -- and the seed picks the start nodes and their order
    layers = [list(range(8 * d, 8 * d + 8)) for d in range(5)]
    dag = [(a, layers[d + 1][(j + step) % 8]) for d in range(4)
           for j, a in enumerate(layers[d]) for step in (0, 3)]
    tiny = [(i, i + 1) for i in range(8)] + [(0, 4), (2, 6)]
    graphs = {"C": ("CHAIN_E", chain, 31), "T": ("TREE_E", tree, 63),
              "R": ("DAG_E", dag, 40)}
    n = scaled(200, scale, floor=20)
    unbound = n // 10
    per = (n - unbound) // 3
    statements = []
    for key, (__, edges, nodes) in graphs.items():
        count = per if key != "R" else n - unbound - 2 * per
        for k in strata(rng, count, 0, nodes):
            statements.append(Stmt(
                f"SELECT Dst FROM REACH_{key} WHERE Src = {k}", "read",
                bag((d,) for d in closure_from(edges, k))))
    pairs = [(s, d) for s in range(9) for d in closure_from(tiny, s)]
    for i in range(unbound):
        if i % 2:
            statements.append(Stmt("SELECT Dst, Src FROM REACH_S", "read",
                                   bag((d, s) for s, d in pairs)))
        else:
            statements.append(Stmt("SELECT Src, Dst FROM REACH_S", "read",
                                   bag(pairs)))
    rng.shuffle(statements)
    ddl = []
    for key, (edges, __, ___) in graphs.items():
        ddl += _reach_view(f"REACH_{key}", edges)
    ddl += _reach_view("REACH_S", "TINY_E")
    return Workload(
        name="recursive_view",
        why="reachability over chain, tree and DAG views: fixpoint "
            "evaluation plus the one rewrite (Alexander on a bound "
            "constant) that decides the run time; 10% unbound queries "
            "give it nothing to reduce",
        tier="memory", ddl=ddl,
        tables={"CHAIN_E": chain, "TREE_E": tree, "DAG_E": dag,
                "TINY_E": tiny},
        statements=statements, count_prefix=30, calibrate_every=7,
        mix={"statements": n, "templates": 5,
             "edges": {"CHAIN_E": len(chain), "TREE_E": len(tree),
                       "DAG_E": len(dag), "TINY_E": len(tiny)},
             "shares": {"bound": round(1 - unbound / n, 3),
                        "unbound": round(unbound / n, 3)}},
    )


# -- rewrite_heavy ------------------------------------------------------------

REWRITE_DDL = [
    "TABLE SALE (Shop : NUMERIC, Item : NUMERIC, Amount : NUMERIC)",
    "TABLE OLD_SALE (Shop : NUMERIC, Item : NUMERIC, Amount : NUMERIC)",
    "TABLE SHOP (Sid : NUMERIC, Region : NUMERIC)",
    "CREATE VIEW BIG_SALE (Shop, Item, Amount) AS "
    "SELECT Shop, Item, Amount FROM SALE WHERE Amount > 50",
    "CREATE VIEW HUGE_SALE (Shop, Item, Amount) AS "
    "SELECT Shop, Item, Amount FROM BIG_SALE WHERE Amount > 80",
    "CREATE VIEW REGION_SALE (Region, Item, Amount) AS "
    "SELECT SHOP.Region, BIG_SALE.Item, BIG_SALE.Amount "
    "FROM BIG_SALE, SHOP WHERE BIG_SALE.Shop = SHOP.Sid",
    "CREATE VIEW ALL_SALE (Shop, Item, Amount) AS "
    "( SELECT Shop, Item, Amount FROM SALE UNION "
    "SELECT Shop, Item, Amount FROM OLD_SALE )",
    "TYPE Status ENUMERATION OF ('open', 'closed', 'void')",
    "TABLE TICKET (Id : NUMERIC, State : Status, Price : NUMERIC)",
    "TABLE MEASURE (Id : NUMERIC, Lo : NUMERIC, Hi : NUMERIC)",
]
STATUS_CONSTRAINT = (
    "ic_status: F(x) / ISA(x, Status) --> "
    "F(x) AND MEMBER(x, MAKESET('open', 'closed', 'void')) /"
)


def rewrite_heavy(rng: random.Random, scale: float) -> Workload:
    def sales(count: int) -> list:
        shop = permuted(rng, (i % 10 for i in range(count)))
        item = permuted(rng, (i % 50 for i in range(count)))
        amount = permuted(rng, (i * 100 // count for i in range(count)))
        return [(shop[i], item[i], amount[i]) for i in range(count)]

    states = ("open", "closed", "void")
    price = permuted(rng, (i % 97 for i in range(150)))
    lo = permuted(rng, (i % 50 for i in range(150)))
    tables = {
        "SALE": sales(100), "OLD_SALE": sales(60),
        "SHOP": [(s, s % 3) for s in range(10)],
        "TICKET": [(i, states[i % 3], price[i]) for i in range(150)],
        "MEASURE": [(i, lo[i], lo[i] + (i % 3) * 10)
                    for i in range(150)],
    }
    n = scaled(400, scale, floor=40)
    per = n * 9 // 100
    # five cheap templates (2-3 ms) and five dear ones (7-10 ms): the
    # first gets the statements left over, so 55% are cheap and the
    # median sits inside that group, not on the gap between the two
    first = n - 9 * per
    s: list = []

    def add(texts) -> None:
        s.extend(Stmt(text, "read") for text in texts)

    add(f"SELECT Amount FROM HUGE_SALE WHERE Shop = {v}"
        for v in strata(rng, first, 0, 10))
    add(f"SELECT Item FROM REGION_SALE WHERE Region = {r} "
        f"AND Amount > {a}"
        for r, a in zip(strata(rng, per, 0, 3), strata(rng, per, 40, 100)))
    # the union view is a set of (Shop, Item, Amount): with Shop fixed,
    # (Item, Amount) keeps its rows distinct.  Projecting Amount alone
    # does not, and there the rewritten plan (search_distinct_push)
    # returns fewer duplicates than the unrewritten one -- a real
    # divergence, left out so that every statement here has one answer
    add(f"SELECT Item, Amount FROM ALL_SALE WHERE Shop = {v}"
        for v in strata(rng, per, 0, 10))
    add(f"SELECT A.Item, A.Amount FROM ALL_SALE A WHERE A.Shop = {v} "
        f"AND A.Amount > {a}"
        for v, a in zip(strata(rng, per, 0, 10), strata(rng, per, 0, 100)))
    add(f"SELECT Id FROM TICKET WHERE State = 'lost' AND Price > {p}"
        for p in strata(rng, per, 0, 97))
    add(f"SELECT Id FROM TICKET WHERE State = '{states[i % 3]}' "
        f"AND Price > {p}"
        for i, p in enumerate(strata(rng, per, 0, 97)))
    add(f"SELECT Id FROM MEASURE WHERE Lo = {a} AND Lo > {a + d}"
        for a, d in zip(strata(rng, per, 0, 50), strata(rng, per, 0, 20)))
    add(f"SELECT Id FROM MEASURE WHERE Hi > {a} AND Hi > {a + d} "
        f"AND Hi > {a + 2 * d} AND 1 = 1"
        for a, d in zip(strata(rng, per, 0, 30), strata(rng, per, 1, 15)))
    add(f"SELECT Id FROM MEASURE WHERE Lo > {a} AND Lo < {a + d}"
        for a, d in zip(strata(rng, per, 0, 30), strata(rng, per, 2, 20)))
    add(f"SELECT Id FROM MEASURE WHERE Lo > {a + d} AND Lo < {a}"
        for a, d in zip(strata(rng, per, 0, 40),
                        strata(rng, per, 0, 10)))
    rng.shuffle(s)
    return Workload(
        name="rewrite_heavy",
        why="stacked and union views, an integrity constraint, "
            "transitivity and inconsistent predicates (Fig. 7-12), 3+ "
            "rule applications each: a change that makes a no-op "
            "rewrite free but slows firing shows here",
        tier="memory", ddl=REWRITE_DDL, constraints=[STATUS_CONSTRAINT],
        tables=tables, statements=s, count_prefix=80, calibrate_every=20,
        mix={"statements": n, "templates": 10,
             "rows": {k: len(v) for k, v in tables.items()},
             "shares": {"read": 1.0}},
    )


# -- dml_durable --------------------------------------------------------------

def dml_durable(rng: random.Random, scale: float) -> Workload:
    base = 100
    state = {i: (i, f"o{i % 7}", i * 3) for i in range(base)}
    initial = list(state.values())
    n = scaled(1500, scale, floor=60)
    # 45% inserts, not 50: with exactly half the statements in the
    # cheapest class the median would sit on the gap between two classes
    kinds = (["insert"] * (n * 45 // 100) + ["update"] * (n // 4)
             + ["delete"] * (n // 10))
    kinds += ["read"] * (n - len(kinds))
    rng.shuffle(kinds)
    next_id = base
    statements = []
    for kind in kinds:
        if kind == "insert":
            row = (next_id, f"o{rng.randrange(7)}", rng.randrange(1000))
            next_id += 1
            state[row[0]] = row
            statements.append(Stmt(insert_sql("ACCT", [row]), "write"))
            continue
        key = rng.choice(sorted(state))
        if kind == "update":
            delta = rng.randrange(1, 100)
            i, owner, bal = state[key]
            state[key] = (i, owner, bal + delta)
            statements.append(Stmt(
                f"UPDATE ACCT SET Bal = Bal + {delta} WHERE Id = {key}",
                "write"))
        elif kind == "delete":
            del state[key]
            statements.append(Stmt(
                f"DELETE FROM ACCT WHERE Id = {key}", "write"))
        else:
            statements.append(Stmt(
                f"SELECT Owner, Bal FROM ACCT WHERE Id = {key}", "read",
                (state[key][1:],)))
    return Workload(
        name="dml_durable",
        why="inserts, updates, deletes and point reads on a "
            "write-ahead-logged database with one checkpoint, then "
            "crash-copy and recovery: the only workload where the "
            "durability layer does real work",
        tier="durable",
        ddl=["TABLE ACCT (Id : NUMERIC, Owner : CHAR, Bal : NUMERIC)"],
        tables={"ACCT": initial}, statements=statements,
        final={"ACCT": bag(state.values())},
        checkpoint_at=2 * n // 3, count_prefix=400,
        calibrate_every=150,
        mix={"statements": n, "templates": 4, "rows": {"ACCT": base},
             "flush_policy": "sync=False",
             "shares": {"insert": 0.45, "update": 0.25, "delete": 0.1,
                        "read": 0.2}},
    )


# -- served_mixed -------------------------------------------------------------

SYS_READS = (
    "SELECT Name, Value FROM sys.metrics",
    "SELECT Id, Statements FROM sys.sessions",
    "SELECT Fingerprint, Calls FROM sys.statements",
)


def served_mixed(rng: random.Random, scale: float) -> Workload:
    clients = 2
    items = item_rows(rng, 120)
    # EVENTS rows with Client = -1 are never written, so reads that
    # restrict to them have one right answer whatever the interleaving
    events = [(i, -1, v) for i, v in
              enumerate(permuted(rng, (i * 10 for i in range(100))))]
    tables = {"ITEMS": items, "EVENTS": events}
    templates = _item_templates("ITEMS", "ITEMS")[:9]
    hot = _selections(rng, templates, tables, 36, repeats=0.0)
    for v in strata(rng, 12, 0, 1000):
        hot.append(Stmt(
            f"SELECT Id FROM EVENTS WHERE Client = -1 AND Val > {v}",
            "read", bag((e[0],) for e in events if e[2] > v)))
    per_client = scaled(500, scale, floor=40)
    final = {e[0]: e for e in events}
    lists = []
    for client in range(clients):
        kinds = (["write"] * (per_client // 5)
                 + ["sys"] * (per_client // 20))
        kinds += ["read"] * (per_client - len(kinds))
        rng.shuffle(kinds)
        own: dict = {}
        next_id = 100_000 * (client + 1)
        out = []
        for kind in kinds:
            if kind == "read":
                out.append(rng.choice(hot))
            elif kind == "sys":
                out.append(Stmt(rng.choice(SYS_READS), "sys"))
            elif not own or rng.random() < 0.6:
                row = (next_id, client, rng.randrange(1000))
                next_id += 1
                own[row[0]] = row
                out.append(Stmt(insert_sql("EVENTS", [row]), "write"))
            elif rng.random() < 0.7:
                key = rng.choice(sorted(own))
                value = rng.randrange(1000)
                own[key] = (key, client, value)
                out.append(Stmt(
                    f"UPDATE EVENTS SET Val = {value} WHERE Id = {key}",
                    "write"))
            else:
                key = rng.choice(sorted(own))
                del own[key]
                out.append(Stmt(
                    f"DELETE FROM EVENTS WHERE Id = {key}", "write"))
        final.update(own)
        lists.append([Stmt(s.text, s.kind, s.expect, client)
                      for s in out])
    # round-robin order: the serial order the traced count pass runs
    statements = [s for group in zip(*lists) for s in group]
    return Workload(
        name="served_mixed",
        why="two retrying clients on one Server: 75% reads from 48 "
            "repeating texts, 5% sys.* reads, 20% writes -- guard, "
            "admission, sessions and sys.* materialization under "
            "reader/writer contention",
        tier="served", clients=clients,
        ddl=[ITEM_DDL.format(name="ITEMS"),
             "TABLE EVENTS (Id : NUMERIC, Client : NUMERIC, "
             "Val : NUMERIC)"],
        tables=tables, restore=["DELETE FROM EVENTS WHERE Client >= 0"],
        statements=statements, final={"EVENTS": bag(final.values())},
        count_prefix=400,
        mix={"statements": len(statements), "per_client": per_client,
             "hot_texts": len(hot), "rows": {"ITEMS": 120, "EVENTS": 100},
             "shares": {"read": 0.75, "sys": 0.05, "write": 0.20}},
    )


# -- pooled_read --------------------------------------------------------------

def pooled_read(rng: random.Random, scale: float) -> Workload:
    tables = {"SMALL": item_rows(rng, 120), "NOTE": []}
    n = scaled(300, scale, floor=50)
    templates = _item_templates("SMALL", "SMALL")[:9]
    reads = _selections(rng, templates, tables, n, repeats=0.10)
    statements = []
    notes: list = []
    for i, read in enumerate(reads):
        if i % 25 == 24:
            row = (len(notes), rng.randrange(1000))
            notes.append(row)
            statements.append(Stmt(insert_sql("NOTE", [row]), "write"))
            # the next read proves the write reached the replica
            statements.append(Stmt(
                "SELECT Id, Val FROM NOTE WHERE Id >= 0", "read",
                bag(notes)))
        else:
            statements.append(read)
    return Workload(
        name="pooled_read",
        why="point reads through Server(workers=1) with a write every "
            "25th statement feeding the replica: the out-of-process "
            "tier's round trip; a read that falls back in-process "
            "counts as failed",
        tier="pooled", workers=1,
        ddl=[ITEM_DDL.format(name="SMALL"),
             "TABLE NOTE (Id : NUMERIC, Val : NUMERIC)"],
        tables=tables, restore=["DELETE FROM NOTE"],
        statements=statements, final={"NOTE": bag(notes)},
        count_prefix=200,
        mix={"statements": len(statements), "templates": 9,
             "rows": {"SMALL": 120, "NOTE": 0},
             "shares": {"read": round(1 - len(notes) / len(statements), 3),
                        "write": round(len(notes) / len(statements), 3)}},
    )


WORKLOADS = {
    "point_filter": point_filter,
    "join_heavy": join_heavy,
    "recursive_view": recursive_view,
    "rewrite_heavy": rewrite_heavy,
    "dml_durable": dml_durable,
    "served_mixed": served_mixed,
    "pooled_read": pooled_read,
}


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    """The workload ``name`` for ``seed``; ``scale`` below 1 shrinks
    the statement list (``--quick`` uses one tenth)."""
    # a str seed hashes through SHA-512, so it is independent of
    # PYTHONHASHSEED and distinct per workload
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name](rng, scale)
