"""A served statement's deadline ends it exactly as it ends the same
statement unserved: the statement enforces its own deadline at its
cooperative checks, and nothing else races it to a different outcome.

The rewrite stalls 20 ms at every position of every block, so the
50 ms deadline passes mid-rewrite.  The rewrite then degrades (stops
rewriting) and the three-row evaluation finishes before its first
full check -- served or not, with degrade mode on or off."""

import pytest

from repro.server import Server, SessionSettings

from tests.resilience.chaos import SALE_QUERY, StallingRule, sale_db

_TIMEOUT_MS = 50.0


def _stalling(db):
    rewriter = db.optimizer.rewriter
    for block in rewriter.seq.blocks:
        rewriter.add_rule(StallingRule(delay_s=0.02), block.name)
    return db


def _outcome(db, run):
    """Rows (sorted) or the error's type and reason, plus the phase
    the statement retired in."""
    try:
        ended = ("rows", sorted(run().rows))
    except Exception as error:  # noqa: BLE001
        ended = (type(error).__name__, getattr(error, "reason", None))
    return ended, db.lifecycle.recent()[-1].phase


@pytest.mark.parametrize("degrade", [False, True])
def test_served_and_unserved_deadlines_end_alike(degrade):
    db = _stalling(sale_db(statement_timeout_ms=_TIMEOUT_MS,
                           degrade=degrade))
    unserved = _outcome(db, lambda: db.query(SALE_QUERY))

    db = _stalling(sale_db())
    server = Server(db)
    try:
        session = server.open_session(settings=SessionSettings(
            timeout_ms=_TIMEOUT_MS, degrade=degrade,
        ))
        served = _outcome(
            db, lambda: server.query(SALE_QUERY, session=session.id)
        )
    finally:
        server.close()

    assert unserved == (("rows", [(15,), (25,), (40,)]), "done")
    assert served == unserved
