"""The regression corpus: minimized divergences, committed as JSON.

Every non-equivalence the harness has ever confirmed lives on as a
small JSON file (one :class:`~repro.qa.schema_gen.Case` per file) under
``tests/qa_corpus/``.  The tier-1 suite replays the whole directory
through the differential oracle on every run, so a fixed bug stays
fixed -- the corpus is the fuzzing analogue of a unit-test file, grown
one shrunk counterexample at a time.

File names are content-addressed (``<name>-<hash>.json``) so saving the
same minimized case twice is idempotent.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.digest import sha1
from repro.qa.schema_gen import Case

__all__ = ["case_filename", "save_case", "load_case", "load_corpus"]


def _slug(text: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")
    return slug[:40] or "case"


def case_filename(case: Case) -> str:
    digest = sha1(
        (case.query + "\n" + case.setup_script()).encode("utf-8")
    ).hexdigest()[:10]
    return f"{_slug(case.name or 'case')}-{digest}.json"


def save_case(case: Case, directory) -> Path:
    """Write ``case`` into ``directory``; returns the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / case_filename(case)
    path.write_text(
        json.dumps(case.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def load_case(path) -> Case:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return Case.from_dict(data)


def load_corpus(directory) -> list[tuple[str, Case]]:
    """All corpus cases in ``directory``, name-sorted for determinism."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return [(path.name, load_case(path))
            for path in sorted(directory.glob("*.json"))]
