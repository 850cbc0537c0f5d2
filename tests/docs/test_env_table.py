"""The environment-variable table in docs/architecture.md is complete.

Every ``CHECKFENCE_*`` name the package mentions under ``src/`` must have a
row in the "Environment variables" table, and every row must name a
variable the package still reads — so adding or deleting a knob without
touching the table fails here.
"""

import os
import re

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))
_NAME = re.compile(r"CHECKFENCE_[A-Z_]+")


def _source_names() -> set[str]:
    names: set[str] = set()
    for directory, _, files in os.walk(os.path.join(_REPO_ROOT, "src")):
        for filename in files:
            if filename.endswith(".py"):
                path = os.path.join(directory, filename)
                with open(path, encoding="utf-8") as handle:
                    names.update(_NAME.findall(handle.read()))
    return names


def _table_names() -> set[str]:
    path = os.path.join(_REPO_ROOT, "docs", "architecture.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("## Environment variables", 1)[1]
    section = section.split("\n## ", 1)[0]
    names: set[str] = set()
    for line in section.splitlines():
        if line.startswith("|"):
            first_cell = line.split("|")[1]
            names.update(_NAME.findall(first_cell))
    return names


def test_env_table_matches_source():
    source, table = _source_names(), _table_names()
    assert source, "no CHECKFENCE_* names found under src/"
    assert source - table == set(), "read under src/ but missing from the table"
    assert table - source == set(), "in the table but no longer read under src/"
