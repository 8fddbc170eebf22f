"""Seeded outputs and PRAM ledgers match the committed golden digest.

``tests/data/golden.json`` holds one sha256 and one ledger per seeded
call (``tests/golden_digest.py`` lists them and regenerates the file).
A change that moves an entry must say in CHANGES.md which entries moved
and why before the file is regenerated.
"""

from __future__ import annotations

import json

import pytest

from golden_digest import GOLDEN_PATH, compute, render


@pytest.fixture(scope="module")
def fresh():
    return compute()


def test_every_entry_matches(fresh):
    committed = json.loads(GOLDEN_PATH.read_text())
    assert committed["format"] == fresh["format"]
    want, got = committed["entries"], fresh["entries"]
    assert sorted(got) == sorted(want)
    moved = [name for name in want if got[name] != want[name]]
    assert not moved, f"golden entries moved: {moved}"


def test_regeneration_is_byte_identical(fresh):
    assert render(fresh) == GOLDEN_PATH.read_text()
