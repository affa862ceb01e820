"""Replay the golden stdout corpus of ``lumen`` (tests/golden/lumen.txt)."""

import pytest

from golden.regen import CORPUS, parse, run

ENTRIES = parse(CORPUS.read_text(encoding="utf-8"))


def test_corpus_is_not_empty():
    assert len(ENTRIES) > 50


@pytest.mark.parametrize("invocation, code, lines, error", ENTRIES,
                         ids=[entry[0] for entry in ENTRIES])
def test_lumen_matches_the_golden_corpus(invocation, code, lines, error, tmp_path):
    assert run(invocation, tmp_path) == (code, lines, error)
