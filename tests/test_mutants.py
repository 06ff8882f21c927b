"""The standing mutant table stays applicable: tests/mutants.py applies each
mutant by replacing its old text, so that text must occur exactly once and
the mutant must change it."""

from mutants import MUTANTS, ROOT


def test_each_mutant_replaces_text_that_occurs_once():
    assert MUTANTS
    for mutant in MUTANTS:
        assert mutant.new != mutant.old
        assert mutant.tests
        assert (ROOT / mutant.path).read_text().count(mutant.old) == 1, mutant
