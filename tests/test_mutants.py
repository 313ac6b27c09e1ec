"""The mutant catalogue stays in step with the code.  The mutants
themselves run only through ``python tests/mutants.py``."""

import os

from mutants import MUTANTS, ROOT


def test_mutant_catalogue_matches_the_tree():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        with open(os.path.join(ROOT, m.path)) as fh:
            assert fh.read().count(m.old) == 1, m.name
        assert m.new != m.old and m.tests, m.name
        for test in m.tests:
            path, _, func = test.partition("::")
            with open(os.path.join(ROOT, path)) as fh:  # the test file exists
                text = fh.read()
            assert not func or f"def {func}(" in text, (m.name, test)
