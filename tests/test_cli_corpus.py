"""The CLI output corpus (tests/cli_corpus.py) against its committed digests."""

import cli_corpus


def test_cli_outputs_match_the_committed_corpus():
    problems = cli_corpus.mismatches()
    assert not problems, ("CLI outputs moved; if the change is meant, list it in CHANGES.md "
                          "and run python tests/cli_corpus.py --write\n" + "\n".join(problems))
