import pytest

from rank2cluster import cli


@pytest.fixture(autouse=True)
def _no_kept_answers():
    # a kept CLI answer would serve a later test's call without running it
    cli._ANSWERS.clear()
