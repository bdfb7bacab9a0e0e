"""The serialized-CPU churn against the golden written before the bundle
charge lost its process: same set-ups, same simulated span to the last
bit, same requests and installs on every shard."""

from tests.shard_churn_golden import GOLDEN, churn_doc, render


def test_shard_churn_byte_identical_to_golden():
    assert render(churn_doc()) == GOLDEN.read_text()
