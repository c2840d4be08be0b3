"""The output-identity corpus (``tests/corpus.py``): every request of
``golden/corpus_requests.txt`` reproduces its recorded digest."""

from __future__ import annotations

import json

import pytest

import corpus


@pytest.fixture(scope="module")
def recorded():
    return json.loads(corpus.DIGESTS.read_text())


def test_every_request_reproduces_its_digest(recorded):
    assert corpus.version_mismatch(recorded) is None, corpus.version_mismatch(recorded)
    replayed = corpus.replay()
    assert list(replayed) == list(recorded["digests"]), "the request list and the digests differ"
    assert corpus.moved(recorded["digests"], replayed) == []


def test_a_version_mismatch_names_both_versions(recorded):
    other = {**recorded, "numpy": "0.0.1"}
    why = corpus.version_mismatch(other)
    assert "numpy 0.0.1" in why and f"numpy {corpus.versions()['numpy']}" in why
    assert f"python {corpus.versions()['python']}" in why
