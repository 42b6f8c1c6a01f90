"""Determinism gate: every golden case learns the model and log it always did."""

import pytest

from golden import cases, digests, load_manifest

MANIFEST = load_manifest()


def test_manifest_covers_every_case():
    assert sorted(MANIFEST) == sorted(cases())


@pytest.mark.parametrize("name", sorted(cases()))
def test_golden_case(name):
    assert digests(name) == MANIFEST[name]
