"""Every entry of the guard manifest, tests/guards.json, run by guards.check
in a fresh process under its timeout; and the manifest as the one place
where guard documents and digests are written down."""

import re

import pytest

import guards

ENTRIES = guards.load()
BY_NAME = {entry["name"]: entry for entry in ENTRIES}
TESTS = guards.ROOT / "tests"


@pytest.mark.parametrize("entry", ENTRIES, ids=[entry["name"] for entry in ENTRIES])
def test_guard(entry):
    guards.check(entry, BY_NAME)


def inputs():
    return [entry["argv"][entry["argv"].index("--input") + 1] for entry in ENTRIES]


def test_entry_names_and_digests_are_unique():
    assert len(BY_NAME) == len(ENTRIES)
    digests = [entry["sha256"] for entry in ENTRIES if "sha256" in entry]
    assert len(set(digests)) == len(digests)


def test_every_input_exists():
    assert [path for path in inputs() if not (guards.ROOT / path).is_file()] == []


def test_every_test_document_is_a_guard_input():
    documents = {"tests/" + path.name for path in TESTS.glob("*.json")}
    documents -= {"tests/guards.json", "tests/fixed_points_golden.json"}
    assert sorted(documents - set(inputs())) == []


def test_no_digest_outside_the_manifest():
    digest = re.compile(r"[0-9a-f]{64}")
    files = list(TESTS.glob("*.py")) + [
        path for path in (guards.ROOT / ".github").rglob("*") if path.is_file()]
    assert [path.name for path in files
            if digest.search(path.read_text(encoding="utf-8"))] == []
