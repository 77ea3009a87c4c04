"""Run the guard manifest, tests/guards.json.

A guard is one command line over a committed document whose output must
not change: each manifest entry holds the argv after ``weilres``, the exit
code, a timeout in seconds, what the run must show (the sha256 of stdout,
for ``points`` the count of distinct points, for a refusal the whole stderr
line, ``same_as`` another entry's bytes, ``also_via_output`` the same bytes
through ``--output``) and ``why`` those expectations can be trusted.

``check(entry, entries)`` runs ``python -m weilres.cli`` in a fresh process from
the repository root, with this checkout's ``src`` first on ``PYTHONPATH``,
and raises AssertionError on the first difference; a run past its timeout is
killed and fails the entry.  tests/test_guards.py runs every entry.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "guards.json"
PREFIX = {2: "input error: ", 3: "resource bound: "}


def load():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def run(entry, extra=()):
    """The completed process of entry's command line plus extra."""
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, "-m", "weilres.cli", *entry["argv"], *extra],
                          cwd=ROOT, env=env, capture_output=True,
                          timeout=entry["timeout"])


def check(entry, entries):
    """Assert that entry's run shows what entry records; entries maps the
    manifest's names to entries, for same_as."""
    done = run(entry)
    out, err = done.stdout, done.stderr.decode("utf-8")
    assert done.returncode == entry["exit"], (done.returncode, err)
    if entry["exit"]:
        assert out == b"" and err.count("\n") == 1, (out, err)
        assert err.startswith(PREFIX[entry["exit"]]), err
    else:
        assert err == "", err
    if "stderr" in entry:
        assert err == entry["stderr"] + "\n", err
    if "sha256" in entry:
        assert hashlib.sha256(out).hexdigest() == entry["sha256"]
    if "count" in entry:
        record = json.loads(out)
        assert record["count"] == entry["count"], record["count"]
        assert len(set(map(tuple, record["points"]))) == entry["count"]
    if "same_as" in entry:
        assert out == run(entries[entry["same_as"]]).stdout, entry["same_as"]
    if entry.get("also_via_output"):
        with tempfile.TemporaryDirectory() as scratch:
            target = pathlib.Path(scratch) / "output.json"
            assert run(entry, ["--output", str(target)]).returncode == 0
            assert target.read_bytes() == out
