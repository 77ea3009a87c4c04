"""Tests of the benchmark itself (not of weilres):

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's default pytest
collection; name the file to run them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import hostspeed  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from weilres import cli  # noqa: E402
from weilres.documents import load_document_text  # noqa: E402


def _run(req, tmp_path):
    doc, out = tmp_path / "doc.json", tmp_path / "out.json"
    doc.write_text(req.text)
    if out.exists():
        out.unlink()
    code = cli.main(req.argv + ["--input", str(doc), "--output", str(out)])
    return code, out.read_bytes() if out.exists() else None


def _sample():
    """The first pool document of every suite and of every third stratum of
    the other workloads."""
    return [gen.build(w, name, 0)
            for w, strata in gen.WORKLOADS.items()
            for name, _, _, _ in (strata if w == "verify_suites" else strata[::3])]


def _flat(workload, seed):
    return [req for chunk in gen.requests(workload, seed) for req in chunk]


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_documents(workload):
    first = _flat(workload, 7)
    assert [(r.key, r.argv, r.text) for r in first] == [
        (r.key, r.argv, r.text) for r in _flat(workload, 7)]
    other = _flat(workload, 8)
    assert [r.text for r in first] != [r.text for r in other]
    if workload != "verify_suites":  # which runs its whole pool, reordered
        assert {r.key for r in first} != {r.key for r in other}


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_passes_share_their_make_up_and_never_repeat_a_document(workload):
    passes = gen.requests(workload, 3)
    make_up = [sorted(r.key.split("/")[1] for r in chunk) for chunk in passes]
    assert all(m == make_up[0] for m in make_up)
    keys = [r.key for chunk in passes for r in chunk]
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_every_pool_document_loads_and_has_a_reference(workload):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    for req in gen.pool(workload):
        load_document_text(req.text)
        assert reference[req.key][0] == 0, req.key


def test_self_time_subtracts_child_coverage():
    # a [0, 10] with children b [1, 4] and c [3, 6] (overlapping) and d
    # [8, 12] running past its end; b has a child e [2, 3]
    spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["e", 2.0, 3.0, 1, 0],
        ["c", 3.0, 6.0, 0, 0],
        ["d", 8.0, 12.0, 0, 0],
        ["a", 20.0, 21.0, -1, 1],
    ]
    own = tracing.self_times(spans)
    assert own == [10.0 - 5.0 - 2.0, 2.0, 1.0, 3.0, 4.0, 1.0]
    totals = tracing.summarize(spans)
    assert totals["a"] == [4.0, 2]
    assert totals["cli.main"] == [0.0, 0]


def test_correction_divides_by_the_slowdown_of_nearby_probes():
    ref = hostspeed.REFERENCE_S
    # three requests; the host turns twice as slow during the second
    probes = [ref, ref, 2 * ref, 2 * ref]
    assert hostspeed.corrected([1.0, 1.5, 2.0], probes, 0) == pytest.approx(
        [1.0, 1.0, 1.0])
    # with a window of one request, the first sees probes 0 to 2, the second
    # all four, the last probes 1 to 3
    assert hostspeed.corrected([1.0, 1.5, 2.0], probes, 1) == pytest.approx(
        [0.75, 1.0, 1.2])
    with pytest.raises(ValueError):
        hostspeed.corrected([1.0], probes, 0)


def test_percentiles_weigh_every_document():
    # symmetric weights: the median of 1..101 is 51; a constant stays put
    assert run.quantile(range(1, 102), 50) == pytest.approx(51)
    assert run.quantile([0.25] * 30, 90) == pytest.approx(0.25)
    # between the 90th and 91st of 1..100, and barely moved by a far outlier
    assert 90 < run.quantile(range(1, 101), 90) < 91
    assert 90 < run.quantile(list(range(1, 100)) + [10 ** 6], 90) < 91


def _traced_counts(requests, tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        digests = [_run(req, tmp_path) for req in requests]
    finally:
        tracer.uninstall()
    return tracer, digests


def test_counts_repeat_exactly_and_outputs_match_untraced(tmp_path):
    requests = _sample()
    untraced = [_run(req, tmp_path) for req in requests]
    first, traced = _traced_counts(requests, tmp_path)
    second, _ = _traced_counts(requests, tmp_path)
    assert traced == untraced
    assert first.counts == second.counts
    metrics = first.metrics(1)
    for name in tracing.SPANS:
        assert metrics[name + ".calls"][0] > 0, name
    for name in tracing.COUNTS:
        assert name in metrics
    assert metrics["fields.prime.mul"][0] > 0
    assert metrics["fields.function.mul"][0] > 0
    assert metrics["fields.galois.mul"][0] > 0
    assert metrics["restriction.assignments"][0] >= metrics[
        "restriction.points_found"][0] > 0


def test_uninstall_restores_every_patched_name():
    from weilres import fields, restriction
    before = (restriction.expand_element, cli.restrict,
              fields.FieldElement.__mul__, restriction._assignments)
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.restrict is not before[1]
    tracer.uninstall()
    assert (restriction.expand_element, cli.restrict,
            fields.FieldElement.__mul__, restriction._assignments) == before


def test_reference_digests_match_this_checkout(tmp_path):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    for req in _sample():
        code, out = _run(req, tmp_path)
        assert [code, hashlib.sha256(out).hexdigest()] == reference[req.key]


def _first(workload, predicate):
    return next(r for r in gen.pool(workload) if predicate(r.spec))


def test_restrict_spot_check_accepts_output_and_rejects_a_wrong_one(tmp_path):
    req = _first("restrict_prime", lambda s: s["p"] ** (
        len(s["unit"]) * len(s["variables"])) <= 81)
    code, out = _run(req, tmp_path)
    record = json.loads(out)
    assert code == 0 and oracle.check_restrict(req.spec, record) is None
    gens = record["presentation"]["generators"]
    record["presentation"]["generators"] = gens[:-1] + [gens[-1] + " + 1"]
    assert oracle.check_restrict(req.spec, record) is not None


def test_disc_spot_check_accepts_output_and_rejects_a_wrong_one(tmp_path):
    req = _first("disc_function", lambda s: s["rank"] == 3)
    code, out = _run(req, tmp_path)
    record = json.loads(out)
    assert code == 0
    assert oracle.check_disc(req.spec, record, random.Random(1)) is None
    record["generators"][-1] += " + x"
    assert oracle.check_disc(req.spec, record, random.Random(1)) is not None
