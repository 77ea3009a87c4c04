"""The weilres benchmark: drive the CLI in process, one document per request.

    python3 perfbench/run.py --workload restrict_prime --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

A single client calls `weilres.cli.main([..., "--input", doc, "--output",
out])` in a closed loop, on one thread, so each request pays the document
read and parse, the computation and the JSON emit, as a CLI user does.  The
run's documents come from `gen.requests(workload, seed)`; the loop runs
rounds of all of them, each round in a fresh seeded order, while the next
round is expected to end within `--seconds`, and at least two.  A fixed
probe runs before every request, and every time is corrected for the host
speed the probes show around it (see `hostspeed.py`); a document's time is
the median of its corrected times.  Every output is checked against the exit
code and SHA-256 digest recorded in `reference.json`, and a seeded subsample
of restrict and disc documents is re-derived by the independent checks in
`oracle.py`, outside the timed loop.

With `--trace 0` the run reports the end-to-end metrics.  With `--trace 1`
it runs half of `--seconds` untraced, then every pass once traced (see
`tracing.py`), and reports per-pass span self times, call counts and exact
operation counts.  The last line of standard output is one JSON object; the
exit code is 0 only when every output was correct, 2 when there are no
sources.  Sources are imported from `src/` of the checkout that holds this
file.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import gen  # noqa: E402
import hostspeed  # noqa: E402
import oracle  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
MIN_ROUNDS = 2
# A request's time is corrected by the probes within this many requests of
# it on either side (see hostspeed.py).
PROBE_WINDOW = 2
SPOT_CHECKS = 2
# Spot checks enumerate p^(rank * variables) points or expand a rank-n
# determinant; larger documents are left to the digest check.
SPOT_RESTRICT_POINTS = 729
SPOT_DISC_RANK = 4


# ---------------------------------------------------------------------------
# environment


def git_sha():
    """HEAD of the checkout read from .git, or 'unknown' outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup(paths):
    """Import the CLI afresh and load every document once, with a probe
    before and after the import and every load; returns (corrected seconds,
    cli)."""
    for name in [m for m in sys.modules
                 if m == "weilres" or m.startswith("weilres.")]:
        del sys.modules[name]
    probes, times = [hostspeed.probe()], []
    start = time.perf_counter()
    cli = importlib.import_module("weilres.cli")
    load = sys.modules["weilres.documents"].load_document_text
    times.append(time.perf_counter() - start)
    probes.append(hostspeed.probe())
    for path in paths:
        start = time.perf_counter()
        with open(path, encoding="utf-8") as fh:
            load(fh.read())
        times.append(time.perf_counter() - start)
        probes.append(hostspeed.probe())
    return sum(hostspeed.corrected(times, probes, PROBE_WINDOW)), cli


# ---------------------------------------------------------------------------
# the closed loop


class Loop:
    """Runs documents through cli.main and checks each output against the
    reference.  A probe runs before every request (see hostspeed.py);
    `timeline` holds (document key, wall seconds) of every request in
    order, and `probes` the probe times around them."""

    def __init__(self, cli, passes, paths, out, reference):
        self.cli = cli
        self.passes = passes
        self.paths = paths
        self.out = out
        self.reference = reference
        self.timeline = []
        self.probes = []
        self.attempted = 0
        self.failures = []
        self.digests = {}

    def run_requests(self, requests, tracer=None):
        for req in requests:
            if os.path.exists(self.out):
                os.remove(self.out)
            argv = req.argv + ["--input", self.paths[req.key], "--output",
                               self.out]
            if tracer is not None:
                tracer.request = req.key
            error = None
            self.probes.append(hostspeed.probe())
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed request
                code, error = None, "%s: %s" % (type(exc).__name__, exc)
            self.timeline.append((req.key, time.perf_counter() - start))
            self.attempted += 1
            digest = None
            if os.path.exists(self.out):
                with open(self.out, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
            self.digests[req.key] = digest
            want = self.reference.get(req.key)
            if error is None and want is None:
                error = "no reference recorded"
            elif error is None and [code, digest] != want:
                error = "exit %s digest %s, want exit %s digest %s" % (
                    code, digest and digest[:12], want[0], want[1] and want[1][:12])
            if error is not None:
                self.failures.append("%s: %s" % (req.key, error))

    def run(self, seconds, rng, min_rounds=1):
        """Rounds of every document of the run, each round in a fresh order
        drawn from `rng`.  A round starts only if, at the mean round time so
        far, it ends within `seconds`, unless fewer than `min_rounds` have
        run; a probe follows the last request.  Returns the rounds run."""
        requests = [req for chunk in self.passes for req in chunk]
        start, rounds = time.perf_counter(), 0
        while True:
            order = list(requests)
            rng.shuffle(order)
            self.run_requests(order)
            rounds += 1
            elapsed = time.perf_counter() - start
            if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
                self.probes.append(hostspeed.probe())
                return rounds

    def corrected(self):
        """The corrected time of every request, in order; the probe after
        the last request must have run."""
        return hostspeed.corrected([t for _, t in self.timeline], self.probes,
                                   PROBE_WINDOW)

    def per_document(self):
        """Every document's median corrected time, in seconds."""
        by_key = {}
        for (key, _), t in zip(self.timeline, self.corrected()):
            by_key.setdefault(key, []).append(t)
        return [statistics.median(ts) for ts in by_key.values()]

    def throughput(self):
        """Requests completed per corrected second."""
        return len(self.timeline) / sum(self.corrected())


# ---------------------------------------------------------------------------
# spot checks


def spot_checks(workload, seed, requests, cli, out):
    """Re-derive a seeded subsample of outputs independently; returns the
    failure messages."""
    if workload == "restrict_prime":
        eligible = [r for r in requests if r.spec["p"] ** (
            len(r.spec["unit"]) * len(r.spec["variables"])) <= SPOT_RESTRICT_POINTS]
    elif workload == "disc_function":
        eligible = [r for r in requests if r.spec["rank"] <= SPOT_DISC_RANK]
    else:
        return []
    rng = random.Random("spot:%s:%d" % (workload, seed))
    chosen = rng.sample(eligible, min(SPOT_CHECKS, len(eligible)))
    failures = []
    for req in chosen:
        path = out + ".doc.json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(req.text)
        try:
            if cli.main(req.argv + ["--input", path, "--output", out]) != 0:
                raise ValueError("the document failed to run")
            with open(out, encoding="utf-8") as fh:
                record = json.load(fh)
            if workload == "restrict_prime":
                error = oracle.check_restrict(req.spec, record)
            else:
                error = oracle.check_disc(req.spec, record, rng)
        except Exception as exc:  # a crash fails the check, not the run
            error = "%s: %s" % (type(exc).__name__, exc)
        if error:
            failures.append("%s: spot check: %s" % (req.key, error))
    return failures


# ---------------------------------------------------------------------------
# one workload


def quantile(values, q):
    """Harrell-Davis estimate of the q-th percentile: the mean of all order
    statistics, weighted by the Beta(p(n + 1), (1 - p)(n + 1)) probability of
    each [(i - 1)/n, i/n], p = q/100.  Where few documents lie near the
    percentile, a single order statistic jumps from one document to the
    next; resampling one run's per-request times, this estimate's quartile
    spread was 2% where the interpolated order statistic's was 8%."""
    xs = sorted(values)
    n, p = len(xs), q / 100.0
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
                        - log_beta)

    # Simpson's rule with 16 panels on each [(i - 1)/n, i/n]
    weights = []
    for i in range(n):
        h = 1.0 / (16 * n)
        ys = [density((16 * i + j) * h) for j in range(17)]
        weights.append(h / 3 * (ys[0] + ys[16] + 4 * sum(ys[1:16:2])
                                + 2 * sum(ys[2:15:2])))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def run_workload(workload, seed, seconds, traced):
    if not os.path.isfile(os.path.join(SRC, "weilres", "__init__.py")):
        sys.stderr.write("perfbench: no weilres sources under %s\n" % SRC)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)

    work = os.path.join(WORK, "%s-%d-%d" % (workload, seed, os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        return _run(workload, seed, seconds, traced, reference, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, seed, seconds, traced, reference, work):
    passes = gen.requests(workload, seed)
    requests = [req for chunk in passes for req in chunk]
    paths = {}
    for i, req in enumerate(requests):
        paths[req.key] = os.path.join(work, "doc%04d.json" % i)
        with open(paths[req.key], "w", encoding="utf-8") as fh:
            fh.write(req.text)
    out = os.path.join(work, "out.json")

    # untraced, at least SETUP_REPEATS set-ups, and more while they have
    # taken less than SETUP_SECONDS in all
    repeats = 1 if traced else SETUP_REPEATS
    setups, start = [], time.perf_counter()
    while len(setups) < repeats or (
            not traced and time.perf_counter() - start < SETUP_SECONDS):
        elapsed, cli = setup(paths.values())
        setups.append(elapsed)
    if not cli.__file__.startswith(SRC + os.sep):
        sys.stderr.write("perfbench: imported weilres from %s, not %s\n"
                         % (cli.__file__, SRC))
        return 2

    loop = Loop(cli, passes, paths, out, reference)
    rng = random.Random("rounds:%s:%d" % (workload, seed))
    if not traced:
        rounds = loop.run(seconds, rng, MIN_ROUNDS)
        docs = loop.per_document()
        n, p90 = len(docs), quantile(docs, 90)
        how = "median of %d rounds per document, corrected" % rounds
        metrics = {
            "throughput_docs_per_s": (n / sum(docs), "1/s",
                                      "%d documents / their summed times, %s"
                                      % (n, how)),
            "latency_p50_s": (quantile(docs, 50), "s",
                              "Harrell-Davis p50 of %d documents, %s"
                              % (n, how)),
            "latency_p90_s": (p90, "s", "Harrell-Davis p90 of %d documents, "
                              "%d beyond it, %s"
                              % (n, sum(d > p90 for d in docs), how)),
            "setup_s": (statistics.median(setups), "s",
                        "median of %d set-ups of %d documents, corrected"
                        % (len(setups), len(requests))),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB", "peak of the process"),
        }
        loops, checks = [loop], []
        probe = statistics.median(loop.probes)
        notes = ["host slowdown %.3f: median probe %.3f ms, %.3f ms on the "
                 "reference host" % (hostspeed.slowdown([probe]), probe * 1e3,
                                     hostspeed.REFERENCE_S * 1e3)]
    else:
        metrics, loops, checks, note = traced_run(
            cli, passes, paths, out, reference, seconds, loop, rng, workload,
            seed)
        notes = [note]
    failures = [f for lp in loops for f in lp.failures] + checks
    attempted = sum(lp.attempted for lp in loops)
    failures += spot_checks(workload, seed, requests, cli, out)
    failed = len(failures)

    print("workload %s seed %d: %d passes of %d documents, %d requests, %s"
          % (workload, seed, len(passes), len(passes[0]), attempted,
             "traced" if traced else "untraced"))
    for name, (value, unit, how) in metrics.items():
        print("  %-40s %14.6g %-6s %s" % (name, value, unit, how))
    print("  %-40s %14.6g %-6s %d failed of %d attempted"
          % ("error_rate", failed / attempted, "ratio", failed, attempted))
    for note in notes:
        print("  " + note)
    for failure in failures[:20]:
        print("  FAILED %s" % failure)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if not failures else 1


def traced_run(cli, passes, paths, out, reference, seconds, untraced, rng,
               workload, seed):
    """Half of `seconds` untraced, then every pass once traced, then the
    first pass traced again to check that its counts repeat exactly."""
    untraced.run(seconds / 2.0, rng)
    tracer = Tracer()
    loop = Loop(cli, passes, paths, out, reference)
    first = None
    tracer.install()
    try:
        for index in range(len(passes)):
            loop.run_requests(passes[index], tracer)
            if first is None:
                first = dict(tracer.counts)
    finally:
        tracer.uninstall()
    loop.probes.append(hostspeed.probe())
    again = Tracer()
    repeat = Loop(cli, passes, paths, out, reference)
    again.install()
    try:
        repeat.run_requests(passes[0], again)
    finally:
        again.uninstall()
    failures = []
    if dict(again.counts) != first:
        failures.append("operation counts of a repeated traced pass differ")
    if any(loop.digests[key] != digest for key, digest in
           list(untraced.digests.items()) + list(repeat.digests.items())):
        failures.append("traced outputs differ from untraced outputs")

    metrics = {}
    how = "per pass, %d traced passes" % len(passes)
    for name, (value, unit) in tracer.metrics(len(passes)).items():
        metrics[name] = (value, unit, how)
    metrics["trace.overhead"] = (
        loop.throughput() / untraced.throughput(), "ratio",
        "traced / untraced throughput, %d / %d requests"
        % (loop.attempted, untraced.attempted))
    spans = os.path.join(WORK, "trace-%s-%d.jsonl" % (workload, seed))
    tracer.write(spans)
    note = "%d spans written to %s" % (len(tracer.spans), spans)
    return metrics, [untraced, loop, repeat], failures, note


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(gen.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print("weilres benchmark  sha %s  python %s  nproc %d"
          % (git_sha(), platform.python_version(),
             len(os.sched_getaffinity(0))))
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    # every workload in its own process, so peak memory stays per workload
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in gen.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[1:-1]) + "\n")
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 2
        status = max(status, proc.returncode)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"]["%s.%s" % (workload, name)] = value
    print(json.dumps(combined, sort_keys=True))
    return status


if __name__ == "__main__":
    sys.exit(main())
