"""Record the expected exit code and output digest of every pool document.

    python3 perfbench/record_reference.py [workload ...]

Runs each document of the named workloads' pools (all workloads by default)
through `weilres.cli.main` and stores `[exit code, SHA-256 of the output
file]` under the document's key in `reference.json`.  The reference pins the
CLI output byte for byte, so record it only at a commit whose outputs are
known to be right, never to make a failing benchmark pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import gen  # noqa: E402
from weilres.cli import main as cli_main  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")


def record(workloads):
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {}
    with tempfile.TemporaryDirectory(dir=os.path.dirname(HERE)) as work:
        doc, out = os.path.join(work, "doc.json"), os.path.join(work, "out.json")
        for workload in workloads:
            for key in [k for k in reference if k.startswith(workload + "/")]:
                del reference[key]
            for req in gen.pool(workload):
                with open(doc, "w", encoding="utf-8") as fh:
                    fh.write(req.text)
                if os.path.exists(out):
                    os.remove(out)
                code = cli_main(req.argv + ["--input", doc, "--output", out])
                digest = None
                if os.path.exists(out):
                    with open(out, "rb") as fh:
                        digest = hashlib.sha256(fh.read()).hexdigest()
                reference[req.key] = [code, digest]
            print("%s: %d documents" % (workload, len(gen.pool(workload))))
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    record(sys.argv[1:] or list(gen.WORKLOADS))
