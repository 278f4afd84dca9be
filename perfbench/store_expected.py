"""Store the answers of every document of a seed, rechecked with sympy.

    python3 perfbench/store_expected.py --seed 0

For each workload this writes ``perfbench/expected/<workload>-seed<N>.json``:
per document the outcome at this commit and the answers the benchmark
compares (count sequences, zeta factors, twisted power norms).  Lattice
counts are rechecked against |det(I - M^n)| from sympy, and each product
count must be a multiple of that lattice factor.  Documents that raise
NonInvertible because they ask for torsion angles are computed once more
without the angles, so that their answers are stored too.  Documents that do
not finish within STORE_DEADLINE_S have no stored answers.
"""

import argparse
import json
import sys
from pathlib import Path

import sympy

import checks
import run
import workloads

STORE_DEADLINE_S = 10.0


def lattice_factors(matrix, order):
    m = sympy.Matrix(matrix)
    eye = sympy.eye(m.rows)
    return [abs(int((eye - m ** n).det())) for n in range(1, order + 1)]


def recheck(doc, report):
    kind = doc.body["kind"]
    if kind == "abelian":
        counts = report["counts"]["determinant_formula"]
        if counts != lattice_factors(doc.body["matrix"], len(counts)):
            raise SystemExit(f"{doc.ident}: counts differ from sympy")
    elif kind == "product":
        counts = report["counts"]["product_formula"]
        for c, f in zip(counts, lattice_factors(doc.body["matrix"],
                                                len(counts))):
            if c % f:
                raise SystemExit(f"{doc.ident}: count {c} is not a multiple "
                                 f"of the lattice factor {f}")


def store(main, workload, seed):
    docs = workloads.make(workload, seed)
    paths = run.write_documents(workload, seed, docs)
    entries = {}
    for doc, path in zip(docs, paths):
        outcome = checks.compute(main, path, STORE_DEADLINE_S)
        entry = {"status": outcome.status, "answers": None}
        if outcome.status == checks.KNOWN_CRASH and doc.known_crash:
            body = dict(doc.body)
            body.pop("options")
            plain = Path(path).with_suffix(".no-torsion.json")
            plain.write_text(json.dumps(body))
            outcome = checks.compute(main, str(plain), STORE_DEADLINE_S)
            entry["answers_from"] = "the same document without torsion_angles"
        if outcome.ok:
            recheck(doc, outcome.report)
            entry["answers"] = checks.answers(outcome.report)
        entries[doc.ident] = entry
        print(f"{doc.ident}: {entry['status']}", file=sys.stderr)
    out = run.EXPECTED / f"{workload}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": workload, "seed": seed,
                               "commit": run.git_sha(),
                               "documents": entries}, indent=0) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        action="append")
    args = parser.parse_args(argv)
    cli = run.import_package()
    checks.arm_deadline_handler()
    for workload in args.workload or workloads.WORKLOADS:
        store(cli.main, workload, args.seed)


if __name__ == "__main__":
    main()
