"""Benchmark of verified `twistedzeta compute` reports.

One workload of seeded problem documents goes through the real command-line
path, ``twistedzeta.cli.main(["compute", <document>])``, inside this process
with stdout captured.  Documents run one after another, each starting when
the previous one has finished: a closed loop with one client and one thread.
Every report is checked (see ``checks.py``).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload product --seed 0 --seconds 50 --trace 0

``--trace 0`` cycles through the documents for ``--seconds`` seconds and
reports the end-to-end metrics.  Their times are scaled to a nominal machine
speed by a reference computation timed next to each document (``speed.py``).
``--trace 1`` runs every document once untraced and once traced and reports
per-layer metrics from the traced runs.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

Documents, spans and a summary of each run are written under ``.bench_out/``
in the checkout.  ``store_expected.py`` rewrites the stored answers.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
EXPECTED = Path(__file__).resolve().parent / "expected"

# One fixed wall-clock limit per document.  Every regular document takes at
# most about half of it on a 2-core x86 box; the frontier documents take at
# least twice as long.
DEADLINE_S = 3.0
# The import in a fresh interpreter, and document generation with the warm-up
# document, are each repeated this many times for setup_s.
SETUP_REPEATS = 5
# Run by a fresh interpreter: the time to import numpy and the package.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "start = time.perf_counter(); import numpy, twistedzeta.cli; "
                "print(time.perf_counter() - start)")

# Per-layer metrics printed with --trace 1.  The full table of every spanned
# function is written to .bench_out/ as well.
FUNCTIONS_REPORTED = (
    "cli.main", "cli.parse_problem", "cli.run",
    "intlinalg.det", "intlinalg.char_poly", "intlinalg.smith_normal_form",
    "intlinalg.unimodular_inverse", "intlinalg.exterior_power",
    "intlinalg.kron", "intlinalg.mat_pow", "intlinalg.count_eigen_signs",
    "groups.group_from_permutations", "groups.endo_from_generator_images",
    "groups.ordinary_conjugacy_classes", "groups.phi_conjugacy_classes",
    "groups.iterate_endo", "groups.eventual_image",
    "reidemeister.r_finite", "reidemeister.class_function_matrix",
    "reidemeister.r_abelian", "reidemeister.r_abelian_smith",
    "reidemeister.r_abelian_trace", "reidemeister.r_product",
    "reidemeister.r_product_trace", "reidemeister.r_product_oracle",
    "zeta.zeta_product", "zeta.check_all_iterates_finite",
    "zeta.expand_rational", "zeta.zeta_series_oracle",
    "zeta.congruence_check", "zeta.functional_equation_check",
    "zeta.torsion_special_value", "zeta.torsion_via_lefschetz",
    "fox.jacobian", "fox.spectral_radius", "fox.nielsen_radius_bounds",
    "fox.twisted_power_norm",
)
TOTALS_REPORTED = (
    "cli.main", "cli.run", "zeta.zeta_product",
    "zeta.check_all_iterates_finite", "reidemeister.r_product_oracle",
    "fox.twisted_power_norm",
)


def log(message: str) -> None:
    print(message, file=sys.stderr)


def import_package():
    """Import the package from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "twistedzeta" / "cli.py").is_file():
        raise SystemExit(f"no twistedzeta sources under {src}")
    sys.path.insert(0, str(src))
    # The load is one client on one thread; keep BLAS from starting more.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    import numpy  # noqa: F401  (the torsion route imports it on first use)
    import twistedzeta.cli

    if Path(twistedzeta.cli.__file__).resolve().parent != src / "twistedzeta":
        raise SystemExit(f"imported twistedzeta from {twistedzeta.cli.__file__}")
    return twistedzeta.cli


def child_import_seconds() -> float:
    """Time to import numpy and the package in a fresh interpreter.  The
    import happens once per process, so it is repeated in children."""
    child = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=60)
    return float(child.stdout)


def scaled_repeats(timed) -> list[float]:
    """SETUP_REPEATS results of ``timed()``, a time in seconds, each scaled
    to the nominal speed (see ``speed.py``) by reference times measured
    before and after it."""
    out = []
    before = speed.reference_seconds()
    for _ in range(SETUP_REPEATS):
        seconds = timed()
        after = speed.reference_seconds()
        out.append(speed.scale(seconds, before, after))
        before = after
    return out


def write_documents(workload, seed, docs):
    folder = OUT / f"docs-{workload}-{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    paths = []
    for doc in docs:
        path = folder / f"{doc.ident}.json"
        path.write_text(json.dumps(doc.body, indent=1))
        paths.append(str(path))
    return paths


def setup(main, workload, seed):
    """Generate and write the documents and compute one untimed warm-up
    document; return (docs, paths, setup_s).

    setup_s is the median time to import the package in a fresh interpreter
    plus the median time to generate the documents and compute the warm-up
    one, over SETUP_REPEATS repeats of each.
    """
    made = []

    def make():
        start = time.perf_counter()
        docs = workloads.make(workload, seed)
        paths = write_documents(workload, seed, docs)
        warm = next(i for i, d in enumerate(docs) if d.warm_up)
        checks.compute(main, paths[warm], DEADLINE_S)
        made[:] = [docs, paths]
        return time.perf_counter() - start

    setup_s = (statistics.median(scaled_repeats(child_import_seconds)) +
               statistics.median(scaled_repeats(make)))
    return made[0], made[1], setup_s


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(main, docs, paths, seconds, checker):
    """Cycle through the regular documents until the time left is what the
    frontier documents need, then run each frontier document once.

    Returns each document's outcomes, its times scaled to the nominal speed
    (see ``speed.py``) and the peak memory.  A document cut off by the
    deadline counts as the deadline itself, unscaled.  Peak memory is read
    before the frontier documents: their memory at the deadline depends on
    how far they got, so it would not repeat.
    """
    regular = [i for i, d in enumerate(docs) if not d.frontier]
    frontier = [i for i, d in enumerate(docs) if d.frontier]
    budget = seconds - DEADLINE_S * len(frontier)
    outcomes = {i: [] for i in range(len(docs))}
    scaled = {i: [] for i in range(len(docs))}
    before = speed.reference_seconds()

    def run(i):
        nonlocal before
        outcome = checker.check(
            docs[i], checks.compute(main, paths[i], DEADLINE_S))
        after = speed.reference_seconds()
        outcomes[i].append(outcome)
        scaled[i].append(DEADLINE_S if outcome.status == checks.TIMED_OUT
                         else speed.scale(outcome.seconds, before, after))
        before = after

    start = time.perf_counter()
    first_pass = True
    while first_pass or time.perf_counter() - start < budget:
        for i in regular:
            if not first_pass and time.perf_counter() - start >= budget:
                break
            run(i)
        first_pass = False
    rss = peak_rss_mb()
    for i in frontier:
        run(i)
    return outcomes, scaled, rss


def load_expected(workload, seed, docs):
    """Stored answers per document for this seed, or None if none are
    stored.  On workloads whose seeds only relabel the same inputs, the
    answers stored for seed 0 hold for every seed."""
    path = EXPECTED / f"{workload}-seed{seed}.json"
    if not path.is_file() and workload in workloads.RELABELLED:
        path = EXPECTED / f"{workload}-seed0.json"
    if not path.is_file():
        return None
    stored = json.loads(path.read_text())["documents"]
    if set(stored) != {d.ident for d in docs}:
        raise SystemExit(f"{path} does not list the generated documents")
    return stored


def latencies(scaled):
    """Per-document latency in seconds at the nominal speed: the median of
    its interleaved repeats.

    Each document is repeated in every cycle through the workload, so its
    repeats meet different states of the machine, and the median drops the
    repeats that a pause of the machine between a document and its
    reference times distorted.
    """
    return [statistics.median(times) for times in scaled.values()]


def end_to_end(scaled, rss, setup_s):
    per_doc = latencies(scaled)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(per_doc), "s"),
        "doc_p50_ms": (1000 * statistics.median(per_doc), "ms"),
        "doc_p90_ms": (1000 * statistics.quantiles(
            per_doc, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (rss, "MB"),
    }


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        if target.is_file():
            return target.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return "unknown"
    return ref


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": git_sha()}


def per_layer(docs, plain, traced, spans, functions):
    """Per-layer metrics from the traced runs, over documents that finished
    untraced and traced (a document cut off by the deadline has no exact
    counts)."""
    finished = {d.ident for d, p, t in zip(docs, plain, traced)
                if checks.TIMED_OUT not in (p.status, t.status)}
    table, values = tracing.aggregate(spans, functions,
                                      lambda doc: doc in finished)
    metrics = {}
    for fn in FUNCTIONS_REPORTED:
        metrics[f"{fn}.calls"] = (table[f"{fn}.calls"], "count")
        metrics[f"{fn}.self_s"] = (table[f"{fn}.self_s"], "s")
    for fn in TOTALS_REPORTED:
        metrics[f"{fn}.total_s"] = (table[f"{fn}.total_s"], "s")
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = (table[f"{layer}.self_s"], "s")
        metrics[f"{layer}.raised"] = (table[f"{layer}.raised"], "count")

    dims = values.get("intlinalg.char_poly", [])
    metrics["intlinalg.char_poly.dim_max"] = (max(dims, default=0), "count")
    metrics["intlinalg.char_poly.ops"] = (sum(n ** 4 for n in dims), "count")
    metrics["zeta.zeta_product.calls_per_doc"] = (
        table["zeta.zeta_product.calls"] / max(len(finished), 1), "calls/doc")
    metrics["groups.table_cells"] = (sum(
        n * n for fn in ("groups.group_from_permutations",
                         "groups.trivial_group", "groups.eventual_image")
        for n in values.get(fn, [])), "count")
    checked = total = 0
    for doc, outcome in zip(docs, traced):
        if doc.ident in finished and outcome.oracle is not None:
            checked += sum(1 for v in outcome.oracle if v is not None)
            total += len(outcome.oracle)
    metrics["reidemeister.oracle_checked_share"] = (
        checked / total if total else 0.0, "ratio")
    metrics["fox.twisted_power_norm.norm_sum"] = (
        sum(values.get("fox.twisted_power_norm", [])), "count")
    metrics["cli.emit_s"] = (tracing.emit_seconds(
        spans, lambda doc: doc in finished), "s")
    plain_s = sum(p.seconds for d, p in zip(docs, plain)
                  if d.ident in finished)
    traced_s = sum(t.seconds for d, t in zip(docs, traced)
                   if d.ident in finished)
    metrics["trace_overhead_share"] = (traced_s / plain_s - 1.0, "ratio")
    failed_docs = sum(1 for p in plain if not p.ok)
    metrics["failed_share"] = (failed_docs / len(docs), "ratio")
    return metrics, table


def write_record(name, record) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / name).write_text(json.dumps(record, indent=1))


def write_spans(name, spans) -> None:
    with open(OUT / name, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_package()
    checks.arm_deadline_handler()
    docs, paths, setup_s = setup(cli.main, args.workload, args.seed)
    expected = load_expected(args.workload, args.seed, docs)
    env = environment()
    stem = f"{'trace' if args.trace else 'run'}-{args.workload}-seed{args.seed}"

    checker = checks.Checker(expected, log)
    if args.trace == 0:
        outcomes, scaled, rss = measure(cli.main, docs, paths, args.seconds,
                                        checker)
        metrics = end_to_end(scaled, rss, setup_s)
        extra = {"seconds": {d.ident: [o.seconds for o in outcomes[i]]
                             for i, d in enumerate(docs)},
                 "scaled_seconds": {d.ident: scaled[i]
                                    for i, d in enumerate(docs)}}
    else:
        # Each document runs untraced and then traced, so that both runs
        # meet the machine in the same state and trace_overhead_share
        # compares like with like.
        plain, traced = [], []
        tracer = tracing.Tracer()
        for doc, path in zip(docs, paths):
            plain.append(checker.check(
                doc, checks.compute(cli.main, path, DEADLINE_S)))
            tracer.doc_id = doc.ident
            functions = tracer.install()
            try:
                outcome = checks.compute(cli.main, path, DEADLINE_S)
            finally:
                tracer.remove()
            traced.append(checker.check(doc, outcome))
        metrics, table = per_layer(docs, plain, traced, tracer.spans,
                                   functions)
        write_spans(f"{stem}.spans.jsonl", tracer.spans)
        extra = {"all_functions": table}
        outcomes = {i: [o] for i, o in enumerate(plain)}

    statuses = Counter(o.status for outs in outcomes.values() for o in outs)
    write_record(f"{stem}.json", {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, "outcomes": statuses,
        "metrics": {k: v for k, (v, _) in metrics.items()}, **extra})
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(docs)} documents, outcomes {dict(statuses)}")
    print(f"environment {json.dumps(env)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:>16.6g} {unit}")
    result = {
        "correct": checker.wrong == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
