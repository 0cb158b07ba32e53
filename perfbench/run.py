#!/usr/bin/env python3
"""Benchmark of the abdyn JSON CLI.

    python3 perfbench/run.py --workload fan|orbit|algebra|all --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  Each run is a closed loop with one client: documents are fed one
after another to `abdyn.cli.main(argv)` in this process, with stdin and
stdout redirected to memory and a per-document deadline.  An untimed
warm-up pass over a seeded corpus is followed by timed passes until the
next one would overrun `--seconds`; every output is then checked by an
independent oracle (`oracle.py`).

With `--trace 0` the last line of stdout is the end-to-end result; with
`--trace 1` one pass runs with spans around every layer call (`spans.py`)
and the last line holds the per-layer metrics instead.  A run record, and
in traced runs the spans, are written under `perfbench/.work/`.
"""

from __future__ import annotations

import os

# numpy's SVD and solve must not compete with the benchmark for the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import corpus  # noqa: E402
import oracle  # noqa: E402
from spans import DOC, Tracer, layer_metrics, unit_of  # noqa: E402
from speed import at_reference_speed, reference_loop  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
EXPECTATIONS = json.loads((HERE / "expectations.json").read_text())
DIGESTS_FILE = HERE / "digests.json"
SETUP_SAMPLES = 5
# Timed passes made even when they overrun --seconds, so that every timed
# document has a median time over at least this many.
MIN_TIMED_PASSES = 3
SETUP_REF_LOOPS = 15
# A timed document is scaled by the reference loops of the documents within
# this many places of it: the machine's speed changes within a pass.
REF_WINDOW = 5

# The child times its own import of abdyn.cli and parser construction, and
# the reference loop before and after it.
SETUP_CODE = """\
import statistics, sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from speed import reference_loop
refs = [reference_loop() for _ in range(int(sys.argv[3]))]
t0 = time.perf_counter()
import abdyn.cli
abdyn.cli.build_parser()
seconds = time.perf_counter() - t0
refs += [reference_loop() for _ in range(int(sys.argv[3]))]
print(seconds, statistics.median(refs))
"""


class DocTimeout(BaseException):
    """Raised by the deadline timer; BaseException so that no handler in the
    program under test can swallow it."""


def _on_alarm(signum, frame):
    raise DocTimeout()


@dataclass
class Outcome:
    doc: corpus.Doc
    pass_index: int
    status: str        # "exit" (the CLI returned), "timeout", "crash", "skipped"
    code: int | None
    out: str
    err: str
    seconds: float | None
    ref: float | None = None   # reference loop run right after, timed passes only


def run_doc(cli, doc, argv, deadline, tracer=None):
    """One document through cli.main, timed, under the deadline."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    status, code = "exit", None
    depth = tracer.open(DOC) if tracer else 0
    t0 = time.perf_counter()
    try:
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(doc.stdin), out, err
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            code = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DocTimeout:
        status = "timeout"
    except SystemExit as exc:       # argparse rejects the argv
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:               # a traceback is a failed document
        status = "crash"
        err.write(traceback.format_exc())
    finally:
        elapsed = time.perf_counter() - t0
        sys.stdin, sys.stdout, sys.stderr = saved
        if tracer:
            tracer.unwind(depth)   # the document's span and any left open
    return status, code, out.getvalue(), err.getvalue(), elapsed


def run_pass(cli, docs, deadline, pass_index, tracer=None, first=None, fan_texts=None,
             reference=False):
    """The given documents, in order; returns (outcomes, wall seconds, fan
    texts).  With `reference`, the reference loop runs after each document
    and its time is kept with the outcome (outside the pass's wall time).
    fan_texts carries the fans of an earlier pass whose builds are not in
    `docs`; without it the fan files start afresh.  An output equal to the
    one in `first` (key -> output of an earlier pass) shares its string, so
    peak memory does not grow with the number of passes."""
    fan_dir = WORK / "fans"
    fan_dir.mkdir(parents=True, exist_ok=True)
    if fan_texts is None:
        fan_texts = {}
        for stale in fan_dir.glob("*.json"):
            stale.unlink()
    else:
        fan_texts = dict(fan_texts)
    first = first or {}
    outcomes = []
    t0 = time.perf_counter()
    for i, doc in enumerate(docs):
        if doc.needs and doc.needs not in fan_texts:
            # its fan build failed: nothing to run, nothing to time
            outcomes.append(Outcome(doc, pass_index, "skipped", None, "", "", None))
            continue
        argv = doc.argv
        if doc.needs:
            path = str((fan_dir / f"{doc.needs}.json").relative_to(ROOT))
            argv = [path if a == "@FAN" else a for a in argv]
        if tracer:
            tracer.doc = i
        status, code, out, err, secs = run_doc(cli, doc, argv, deadline, tracer)
        if out == first.get(doc.key):
            out = first[doc.key]
        if doc.kind == "fan build" and status == "exit" and code == 0:
            (fan_dir / f"{doc.key}.json").write_text(out)
            fan_texts[doc.key] = out
        outcomes.append(Outcome(doc, pass_index, status, code, out, err, secs))
        if reference:
            t_ref = time.perf_counter()
            outcomes[-1].ref = reference_loop()
            t0 += time.perf_counter() - t_ref
    return outcomes, time.perf_counter() - t0, fan_texts


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def known_failure(outcome, workload):
    """The listed known failure this outcome matches, or None."""
    failure = "timeout" if outcome.status == "timeout" else f"exit {outcome.code}"
    for entry in EXPECTATIONS["known_failures"]:
        if entry["workload"] == workload and entry["kind"] == outcome.doc.kind \
                and entry["failure"] == failure \
                and all(outcome.doc.facts.get(k) == v for k, v in entry["match"].items()):
            return entry
    return None


def split_known(outcomes, workload):
    """(kept, known): known holds the outcomes of documents that failed as a
    listed known failure in the first pass, and of the documents that read
    their output.  These reproduce a listed defect of the program; they are
    reported on their own and are not operations of the benchmark."""
    keys = {o.doc.key for o in outcomes
            if o.pass_index == 0 and known_failure(o, workload)}
    known = [o for o in outcomes if o.doc.key in keys or o.doc.needs in keys]
    kept = [o for o in outcomes if not (o.doc.key in keys or o.doc.needs in keys)]
    return kept, known


def classify(outcomes, fan_texts_by_pass, workload):
    """Mark each outcome failed or not, and wrong or not.  A wrong document
    returned an output its check rejects, exited with an unlisted non-zero
    code, or raised; timeouts and listed known failures fail without being
    wrong."""
    report = []
    checked = {}   # passes repeat documents; check each distinct output once
    first_out = {}
    for o in outcomes:
        if o.status == "exit":
            first_out.setdefault(o.doc.key, o.out)
            if o.out != first_out[o.doc.key]:
                # the same input must give the same output in every pass
                report.append((o, ["output differs from an earlier pass"], None, True))
                continue
        fans = fan_texts_by_pass[o.pass_index]
        key = (o.doc.key, o.status, o.code, o.out, fans.get(o.doc.needs))
        if key in checked:
            report.append((o,) + checked[key])
            continue
        if o.status == "skipped":
            problems = ["not run: the fan build it reads failed"]
        elif o.status == "timeout":
            problems = ["deadline passed"]
        elif o.status == "crash":
            problems = ["uncaught exception: " + o.err.strip().splitlines()[-1]]
        else:
            problems = oracle.check(o.doc, o.code, o.out, fans)
        known = known_failure(o, workload) if problems else None
        wrong = bool(problems) and o.status not in ("timeout", "skipped") and known is None
        checked[key] = (problems, known, wrong)
        report.append((o, problems, known, wrong))
    return report


def result_digest(outcome):
    result = json.loads(outcome.out)["result"]
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def compare_digests(report):
    """(changed, compared): documents whose result block differs from the
    digest stored for the same inputs."""
    stored = json.loads(DIGESTS_FILE.read_text()) if DIGESTS_FILE.exists() else {}
    changed = compared = 0
    for o, problems, _known, _wrong in report:
        if o.doc.key not in stored:
            continue
        compared += 1
        if o.status != "exit" or o.code != 0 or result_digest(o) != stored[o.doc.key]:
            changed += 1
    return changed, compared


def write_digests(report):
    stored = json.loads(DIGESTS_FILE.read_text()) if DIGESTS_FILE.exists() else {}
    for o, problems, _known, _wrong in report:
        if not problems:
            stored[o.doc.key] = result_digest(o)
    DIGESTS_FILE.write_text(json.dumps(stored, indent=0, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# environment and set-up
# ---------------------------------------------------------------------------


def measure_setup():
    """(seconds, reference loop seconds) for a fresh interpreter to import
    abdyn.cli and build the parser, one pair per child process."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE),
                               str(SETUP_REF_LOOPS)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-400:]}")
        seconds, ref = (float(x) for x in proc.stdout.split())
        samples.append((seconds, ref))
    return samples


def run_record(args):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode())
        src_hash.update(path.read_bytes())
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_commit": commit,
            "src_sha256": src_hash.hexdigest(),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "jsonschema": version("jsonschema"), "sympy": version("sympy"),
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "deadline_s": corpus.DEADLINES[args.workload]}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]


def measure(cli, docs, deadline, seconds, workload):
    """An untimed warm-up pass over every document, then timed passes until
    the next would end more than `seconds` after the warm-up began (at
    least MIN_TIMED_PASSES).  The timed passes leave out the documents that
    run in the warm-up only (doc.timed false) and those `split_known` sets
    apart, so every timed document is short and gets many samples."""
    start = time.perf_counter()
    passes, walls, fan_texts = [], [], {}
    first = {}

    def one_pass(todo, fans=None):
        # what the benchmark keeps from earlier passes is left out of the
        # collector's scans, so it does not slow the program down
        gc.collect()
        gc.freeze()
        outs, wall, fans = run_pass(cli, todo, deadline, len(passes), first=first,
                                    fan_texts=fans, reference=bool(passes))
        fan_texts[len(passes)] = fans
        passes.append(outs)
        walls.append(wall)
        return fans, wall

    fans, _ = one_pass(docs)
    first = {o.doc.key: o.out for o in passes[0]}
    known = {o.doc.key for o in split_known(passes[0], workload)[1]}
    timed = [d for d in docs if d.timed and d.key not in known]
    wall = 0.0
    while len(passes) <= MIN_TIMED_PASSES or time.perf_counter() - start + wall <= seconds:
        fans, wall = one_pass(timed, fans)
    return passes, walls, fan_texts


def measure_traced(cli, docs, deadline, spans_path):
    """One traced pass, first and in a cold process so that its counts
    repeat exactly, then one untraced pass over the same corpus for the
    tracing overhead.  The spans are written to spans_path."""
    tracer = Tracer()
    tracer.patch()
    try:
        traced, traced_wall, traced_fans = run_pass(cli, docs, deadline, 0, tracer)
    finally:
        tracer.unpatch()
    plain, plain_wall, plain_fans = run_pass(cli, docs, deadline, 1,
                                             first={o.doc.key: o.out for o in traced})
    layers = layer_metrics(tracer.spans, sum(o.status == "timeout" for o in traced))
    layers["trace.traced_run_s"] = traced_wall
    layers["trace.untraced_run_s"] = plain_wall
    layers["trace.overhead_ratio"] = traced_wall / plain_wall
    tracer.dump(spans_path)
    return [traced, plain], [traced_wall, plain_wall], {0: traced_fans, 1: plain_fans}, layers


def end_to_end(setup, passes, peak_rss_mb):
    """End-to-end metrics from the timed passes, their sample counts, each
    document's time, and the same figures as measured (not scaled).

    Every time is put at the reference speed (`speed.py`) with the median
    of the reference loops run after it and its REF_WINDOW neighbours on
    either side, or with the median loop of its set-up child; a document's
    time is its median over the passes, and run_s is the sum of those."""
    scaled, raw = {}, {}
    for outs in passes:
        ran = [o for o in outs if o.seconds is not None]
        loops = [o.ref for o in ran]
        for i, o in enumerate(ran):
            loop = statistics.median(loops[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
            scaled.setdefault(o.doc.key, []).append(at_reference_speed(o.seconds, loop))
            raw.setdefault(o.doc.key, []).append(o.seconds)
    doc_s = {key: statistics.median(v) for key, v in scaled.items()}
    doc_ms = [t * 1000.0 for t in doc_s.values()]
    metrics = {
        "setup_s": {"value": statistics.median(at_reference_speed(s, loop)
                                               for s, loop in setup), "unit": "s"},
        "run_s": {"value": sum(doc_s.values()), "unit": "s"},
        "doc_p50_ms": {"value": percentile(doc_ms, 50), "unit": "ms"},
        "doc_p90_ms": {"value": percentile(doc_ms, 90), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    samples = {"setup_s": len(setup), "run_s": len(passes), "doc_p50_ms": len(doc_ms),
               "doc_p90_ms": len(doc_ms), "peak_rss_mb": 1}
    raw_ms = [statistics.median(v) * 1000.0 for v in raw.values()]
    measured = {"setup_s": statistics.median(s for s, _loop in setup),
                "run_s": sum(raw_ms) / 1000.0,
                "doc_p50_ms": percentile(raw_ms, 50), "doc_p90_ms": percentile(raw_ms, 90),
                "reference_loop_ms": [statistics.median(o.ref for o in outs
                                                        if o.ref is not None) * 1000.0
                                      for outs in passes]}
    return metrics, samples, doc_s, measured


def run_all(args):
    """Every workload, each in a fresh process; the last line maps workload
    to its result."""
    results = {}
    for workload in corpus.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-digests", action="store_true",
                    help="store the result digests of this run in digests.json")
    args = ap.parse_args(argv)
    if not (SRC / "abdyn" / "cli.py").is_file():
        print(f"perfbench: no abdyn sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    WORK.mkdir(exist_ok=True)
    try:
        setup = measure_setup()
    except (RuntimeError, ValueError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import abdyn.cli as cli
    if Path(cli.__file__).resolve().parent != (SRC / "abdyn").resolve():
        print(f"perfbench: imported abdyn from {cli.__file__}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)

    docs = corpus.generate(args.workload, args.seed)
    deadline = corpus.DEADLINES[args.workload]
    start = time.perf_counter()
    if args.trace:
        passes, walls, fan_texts, layers = measure_traced(
            cli, docs, deadline, WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in sorted(layers.items())}
        samples = {name: 1 for name in metrics}
        doc_s, measured = {}, {}
    else:
        passes, walls, fan_texts = measure(cli, docs, deadline, args.seconds, args.workload)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, samples, doc_s, measured = end_to_end(setup, passes[1:], peak_rss_mb)
    elapsed = time.perf_counter() - start

    outcomes, known = split_known([o for outs in passes for o in outs], args.workload)
    report = classify(outcomes, fan_texts, args.workload)
    if args.write_digests:
        write_digests(report)
    changed, compared = compare_digests(report)
    attempted = len(report)
    failed = sum(1 for _o, problems, _k, _w in report if problems)
    correct = not any(wrong for *_rest, wrong in report)

    known_rows = []
    for o in known:
        entry = known_failure(o, args.workload)
        known_rows.append({"key": o.doc.key, "kind": o.doc.kind, "pass": o.pass_index,
                           "failure": entry["failure"] if entry else "not run",
                           "why": entry["why"] if entry else
                           "reads the output of a known failure"})

    record = run_record(args)
    record.update({
        "passes": len(passes), "attempted": attempted, "failed": failed,
        "known_failures": known_rows,
        "failed_frac": failed / attempted, "correct": correct,
        "results_changed": changed, "results_compared": compared,
        "metrics": {k: dict(v, samples=samples[k]) for k, v in metrics.items()},
        "setup_samples_s": setup, "pass_walls_s": walls, "doc_s": doc_s,
        "as_measured": measured,
        "failures": [{"key": o.doc.key, "kind": o.doc.kind, "pass": o.pass_index,
                      "problems": problems[:3],
                      "known": known["why"] if known else None, "wrong": wrong}
                     for o, problems, known, wrong in report if problems],
    })
    (WORK / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} documents={attempted} elapsed_s={elapsed:.1f}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']:6s} n={samples[name]}")
    print(f"  {'failed_frac':44s} {failed / attempted:14.6g} {'1':6s} n={attempted}")
    if measured:
        loops = measured["reference_loop_ms"]
        print(f"  as measured, not scaled: setup_s {measured['setup_s']:.4g}, "
              f"run_s {measured['run_s']:.4g}, doc_p50_ms {measured['doc_p50_ms']:.4g}, "
              f"doc_p90_ms {measured['doc_p90_ms']:.4g}; reference loop "
              f"{min(loops):.4g}-{max(loops):.4g} ms per pass")
    print(f"  results_changed {changed} of {compared} documents with a stored digest")
    by_reason = {}
    for o, problems, known, wrong in report:
        if problems:
            label = f"known: {known['failure']} {o.doc.kind}" if known else \
                f"{'WRONG' if wrong else 'failed'}: {o.doc.kind}: {problems[0]}"
            by_reason[label] = by_reason.get(label, 0) + 1
    for row in known_rows:
        label = f"known failure, not an operation: {row['failure']} {row['kind']}"
        by_reason[label] = by_reason.get(label, 0) + 1
    for label, n in sorted(by_reason.items()):
        print(f"  {n:5d} x {label}")
    print("record " + json.dumps({k: record[k] for k in
                                  ("git_commit", "src_sha256", "seed", "python", "numpy",
                                   "scipy", "jsonschema", "sympy", "nproc", "cpu_model")},
                                 sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
