"""The regression corpus as a tier-1 gate.

Every document of the benchmark's nine corpora (perfbench/corpus.py: the
fan, orbit and algebra workloads at seeds 1-3) runs once through cli.main,
in corpus order, and its (status, exit code, stdout, stderr) must have the
digest stored under its corpus key in corpus_digests.json.  The fan files
are written where the benchmark writes them, perfbench/.work/fans/<key>.json
relative to the working directory, here a temporary one, because `fan
validate` and `fan extends` echo that path.  Beside each digest the file
keeps one character per output line (6 bits of the line's digest), so a
mismatch names the document and its first line whose character differs.

After a declared output change, re-record with

    PYTHONPATH=src python3 tests/test_corpus_digests.py

which first prints each corpus key whose digest changed, grouped by
workload and command kind with counts (the list an output change declares),
and leaves corpus_digests.json untouched when none did.
"""

import base64
import collections
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

from abdyn import cli

REPO = pathlib.Path(__file__).resolve().parents[1]
DIGESTS = pathlib.Path(__file__).with_name("corpus_digests.json")
SEEDS = (1, 2, 3)
FANS = pathlib.Path("perfbench", ".work", "fans")


def _corpus_module():
    spec = importlib.util.spec_from_file_location("perfbench_corpus",
                                                  REPO / "perfbench" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks the module up by name
    spec.loader.exec_module(module)
    return module


def _run(doc):
    """(status, exit code, stdout, stderr) of one document, run in the
    working directory, whose fan files sit under FANS; a document whose fan
    build failed is skipped, as the benchmark skips it."""
    argv = doc.argv
    if doc.needs:
        path = FANS / f"{doc.needs}.json"
        if not path.exists():
            return "skipped", None, "", ""
        argv = [str(path) if a == "@FAN" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            sys.stdin = io.StringIO(doc.stdin)
            code = cli.main(argv)
    except Exception as exc:  # a traceback is a failed document
        return "crash", None, out.getvalue(), repr(exc)
    finally:
        sys.stdin = sys.__stdin__
    if doc.kind == "fan build" and code == 0:
        (FANS / f"{doc.key}.json").write_text(out.getvalue())
    return "exit", code, out.getvalue(), err.getvalue()


def _digest(outcome):
    return hashlib.sha256(json.dumps(outcome).encode()).hexdigest()[:16]


def _line_marks(outcome):
    """One character per line of stdout then stderr: the first 6 bits of
    the line's sha256, in the base64 alphabet."""
    lines = (outcome[2] + outcome[3]).splitlines()
    return "".join(base64.b64encode(hashlib.sha256(line.encode()).digest()[:3]).decode()[0]
                   for line in lines)


def corpus_outcomes():
    """[(workload, seed, doc, outcome)] for the nine corpora, run in a fresh
    temporary working directory."""
    corpus = _corpus_module()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            FANS.mkdir(parents=True)
            rows = []
            for workload in corpus.WORKLOADS:
                for seed in SEEDS:
                    for stale in FANS.glob("*.json"):
                        stale.unlink()
                    rows += [(workload, seed, doc, _run(doc))
                             for doc in corpus.generate(workload, seed)]
            return rows
        finally:
            os.chdir(cwd)


def _recorded_at():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=REPO,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def record():
    """Print the corpus keys whose digest changed, by workload and command
    kind in corpus order, then the stored keys no longer in the corpus;
    rewrite DIGESTS only if there are any.  Returns the lines printed."""
    stored = json.loads(DIGESTS.read_text())["documents"]
    rows, documents, changed = corpus_outcomes(), {}, {}
    for workload, _, doc, outcome in rows:
        entry = f"{_digest(outcome)} {_line_marks(outcome)}"
        assert documents.setdefault(doc.key, entry) == entry, doc.key
        if stored.get(doc.key) != entry:
            changed.setdefault((workload, doc.kind), {})[doc.key] = None
    gone = sorted(stored.keys() - documents.keys())
    lines = [f"{workload} {kind}: {len(keys)} changed: {' '.join(keys)}"
             for (workload, kind), keys in changed.items()]
    lines += [f"no longer in the corpus: {len(gone)}: {' '.join(gone)}"] if gone else []
    if lines:
        DIGESTS.write_text(json.dumps({"recorded_at": _recorded_at(), "documents": documents},
                                      indent=0, sort_keys=True) + "\n")
        lines.append(f"recorded {len(documents)} documents in {DIGESTS}")
    else:
        lines.append(f"no digest changed; {DIGESTS} is left as it is")
    print("\n".join(lines))
    return lines


def test_corpus_outputs_match_the_recorded_digests():
    """Every corpus document gives the recorded (status, exit code, stdout,
    stderr); a mismatch names the document and its first differing line."""
    stored = json.loads(DIGESTS.read_text())["documents"]
    rows = corpus_outcomes()
    assert {doc.key for _, _, doc, _ in rows} == stored.keys()
    wrong = []
    for workload, seed, doc, outcome in rows:
        digest, marks = stored[doc.key].split(" ")
        if _digest(outcome) == digest:
            continue
        new = _line_marks(outcome)
        i = next((i for i, (a, b) in enumerate(zip(marks, new)) if a != b),
                 min(len(marks), len(new)))
        lines = (outcome[2] + outcome[3]).splitlines()
        where = (f"line {i + 1}: {lines[i]!r}" if i < len(lines)
                 else f"{len(marks) - len(new)} line(s) missing after line {i}"
                 if i < len(marks) else f"status {outcome[0]}, exit code {outcome[1]}")
        wrong.append(f"{workload} seed {seed} {doc.kind} {doc.key} {doc.argv}: {where}")
    assert not wrong, "outputs differ from corpus_digests.json:\n" + "\n".join(wrong)


def test_record_lists_the_changed_keys_and_rewrites_only_on_a_change(tmp_path, monkeypatch):
    """The re-record mode names each changed key once per workload and
    command kind, with counts, then each stored key that is gone, and
    rewrites the file; with no change it leaves the file as it is."""
    Doc = collections.namedtuple("Doc", "key kind")
    module = sys.modules[__name__]
    path = tmp_path / "digests.json"
    monkeypatch.setattr(module, "DIGESTS", path)
    monkeypatch.setattr(module, "corpus_outcomes", lambda: [
        ("fan", 1, Doc("a", "fan build"), ("exit", 0, "new\n", "")),
        ("fan", 2, Doc("a", "fan build"), ("exit", 0, "new\n", "")),
        ("fan", 1, Doc("b", "fan validate"), ("exit", 0, "same\n", "")),
        ("orbit", 1, Doc("c", "orbit analyze"), ("exit", 3, "", "new\n"))])
    entry = {text: f"{_digest(o)} {_line_marks(o)}"
             for text, o in (("old", ("exit", 0, "old\n", "")),
                             ("same", ("exit", 0, "same\n", "")))}
    path.write_text(json.dumps({"documents": {"a": entry["old"], "b": entry["same"],
                                              "d": entry["old"]}}))
    assert record()[:3] == ["fan fan build: 1 changed: a", "orbit orbit analyze: 1 changed: c",
                            "no longer in the corpus: 1: d"]
    recorded = path.read_text()
    assert set(json.loads(recorded)["documents"]) == {"a", "b", "c"}
    assert record() == [f"no digest changed; {path} is left as it is"]
    assert path.read_text() == recorded


if __name__ == "__main__":
    record()
