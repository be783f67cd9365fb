#!/usr/bin/env python3
"""Byte-identity sweep: one fixed case list, run from two trees, every
output file compared.

Run from the repository root:

    python3 tools/identity_sweep.py --base HEAD~1

REV (--base) is extracted with ``git archive`` into a temporary
directory; the other side is the working tree this script lives in.
Each case runs from each tree in its own output directory, every
command in a fresh process with that tree's ``src`` on PYTHONPATH, the
BLAS thread count pinned to min(2, nproc) and no bytecode written.  The
cases (cases()):

    study-demo       demos/study_config.json: study, then report
    demo-<name>      each of the six demos, with its stdout
    perfbench-<name> the three perfbench workload configs at seed 1,
                     with their commands
    complex-nn       nearest neighbour 0.6+0.8i with dynamics: study,
                     then report
    complex-dense    finite support [0.7, 0.2+0.3i], a complex dense box,
                     with dynamics: study, then report
    powerlaw-2.5     p = 2.5 with dynamics: study, then report

Every case also writes ``commands.log``: each command, its exit status
and its stdout.  Then every file of the two output trees is compared:
equal bytes, or for CSV and JSON the count of differing values, the
largest absolute and relative difference and the first PATHS_SHOWN
differing paths.
A ``manifest.json`` is compared without its IGNORED_MANIFEST_KEYS, which
hold wall times, a timestamp and the host.  The summary ends with
``verdict: identical`` (exit status 0) or ``verdict: differs`` (1); a
command that exits nonzero on either side is named and makes the exit
status 2, whatever the files show.  Under the summary, one line per
tree gives the lines of its ``src/starklab`` (line_counts): in total, in
docstrings, and of code.  Both trees and their outputs live in a
temporary directory that is removed at the end.  The sweep took 15-17 s
on 2 cores; it needs no network.
"""

from __future__ import annotations

import argparse
import ast
import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
import time
import tokenize

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IGNORED_MANIFEST_KEYS = ("created_utc", "timing", "environment")
PATHS_SHOWN = 10  # differing paths a CSV or JSON record names
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
DEMOS = ("bootstrap_inequality", "eigenvalue_pinning", "integer_ladder",
         "maryland_potential", "power_law_decay", "wave_packet_moments")

_DISORDER = {"slope": 1.0, "perturbation": {"kind": "uniform_random",
                                            "amplitude": 0.5}}
_ANALYSES = {"asymptotics": True, "decay": {"alphas": [2.0, 3.0]},
             "bootstrap": {},
             "dynamics": {"sources": [0], "moments": [2.0, 2.5],
                          "grid": {"dt": 0.1, "t_max": 100.0,
                                   "quasi_random": 50,
                                   "far_horizon": 1000000.0}}}
# name -> (config, commands); cases() adds the study demo, the demos and
# perfbench's workloads, read from the working tree
CASES = {
    "complex-nn": ({"kernel": {"family": "nearest_neighbor",
                               "amplitude": {"re": 0.6, "im": 0.8}},
                    "potential": dict(_DISORDER, perturbation={
                        "kind": "uniform_random", "amplitude": 2.0}),
                    "half_widths": [200, 400], "seed": 3,
                    "analyses": _ANALYSES}, ("study", "report")),
    "complex-dense": ({"kernel": {"family": "finite_support",
                                  "half": [0.7, {"re": 0.2, "im": 0.3}]},
                       "potential": _DISORDER, "half_widths": [100, 200],
                       "seed": 5, "analyses": _ANALYSES},
                      ("study", "report")),
    "powerlaw-2.5": ({"kernel": {"family": "power_law", "exponent": 2.5},
                      "potential": _DISORDER, "half_widths": [300, 600],
                      "seed": 7, "analyses": _ANALYSES},
                     ("study", "report")),
}


def _perfbench_cases(tree: str) -> dict:
    """The perfbench workloads of tree at seed 1: name -> (config,
    commands)."""
    bench = os.path.join(tree, "perfbench")
    sys.path.insert(0, bench)  # run.py imports its neighbours
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", os.path.join(bench, "run.py"))
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(bench)
    return {f"perfbench-{name}": (run.workload_config(name, 1, False),
                                  tuple(c[0] for c in spec_["commands"]))
            for name, spec_ in run.WORKLOADS.items()}


def cases(tree: str) -> dict:
    """Every case of the sweep: name -> (config or None, commands), a
    command being a CLI subcommand or a demo script."""
    with open(os.path.join(tree, "demos", "study_config.json"),
              encoding="utf-8") as fh:
        out = {"study-demo": (json.load(fh), ("study", "report"))}
    out.update({f"demo-{name}": (None, (f"demos/{name}.py",))
                for name in DEMOS})
    out.update(_perfbench_cases(tree))
    out.update(CASES)
    return out


def _environment(tree: str) -> dict:
    env = dict(os.environ)
    threads = str(min(2, os.cpu_count() or 1))
    for var in THREAD_VARIABLES:
        env[var] = threads
    env["PYTHONPATH"] = os.path.join(tree, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_case(tree: str, case_dir: str, config, commands) -> list:
    """Run commands from tree in case_dir, each in a fresh process, and
    log each one's exit status and stdout to case_dir/commands.log;
    return the (command, exit status) of those that exited nonzero."""
    os.makedirs(case_dir)
    if config is not None:
        with open(os.path.join(case_dir, "config.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)
    env = _environment(tree)
    log, failed = [], []
    for command in commands:
        if command.endswith(".py"):
            argv = [sys.executable, os.path.join(tree, command)]
        else:
            argv = [sys.executable, "-m", "starklab.cli", command,
                    "--config", "config.json", "--out", "out"]
        proc = subprocess.run(argv, cwd=case_dir, env=env, text=True,
                              capture_output=True, check=False)
        log.append(f"$ {command}\nexit {proc.returncode}\n{proc.stdout}")
        if proc.returncode:
            failed.append((command, proc.returncode))
    with open(os.path.join(case_dir, "commands.log"), "w",
              encoding="utf-8") as fh:
        fh.write("".join(log))
    return failed


def _files(root: str) -> set:
    return {os.path.relpath(os.path.join(top, name), root)
            for top, _, names in os.walk(root) for name in names}


def _number(value):
    """value as a float if it is a JSON or CSV number, else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


class _Tally:
    """Differing values: their count, the largest absolute and relative
    difference between numbers, and the paths of the first PATHS_SHOWN."""

    def __init__(self):
        self.count = 0
        self.max_abs = self.max_rel = 0.0
        self.paths = []

    def add(self, path: str, a, b) -> None:
        if a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b)):
            return
        x, y = _number(a), _number(b)
        self.count += 1
        if len(self.paths) < PATHS_SHOWN:
            self.paths.append(path)
        if x is None or y is None:
            return
        if x == y:  # the text differs, the value does not
            return
        diff = abs(x - y)
        if not math.isfinite(diff):  # inf or NaN on one side
            diff = math.inf
        self.max_abs = max(self.max_abs, diff)
        self.max_rel = max(self.max_rel, math.inf if math.isinf(diff)
                           else diff / max(abs(x), abs(y)))


def _walk(tally: _Tally, path: str, a, b) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            _walk(tally, f"{path}.{key}" if path else str(key),
                  a.get(key, "<missing>"), b.get(key, "<missing>"))
    elif isinstance(a, list) and isinstance(b, list):
        for i in range(max(len(a), len(b))):
            _walk(tally, f"{path}[{i}]", a[i] if i < len(a) else "<missing>",
                  b[i] if i < len(b) else "<missing>")
    else:
        tally.add(path or "<root>", a, b)


def _csv_rows(data: bytes) -> list:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


def compare_file(rel: str, base: bytes, head: bytes) -> dict:
    """How head's bytes of the file rel differ from base's: a record with
    the file, its kind and status ("identical", "equal" for a manifest
    equal outside IGNORED_MANIFEST_KEYS, or "differs") and, where they
    differ, the value count, the largest differences and the paths of
    the first PATHS_SHOWN values (or the first byte offset)."""
    name = os.path.basename(rel)
    kind = "manifest" if name == "manifest.json" else \
        os.path.splitext(name)[1].lstrip(".") or "file"
    record = {"file": rel, "kind": kind, "status": "identical"}
    if base == head:
        return record
    tally = _Tally()
    if kind in ("manifest", "json"):
        a, b = json.loads(base), json.loads(head)
        if kind == "manifest":
            for key in IGNORED_MANIFEST_KEYS:
                a.pop(key, None)
                b.pop(key, None)
        _walk(tally, "", a, b)
    elif kind == "csv":
        a, b = _csv_rows(base), _csv_rows(head)
        header = a[0] if a else []
        for i in range(max(len(a), len(b))):
            ra = a[i] if i < len(a) else []
            rb = b[i] if i < len(b) else []
            for j in range(max(len(ra), len(rb))):
                column = header[j] if j < len(header) else str(j)
                tally.add(f"row {i} {column}",
                          ra[j] if j < len(ra) else "<missing>",
                          rb[j] if j < len(rb) else "<missing>")
    else:
        offset = next((i for i, (x, y) in enumerate(zip(base, head))
                       if x != y), min(len(base), len(head)))
        record.update(status="differs", first=f"byte {offset}",
                      bytes=(len(base), len(head)))
        return record
    if tally.count:
        record.update(status="differs", values=tally.count,
                      max_abs=tally.max_abs, max_rel=tally.max_rel,
                      paths=tally.paths)
    elif kind == "manifest":  # equal outside its ignored keys
        record["status"] = "equal"
    else:  # the same values, printed differently
        record.update(status="differs", first="formatting only")
    return record


def compare_trees(base: str, head: str) -> list:
    """compare_file for every file under either directory; a file on one
    side only is a record with status "only in base" or "only in head"."""
    records = []
    a, b = _files(base), _files(head)
    for rel in sorted(a | b):
        if rel not in b or rel not in a:
            records.append({"file": rel, "kind": "file",
                            "status": "only in base" if rel in a
                            else "only in head"})
            continue
        with open(os.path.join(base, rel), "rb") as fa, \
                open(os.path.join(head, rel), "rb") as fb:
            records.append(compare_file(rel, fa.read(), fb.read()))
    return records


def summary(records: list) -> str:
    """One line per differing file after the counts, then the verdict."""
    identical = sum(r["status"] == "identical" for r in records)
    equal = sum(r["status"] == "equal" for r in records)
    lines = [f"{identical} of {len(records)} files byte-identical",
             f"{equal} manifests equal outside "
             f"{', '.join(IGNORED_MANIFEST_KEYS)}"]
    differing = [r for r in records if r["status"] not in ("identical",
                                                           "equal")]
    for r in differing:
        if "values" in r:
            more = ", ..." if r["values"] > len(r["paths"]) else ""
            lines.append(f"differs: {r['file']}: {r['values']} values, "
                         f"max abs {r['max_abs']:.3g}, max rel "
                         f"{r['max_rel']:.3g}, at {', '.join(r['paths'])}"
                         + more)
        else:
            lines.append(f"differs: {r['file']}: {r['status']}"
                         + (f", first at {r['first']}" if "first" in r
                            else ""))
    lines.append("verdict: differs" if differing else "verdict: identical")
    return "\n".join(lines)


# tokens that make no line code: comments, line ends and indentation
_NOT_CODE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER)


def line_counts(tree: str) -> dict:
    """Lines of the .py files in tree's src/starklab: "total", "docstring"
    (the lines of module, class and function docstrings, found by ast)
    and "code" (the lines any other token spans, found by tokenize, so
    neither a comment-only nor a blank line counts)."""
    package = os.path.join(tree, "src", "starklab")
    counts = {"total": 0, "docstring": 0, "code": 0}
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            text = fh.read()
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) \
                    and ast.get_docstring(node, clean=False) is not None:
                first = node.body[0]
                docstrings.update(range(first.lineno, first.end_lineno + 1))
        code = set()
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type not in _NOT_CODE:
                code.update(range(token.start[0], token.end[0] + 1))
        counts["total"] += len(text.splitlines())
        counts["docstring"] += len(docstrings)
        counts["code"] += len(code - docstrings)
    return counts


def _extract(rev: str, into: str) -> str:
    """git archive of rev, unpacked into the directory into; its commit."""
    sha = subprocess.run(["git", "-C", REPO, "rev-parse", "--verify",
                          f"{rev}^{{commit}}"], capture_output=True,
                         text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "-C", REPO, "archive", sha],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(into, filter="data")
        else:
            archive.extractall(into)
    return sha


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, metavar="REV",
                        help="git revision to compare the working tree with")
    args = parser.parse_args(argv)
    began = time.perf_counter()
    with tempfile.TemporaryDirectory() as work:
        base_tree = os.path.join(work, "tree")
        sha = _extract(args.base, base_tree)
        outputs = {side: os.path.join(work, side)
                   for side in ("base", "head")}
        trees = {"base": base_tree, "head": REPO}
        sweep = cases(REPO)
        failed = []
        for name, (config, commands) in sweep.items():
            for side, tree in trees.items():
                failed += [f"{side} {name}: {command} exited {status}"
                           for command, status in run_case(
                               tree, os.path.join(outputs[side], name),
                               config, commands)]
            print(f"ran {name}", file=sys.stderr, flush=True)
        records = compare_trees(outputs["base"], outputs["head"])
        lines = {side: line_counts(tree) for side, tree in trees.items()}
    text = summary(records)
    print(f"identity sweep: base {args.base} ({sha[:12]}) against the "
          f"working tree, {len(sweep)} cases, "
          f"{time.perf_counter() - began:.0f} s")
    print(text)
    for side, n in lines.items():
        print(f"src/starklab {side}: {n['total']} lines, {n['docstring']} "
              f"docstring, {n['code']} code")
    for line in failed:
        print(f"failed: {line}")
    if failed:
        return 2
    return 0 if text.endswith("identical") else 1


if __name__ == "__main__":
    sys.exit(main())
