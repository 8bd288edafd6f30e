"""Which ``src/repro`` functions does no run reach?

    python benchmarks/unreached.py [--functions]

Runs what a user of the package runs — the 15 ``--quick --seed 7`` CLI
experiments, a serial and a sharded fuzz campaign, every script under
``examples/`` and one smoke pass of ``benchmarks/e2e/bench.py`` — with a
profile hook in every Python process they start (fabric workers and
benchmark reps included), then prints the functions none of them called:
the total, one row per module, and with ``--functions`` every function.

A function is an ``ast`` ``def`` (nested ones count on their own) and its
lines run from ``def`` to its last line.  Code only tests reach shows up
here; error paths and code that runs only on a fuzz violation do too,
and stay by design.  It takes several minutes, so neither tier-1 nor CI
runs it.

The hook is a ``usercustomize`` module in a throwaway ``PYTHONUSERBASE``:
Python imports it at start-up in every child interpreter that inherits
the environment, whatever its ``PYTHONPATH``.  It records each code
object that receives a ``call`` event (``sys.setprofile`` and
``threading.setprofile``) and writes the ``repro`` ones at exit.  A
worker the fabric kills writes nothing, so the count can move by a
function or two from run to run.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "repro"

#: Every CLI experiment but ``fuzz``, run as ``--quick --seed 7``.
EXPERIMENTS = ("table1", "fig2", "fig3", "fig4", "fig5", "table2", "fig6",
               "fig7", "fig8", "schedule", "telemetry", "chaos",
               "observatory", "service", "scale")

HOOK = '''\
import atexit, os, sys, threading

_seen = set()


def _profile(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _dump():
    sys.setprofile(None)
    rows = sorted({{(code.co_filename, code.co_firstlineno, code.co_name)
                    for code in _seen if "repro" in code.co_filename}})
    with open(os.path.join({out!r}, f"{{os.getpid()}}.tsv"), "w") as fh:
        fh.writelines("\\t".join(map(str, row)) + "\\n" for row in rows)


atexit.register(_dump)
sys.setprofile(_profile)
threading.setprofile(_profile)
'''


def runs() -> list[list[str]]:
    """Argv of every run, relative to a scratch cwd."""
    cli = [sys.executable, "-m", "repro.cli"]
    out = [cli + [name, "--quick", "--seed", "7"] for name in EXPERIMENTS]
    out.append(cli + ["fuzz", "--seed-range", "0:25"])
    out.append(cli + ["fuzz", "--seed-range", "0:8", "--jobs", "2",
                      "--journal", "journal.jsonl",
                      "--console-out", "room.jsonl"])
    for script in sorted((REPO / "examples").glob("*.py")):
        extra = ["trace.json"] if script.stem == "telemetry_trace" else []
        out.append([sys.executable, str(script)] + extra)
    out.append([sys.executable, str(REPO / "benchmarks/e2e/bench.py"),
                "run", "--smoke", "--reps", "1", "--out", "bench.json"])
    return out


def functions() -> dict[tuple[str, int], tuple[str, int]]:
    """``(path, first line) -> (qualified name, lines)`` of every ``def``.

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    found = {}

    def visit(node, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                name = prefix + child.name
                found[(path, first)] = (
                    name, child.end_lineno - child.lineno + 1)
                visit(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path), "")
    return found


def reached(calls_dir: Path) -> set[tuple[str, int, str]]:
    """``(real path, first line, name)`` of every code object called."""
    seen = set()
    for dump in calls_dir.glob("*.tsv"):
        for row in dump.read_text(encoding="utf-8").splitlines():
            path, line, name = row.split("\t")
            seen.add((os.path.realpath(path), int(line), name))
    return seen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--functions", action="store_true",
                        help="also list every unreached function")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="unreached-") as tmp:
        tmp = Path(tmp)
        calls, cwd = tmp / "calls", tmp / "cwd"
        calls.mkdir()
        cwd.mkdir()
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   PYTHONUSERBASE=str(tmp / "userbase"))
        site = Path(subprocess.check_output(
            [sys.executable, "-c",
             "import site; print(site.getusersitepackages())"],
            env=env, text=True).strip())
        site.mkdir(parents=True)
        (site / "usercustomize.py").write_text(
            HOOK.format(out=str(calls)), encoding="utf-8")
        for argv_ in runs():
            label = " ".join(Path(a).name if os.sep in a else a
                             for a in argv_[1:])
            print(f"running {label}", file=sys.stderr, flush=True)
            subprocess.run(argv_, cwd=cwd, env=env, check=True,
                           stdout=subprocess.DEVNULL)
        seen = reached(calls)

    every = functions()
    missed = {key: value for key, value in every.items()
              if (os.path.realpath(key[0]), key[1],
                  value[0].rsplit(".", 1)[-1]) not in seen}
    total_lines = sum(lines for _, lines in every.values())
    missed_lines = sum(lines for _, lines in missed.values())
    print(f"unreached: {len(missed):,} of {len(every):,} functions, "
          f"{missed_lines:,} of {total_lines:,} function lines")

    by_module: dict[str, list] = defaultdict(list)
    for (path, first), (name, lines) in missed.items():
        by_module[os.path.relpath(path, SRC)].append((first, name, lines))
    rows = sorted(by_module.items(),
                  key=lambda kv: (-sum(r[2] for r in kv[1]), kv[0]))
    print(f"\n{'module':<40} {'functions':>9} {'lines':>6}")
    for module, entries in rows:
        print(f"{module:<40} {len(entries):>9} "
              f"{sum(r[2] for r in entries):>6}")
    if args.functions:
        print()
        for module, entries in sorted(rows):
            for first, name, lines in sorted(entries):
                print(f"{module}:{first} {name} ({lines})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
