"""Which ``src/repro`` functions does no run reach, and which knobs does
every run leave at one value?

    python benchmarks/unreached.py [--functions]

Runs what a user of the package runs — the 15 ``--quick --seed 7`` CLI
experiments, a serial and a sharded fuzz campaign, every script under
``examples/`` and one smoke pass of ``benchmarks/e2e/bench.py`` — with a
profile hook in every Python process they start (fabric workers and
benchmark reps included), then prints two tables, one row per module:

* the functions none of them called, and their total;
* the *knobs*: each defaulted parameter (``ast`` ``def`` signatures,
  keyword-only ones included) that every call left at one value —
  ``single-valued knobs: N of M``.  ``repro/experiments/`` and
  ``repro/cli.py`` are left out: the CLI flags set their parameters.

``--functions`` also lists every unreached function and every
single-valued knob with its one value.

A function is an ``ast`` ``def`` (nested ones count on their own) and its
lines run from ``def`` to its last line.  Functions are matched by module
path and qualified name (``co_qualname``; ``<locals>`` for a def nested in
a function), never by line, so an edit to ``src/`` while the runs go on
moves nothing; the defs that share a qualified name in one module (a
property and its setter) are reached together.  The ``fuzz --console-out``
run's stderr is a pseudo-terminal, so the live status line, which the
campaign draws only on a terminal, runs too.  Code only tests reach shows
up here; error paths and code that runs only on a fuzz violation do too,
and stay by design.  A single-valued knob is a candidate for deletion
when grep shows that only tests set it.  It takes several minutes, so
neither tier-1 nor CI runs it.

The hook is a ``usercustomize`` module in a throwaway ``PYTHONUSERBASE``:
Python imports it at start-up in every child interpreter that inherits
the environment, whatever its ``PYTHONPATH``.  It records each code
object that receives a ``call`` event (``sys.setprofile`` and
``threading.setprofile``) and, for a function with knobs, up to two
distinct values of each knob: ``None``, bools, numbers, short strings and
small tuples of those by type and value, anything else by type and
``id`` (the parameter's own default object by type alone, so it matches
across processes).  It stops inspecting a function once every knob has
shown two values, and writes the ``repro`` rows at exit.  A worker the
fabric kills writes nothing, so the counts can move by one or two from
run to run.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import pty
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

#: The hook's body; ``main`` prepends ``_OUT`` (the dump directory) and
#: ``_KNOBS`` (the knob table: ``[path, qualified name, [parameter, ...]]``).
HOOK = '''\
import atexit, json, opcode, os, sys, threading

with open(_KNOBS, encoding="utf-8") as _fh:
    _TABLE = {(path, name): names for path, name, names in json.load(_fh)}
_RESUME = opcode.opmap["RESUME"]
#: CO_GENERATOR | CO_COROUTINE | CO_ASYNC_GENERATOR
_GENERATOR = 0x20 | 0x80 | 0x200
_SCALARS = (type(None), bool, int, float)
#: Every code object called -> its watch list, or None once it has none.
_codes = {}
#: ``(code, parameter) -> {fingerprint: shown value}``, at most two.
_values = {}
_NO_DEFAULT = object()


def _simple(value):
    kind = type(value)
    return (kind in _SCALARS or (kind is str and len(value) <= 40)
            or (kind is tuple and len(value) <= 8
                and all(map(_simple, value))))


def _fingerprint(value, default):
    # (key, shown): equal keys mean the same value.
    kind = type(value).__name__
    if _simple(value):
        return (kind, repr(value)), repr(value)[:60]
    # A parameter's own default object is the same one in every process.
    return (kind, "default" if value is default else id(value)), f"<{kind}>"


def _defaults(frame, code):
    parts = code.co_qualname.split(".")
    if "<locals>" in parts:
        return {}
    owner = frame.f_globals.get(parts[0])
    for part in parts[1:]:
        owner = getattr(owner, "__dict__", {}).get(part)
    func = getattr(owner, "__func__", owner)  # static- or classmethod
    if getattr(func, "__code__", None) is not code:
        return {}
    positional = code.co_varnames[:code.co_argcount]
    given = func.__defaults__ or ()
    found = dict(zip(positional[len(positional) - len(given):], given))
    found.update(func.__kwdefaults__ or {})
    return found


def _watch(frame, code):
    if "repro" not in code.co_filename:
        return None
    names = _TABLE.get((os.path.realpath(code.co_filename),
                        code.co_qualname))
    if not names:
        return None
    defaults = _defaults(frame, code)
    # A generator's resumption is a "call" too; only its first one sees
    # the arguments as passed.
    first = (code.co_code[::2].index(_RESUME) * 2
             if code.co_flags & _GENERATOR else None)
    knobs = []
    for name in names:
        seen = _values[code, name] = {}
        knobs.append((name, defaults.get(name, _NO_DEFAULT), seen))
    return first, knobs


def _profile(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    try:
        watch = _codes[code]
    except KeyError:
        watch = _codes[code] = _watch(frame, code)
    if watch is None:
        return
    first, knobs = watch
    if first is not None and frame.f_lasti > first:
        return
    local = frame.f_locals
    for name, default, seen in knobs:
        if len(seen) < 2 and name in local:
            key, shown = _fingerprint(local[name], default)
            seen.setdefault(key, shown)
    if all(len(seen) == 2 for _name, _default, seen in knobs):
        _codes[code] = None


def _dump():
    sys.setprofile(None)
    repro = [code for code in _codes if "repro" in code.co_filename]
    dump = {
        "calls": sorted({(code.co_filename, code.co_qualname)
                         for code in repro}),
        "knobs": [(code.co_filename, code.co_qualname, name,
                   [[repr(key), shown] for key, shown in seen.items()])
                  for (code, name), seen in _values.items()]}
    with open(os.path.join(_OUT, f"{os.getpid()}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(dump, fh)


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


def functions() -> dict[tuple[str, str], tuple[int, int, tuple[str, ...]]]:
    """``(path, qualified name) -> (first line, lines, knobs)`` of every
    ``def``, the name as in ``co_qualname``; ``knobs`` are its parameters
    with a default.  Defs sharing a name add their lines and knobs up.
    """
    found = {}

    def visit(node, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                args = child.args
                positional = args.posonlyargs + args.args
                knobs = positional[len(positional) - len(args.defaults):]
                knobs += [arg for arg, default in zip(args.kwonlyargs,
                                                      args.kw_defaults)
                          if default is not None]
                first, lines, known = found.get(
                    (path, name), (child.lineno, 0, ()))
                found[(path, name)] = (
                    first, lines + child.end_lineno - child.lineno + 1,
                    known + tuple(arg.arg for arg in knobs
                                  if arg.arg not in known))
                visit(child, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")),
              os.path.realpath(path), "")
    return found


def run(argv: list[str], cwd: Path, env: dict, terminal: bool) -> None:
    """Run ``argv`` to the end, stdout discarded; with ``terminal``, its
    stderr (and its workers') is a pseudo-terminal drained here."""
    if not terminal:
        subprocess.run(argv, cwd=cwd, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        return
    master, slave = pty.openpty()
    try:
        proc = subprocess.Popen(argv, cwd=cwd, env=env,
                                stdout=subprocess.DEVNULL, stderr=slave)
    finally:
        os.close(slave)
    with os.fdopen(master, "rb", buffering=0) as screen:
        try:
            while screen.read(4096):
                pass
        except OSError:  # EIO: every writer has closed the terminal
            pass
    if proc.wait():
        raise subprocess.CalledProcessError(proc.returncode, argv)


def cli_set(path: str) -> bool:
    """True for the modules whose parameters the CLI flags set."""
    module = os.path.relpath(path, SRC)
    return (module.startswith(os.path.join("repro", "experiments", ""))
            or module == os.path.join("repro", "cli.py"))


def collect(dump_dir: Path) -> tuple[set, dict]:
    """Every run's dumps merged: the ``(real path, qualified name)`` of
    each code object called, and ``(real path, qualified name, parameter)
    -> {fingerprint: shown value}`` (at most two values)."""
    seen, values = set(), defaultdict(dict)
    for dump_path in dump_dir.glob("*.json"):
        dump = json.loads(dump_path.read_text(encoding="utf-8"))
        for path, name in dump["calls"]:
            seen.add((os.path.realpath(path), name))
        for path, name, param, pairs in dump["knobs"]:
            merged = values[os.path.realpath(path), name, param]
            for key, shown in pairs:
                if len(merged) < 2:
                    merged.setdefault(key, shown)
    return seen, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--functions", action="store_true",
                        help="also list every unreached function and "
                             "single-valued knob")
    args = parser.parse_args(argv)

    every = functions()
    table = [[path, name, list(knobs)]
             for (path, name), (_first, _lines, knobs) in every.items()
             if knobs and not cli_set(path)]
    with tempfile.TemporaryDirectory(prefix="unreached-") as tmp:
        tmp = Path(tmp)
        dumps, cwd = tmp / "dumps", tmp / "cwd"
        dumps.mkdir()
        cwd.mkdir()
        knobs_path = tmp / "knobs.json"
        knobs_path.write_text(json.dumps(table), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   PYTHONUSERBASE=str(tmp / "userbase"))
        site = Path(subprocess.check_output(
            [sys.executable, "-c",
             "import site; print(site.getusersitepackages())"],
            env=env, text=True).strip())
        site.mkdir(parents=True)
        (site / "usercustomize.py").write_text(
            f"_OUT = {str(dumps)!r}\n_KNOBS = {str(knobs_path)!r}\n" + HOOK,
            encoding="utf-8")
        for argv_ in runs():
            label = " ".join(Path(a).name if os.sep in a else a
                             for a in argv_[1:])
            print(f"running {label}", file=sys.stderr, flush=True)
            run(argv_, cwd, env, terminal="--console-out" in argv_)
        seen, values = collect(dumps)

    missed = {key: value for key, value in every.items() if key not in seen}
    total_lines = sum(value[1] for value in every.values())
    missed_lines = sum(value[1] for value in missed.values())
    print(f"unreached: {len(missed):,} of {len(every):,} functions, "
          f"{missed_lines:,} of {total_lines:,} function lines")

    knobs: dict[str, list] = defaultdict(list)   # module -> its knob rows
    for path, name, params in table:
        first = every[path, name][0]
        for param in params:
            shown = values.get((path, name, param), {})
            knobs[os.path.relpath(path, SRC)].append(
                (first, name, param, list(shown.values())))
    every_knob = [row for rows in knobs.values() for row in rows]
    single = sum(1 for row in every_knob if len(row[3]) == 1)
    dark = sum(1 for row in every_knob if not row[3])
    print(f"single-valued knobs: {single:,} of {len(every_knob):,} "
          f"defaulted parameters ({dark:,} are in functions no run "
          f"reaches; repro/experiments/ and repro/cli.py left out)")

    by_module: dict[str, list] = defaultdict(list)
    for (path, name), (first, lines, _knobs) in missed.items():
        by_module[os.path.relpath(path, SRC)].append((first, name, lines))
    rows = sorted(by_module.items(),
                  key=lambda kv: (-sum(r[2] for r in kv[1]), kv[0]))
    print(f"\n{'module':<40} {'functions':>9} {'lines':>6}")
    for module, entries in rows:
        print(f"{module:<40} {len(entries):>9} "
              f"{sum(r[2] for r in entries):>6}")

    knob_rows = sorted(
        ((module, sum(1 for r in entries if len(r[3]) == 1), len(entries))
         for module, entries in knobs.items()),
        key=lambda row: (-row[1], row[0]))
    print(f"\n{'module':<40} {'single':>9} {'knobs':>6}")
    for module, n_single, n_knobs in knob_rows:
        if n_single:
            print(f"{module:<40} {n_single:>9} {n_knobs:>6}")

    if args.functions:
        print()
        for module, entries in sorted(rows):
            for first, name, lines in sorted(entries):
                print(f"{module}:{first} {name} ({lines})")
        print()
        for module, entries in sorted(knobs.items()):
            for first, name, param, shown in sorted(entries):
                if len(shown) == 1:
                    print(f"{module}:{first} {name}({param}) = {shown[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
