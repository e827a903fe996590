"""cli-cold: every command in a fresh `python -m gbent.cli` process.

Why: CLI users pay for the imports, the lru_cache fills, _dot_table and the
ring _context tables on every invocation, and the CLI computes spectra with
wht_naive only. This is a closed loop with one client: each command starts
when the previous one has exited. The inputs span p^n from 625 to 2401 and
M = lcm(4, q) over {84, 108, 196, 324, 500}, so a change that helps one
input shape shows as such. The random table is not gbent and takes the
early exit. p=3 n=8 is left out: wht_naive alone takes about a minute there.
"""

from __future__ import annotations

import functools
import inspect
import io
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext, redirect_stdout
from math import lcm
from pathlib import Path
from typing import Callable, NamedTuple

from gbent import (
    CycInt,
    FunctionDoc,
    all_points,
    build_maiorana,
    built_function_doc,
    component_row_table,
    digits,
    example_maiorana_q21,
    example_maiorana_q27,
    is_gbent,
    load_function,
    norm_sq,
    parse_cycint,
    regularity,
    root,
    save_function,
    spectral_form,
    spectrum_records,
    wht_composed,
    wht_naive,
)
from gbent import cli, selftest
from gbent.selftest import all_checks
from harness import ALL_CPUS, Op, unpin, unpinned
from inputs import build_contexts, generic_spec, maiorana_spectrum, random_table, working_moduli

NAME = "cli-cold"
COLD = True
SRC = Path(__file__).resolve().parent.parent / "src"
CLI_TIMEOUT_S = 150
IMPORT_PROBES = 5
# analyze --jobs 2 needs two processors; with fewer it would oversubscribe
# and measure the scheduler, so the command is left out.
JOBS2 = len(ALL_CPUS) >= 2

# (name, p, m, q, file form) of the quadratic-plus-affine inputs.
MAIORANA = (
    ("q27", 3, 3, 27, "table"),
    ("q21", 3, 3, 21, "components"),
    ("q81", 3, 3, 81, "table"),
    ("q125", 5, 2, 125, "table"),
    ("q49", 7, 2, 49, "table"),
)
RANDOM = ("random", 3, 6, 27)
SPECTRUM_INPUTS = ("q27", "q21")
TABLE_SUMMARY = re.compile(
    r"table (q27|q21): \d+ golden rows, 0 mismatches, 0 undecomposed points"
)


class Command(NamedTuple):
    kind: str
    group: str  # analyze, analyze_jobs2, spectrum or suites
    argv: tuple[str, ...]
    moduli: tuple[int, ...]  # rings the command builds, for the counts
    expect: Callable[[int, str], list[str]]  # (exit code, stdout) -> problems
    replay: Callable  # (tracer) -> problems, the same work in-process


def _fmt(u) -> str:
    return "(" + ",".join(map(str, u)) + ")"


def _analyze_text(spec, source: str, points) -> str:
    p, n, q = spec.p, spec.n, spec.q
    lines = [
        f"function: p={p} n={n} q={q} points={p**n} source={source}",
        "verdict: gbent, regular (alpha = +1)",
        "per-point spectral data:",
        "point\talpha\tj\tr\tdual",
    ]
    lines += [f"{_fmt(u)}\t+1\t{j}\t{row}\t{dual}" for u, j, row, dual in points]
    return "\n".join(lines) + "\n"


class State:
    def __init__(self, seed: int, work: Path):
        rng = random.Random(seed)
        self.seed = seed
        self.library_s = 0.0  # traced run: cli.main's seconds inside other modules
        self.first_out: dict[str, str] = {}
        self.commands: list[Command] = []
        analyze = []
        spectra = {}
        for name, p, m, q, form in MAIORANA:
            spec = generic_spec(rng, p, m, q)
            doc = built_function_doc(spec)
            if form == "table":
                doc = FunctionDoc(doc.function, None)
            path = str(work / f"{name}.json")
            save_function(doc, path)
            points = maiorana_spectrum(spec)
            text = _analyze_text(spec, "components" if form == "components" else "table", points)
            analyze.append((name, path, p, q, text, points))
            if name in SPECTRUM_INPUTS:
                comps = doc.components if doc.components is not None else digits(doc.function)
                spectra[name] = (path, p, 2 * m, q, wht_composed(comps).values)
        name, p, n, q = RANDOM
        f = random_table(rng, p, n, q)
        while _unit_at_zero(f):
            f = random_table(rng, p, n, q)
        random_path = str(work / f"{name}.json")
        save_function(FunctionDoc(f, None), random_path)

        for name, path, p, q, text, points in analyze:
            self._add_analyze(f"analyze:{name}", "analyze", path, p, q, text, points, 1)
        self._add_random(f"analyze:{RANDOM[0]}", random_path, f)
        for name in SPECTRUM_INPUTS:
            self._add_spectrum(f"spectrum:{name}", *spectra[name])
        self._add_tables()
        self._add_selftest()
        if JOBS2:
            name, path, p, q, text, points = analyze[0]
            self._add_analyze(f"analyze-jobs2:{name}", "analyze_jobs2", path, p, q, text, points, 2)

    def _add_analyze(self, kind, group, path, p, q, text, points, jobs):
        def expect(rc, out):
            return [] if rc == 0 and out == text else [f"{kind}: exit {rc}, output differs"]

        def replay(tr):
            with unpinned() if jobs > 1 else nullcontext():
                gb, reg, rows, forms = _replay_analyze(tr, path, working_moduli(p, q), jobs)
            problems = [] if reg.verdict == "regular" else [f"{kind}: verdict {reg.verdict}"]
            for i, (u, j, row, dual) in enumerate(points):
                form, d = forms.forms[i], rows[i]
                if form is None or (form.alpha, form.dual) != ("+1", dual) \
                        or d is None or (d.j, d.row) != (j, row):
                    problems.append(f"{kind}: wrong spectral data at {_fmt(u)}")
                    break
            return problems

        argv = ("analyze", "--input", path) + (("--jobs", str(jobs)) if jobs > 1 else ())
        self.commands.append(Command(kind, group, argv, working_moduli(p, q), expect, replay))

    def _add_random(self, kind, path, f):
        zero = _fmt((0,) * f.n)
        head = [
            f"function: p={f.p} n={f.n} q={f.q} points={len(f.table)} source=table",
            "verdict: not gbent",
        ]

        def expect(rc, out):
            lines = out.splitlines()
            ok = (rc == 1 and len(lines) == 3 and lines[:2] == head
                  and lines[2].startswith("failing points (") and zero in lines[2].split())
            return [] if ok else [f"{kind}: exit {rc}, output is not the not-gbent report"]

        def replay(tr):
            gb, reg, _, _ = _replay_analyze(tr, path, working_moduli(f.p, f.q), 1)
            ok = not gb and reg.verdict == "not_gbent" and (0,) * f.n in gb.failures
            return [] if ok else [f"{kind}: random table not reported as not gbent"]

        argv = ("analyze", "--input", path)
        self.commands.append(Command(kind, "analyze", argv, working_moduli(f.p, f.q), expect, replay))

    def _add_spectrum(self, kind, path, p, n, q, expected):
        modulus = lcm(4, q)
        size = p**n

        def expect(rc, out):
            lines = out.splitlines()
            if rc != 0 or len(lines) != size:
                return [f"{kind}: exit {rc}, {len(lines)} records"]
            for u, line, value in zip(all_points(p, n), lines, expected):
                text_u, text_v, text_norm = line.split("\t")
                if text_u != ",".join(map(str, u)) or parse_cycint(text_v) != value \
                        or text_norm != str(size):
                    return [f"{kind}: record for {_fmt(u)} differs from wht_composed"]
            return []

        def replay(tr):
            build_contexts(tr, (modulus,))
            doc = tr.call("gbfunc.load_function", load_function, path)
            s = tr.call("transform.wht_naive", wht_naive, doc.function)
            tr.count("transform.wht_naive.points", size)
            tr.count("count.points", size)
            records = tr.call("transform.spectrum_records", spectrum_records, s)
            if any(text != str(v) or norm != str(size)
                   for (_, text, norm), v in zip(records, expected)):
                return [f"{kind}: spectrum records differ from wht_composed"]
            return []

        argv = ("spectrum", "--format", "delimited", "--input", path)
        self.commands.append(Command(kind, "spectrum", argv, (modulus,), expect, replay))

    def _add_tables(self):
        def expect(rc, out):
            found = {m.group(1) for m in map(TABLE_SUMMARY.match, out.splitlines()) if m}
            return [] if rc == 0 and found == {"q27", "q21"} else [f"tables: exit {rc}"]

        def replay(tr):
            build_contexts(tr, (12,))
            problems = []
            for name, make in (("q27", example_maiorana_q27), ("q21", example_maiorana_q21)):
                t = tr.call("construct.build_maiorana", build_maiorana, make())
                rows = tr.call("classify.component_row_table", component_row_table, t)
                mismatches, _ = tr.call(
                    "cli.compare_reference_tables", cli.compare_reference_tables, name)
                if mismatches or any(d is None for d in rows):
                    problems.append(f"tables: {name} differs from its golden file")
            return problems

        self.commands.append(Command("tables", "suites", ("tables",), (12,), expect, replay))

    def _add_selftest(self):
        seed = self.seed
        suites = [name for name, _ in all_checks(seed)]
        summary = f"selftest: {len(suites)}/{len(suites)} suites passed (seed={seed})"

        def expect(rc, out):
            ok = rc == 0 and out.splitlines() == [f"ok {s}" for s in suites] + [summary]
            return [] if ok else [f"selftest: exit {rc}, not every suite passed"]

        def replay(tr):
            problems = []
            for name, check in all_checks(seed):
                try:
                    with tr.span(f"selftest.{name}"):
                        check()
                except AssertionError as e:
                    problems.append(f"selftest {name}: {e}")
            return problems

        argv = ("selftest", "--seed", str(seed))
        self.commands.append(Command("selftest", "suites", argv, (), expect, replay))


def _unit_at_zero(f) -> bool:
    """Whether |S_f(0)|^2 = p^n; a table where it is not cannot be gbent."""
    modulus = lcm(4, f.q)
    step = modulus // f.q
    s0 = sum((root(modulus, v * step) for v in f.table), CycInt.zero(modulus))
    return norm_sq(s0) == f.p**f.n


def _replay_analyze(tr, path, moduli, jobs):
    """The calls cli analyze makes, in its order."""
    build_contexts(tr, moduli)
    doc = tr.call("gbfunc.load_function", load_function, path)
    f = doc.function
    s = tr.call("transform.wht_naive", wht_naive, f, jobs=jobs)
    tr.count("transform.wht_naive.points", len(f.table))
    tr.count("count.points", len(f.table))
    gb = tr.call("classify.is_gbent", is_gbent, f, s)
    reg = tr.call("classify.regularity", regularity, f, s)
    comps = doc.components
    if comps is None:
        comps = tr.call("gbfunc.digits", digits, f)
    rows = tr.call("classify.component_row_table", component_row_table, comps)
    forms = tr.call("classify.spectral_form", spectral_form, f, s)
    return gb, reg, rows, forms


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_cli(argv) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "gbent.cli", *argv],
        env=_cli_env(), capture_output=True, timeout=CLI_TIMEOUT_S,
        preexec_fn=unpin if "--jobs" in argv else None,
    )
    return proc.returncode, proc.stdout.decode("utf-8")


def import_seconds() -> float:
    """Seconds a fresh interpreter spends importing gbent.cli."""
    code = "import time; t = time.perf_counter(); import gbent.cli; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_cli_env(), capture_output=True,
        timeout=CLI_TIMEOUT_S, check=True,
    )
    return float(proc.stdout)


def setup(seed: int, work: Path, tracer=None) -> State:
    import_seconds()  # a fresh interpreter's start-up, and the bytecode cache
    return State(seed, work)


def _checked(state: State, cmd: Command):
    def check(result):
        rc, out = result
        problems = cmd.expect(rc, out)
        first = state.first_out.setdefault(cmd.kind, out)
        if out != first:
            problems.append(f"{cmd.kind}: stdout differs from the first pass")
        return problems

    return check


def ops(state: State) -> list[Op]:
    return [Op(c.kind, lambda tr, argv=c.argv: run_cli(argv), _checked(state, c))
            for c in state.commands]


def replay(state: State) -> list[Op]:
    return [Op(c.kind, c.replay) for c in state.commands]


@contextmanager
def _library_timer(state: State):
    """Time every call gbent.cli makes into the other gbent modules.

    For the duration, each function gbent.cli holds from another gbent
    module, and each suite all_checks hands to cmd_selftest, is replaced by
    a wrapper that adds its seconds to state.library_s; the rest of
    cli.main's time is its own rendering and glue.
    """

    def timed(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                state.library_s += time.perf_counter() - t0
        return wrapper

    def timed_checks(seed):
        return [(name, timed(check)) for name, check in all_checks(seed)]

    patched = {
        name: obj for name, obj in vars(cli).items()
        if inspect.isfunction(obj) and obj.__module__.startswith("gbent.")
        and obj.__module__ != cli.__name__
    }
    try:
        for name, fn in patched.items():
            setattr(cli, name, timed(fn))
        selftest.all_checks = timed_checks
        yield
    finally:
        for name, fn in patched.items():
            setattr(cli, name, fn)
        selftest.all_checks = all_checks


def main_ops(state: State) -> list[Op]:
    """cli.main in-process for each command, one span each, checked as a CLI run."""

    def main(cmd):
        def run(tr):
            buf = io.StringIO()
            jobs = unpinned() if "--jobs" in cmd.argv else nullcontext()
            with jobs, redirect_stdout(buf), _library_timer(state), tr.span("cli.main"):
                rc = cli.main(list(cmd.argv))
            tr.count("cli.stdout_bytes", len(buf.getvalue().encode("utf-8")))
            return rc, buf.getvalue()

        return Op(cmd.kind, run, _checked(state, cmd))

    return [main(c) for c in state.commands]


def trace_metrics(state: State, tracer) -> dict:
    main_s = sum(s.end - s.start for s in tracer.spans if s.name == "cli.main")
    return {
        "cli.import_s": (statistics.median(import_seconds() for _ in range(IMPORT_PROBES)), "s"),
        "cli.unattributed.s": (main_s - state.library_s, "s"),
    }


def details(state: State, per_kind: dict[str, float]) -> list[tuple[str, object, str]]:
    """Seconds per pass over each command group, and --jobs 2 against --jobs 1."""
    out = []
    for group in ("analyze", "analyze_jobs2", "spectrum", "suites"):
        kinds = [c.kind for c in state.commands if c.group == group]
        value = sum(per_kind[k] for k in kinds) if kinds else "skipped: fewer than 2 processors"
        out.append((f"{group}_s", value, "s"))
    if JOBS2:
        out.append(("analyze_q27_jobs1_s", per_kind["analyze:q27"], "s"))
    return out


def processes(state: State) -> list[tuple[int, ...]]:
    return [c.moduli for c in state.commands]


def peak_rss_mb() -> float:
    # The largest child: each command is its own process.
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
