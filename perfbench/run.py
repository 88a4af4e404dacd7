"""Fixed-seed benchmark of the pairhull JSON-lines CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload relax-mix --seed 1 --seconds 20 --trace 0

Inputs are generated from ``--seed`` with the package's own samplers and fed
through ``pairhull.cli.main`` in this process, one closed-loop stream at a
time: the CLI answers a line before it reads the next.  Every output line is
checked.  With ``--trace 0`` the run repeats the workload's commands for
``--seconds``, each command taking about the same share of the time, and
reports the end-to-end metrics at reference speed (see calibrate.py); with
``--trace 1`` it runs one untraced and one traced pass of fixed size and
reports the per-layer metrics (``--seconds`` is not used).  Readable lines
come first; the last line of stdout is one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Fresh processes timed for setup_s, after one unmeasured warm-up.
SETUP_REPEATS = 7
#: Workload names, in BENCHMARK.json order.
WORKLOADS = ("relax-mix", "cut-heavy", "oracle-check", "verify-suites")

END_TO_END = {
    "cell_per_s": "1/s",
    "member_per_s": "1/s",
    "cut_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def _cli(argv: list[str], stdin: str) -> tuple[int, str, float]:
    """One in-process CLI call: exit code, stdout and wall seconds."""
    from pairhull.cli import main

    out = io.StringIO()
    t0 = time.perf_counter()
    rc = main(list(argv), io.StringIO(stdin), out)
    return rc, out.getvalue(), time.perf_counter() - t0


def _reference(wl):
    """Decisions the checks compare against, computed before any timing."""
    from checks import Reference, check_stream_round, stream_decisions
    from inputs import lines_of

    def touch_member(recs: list[dict]) -> list[bool]:
        _, text, _ = _cli(["member"], "".join(json.dumps(r) + "\n" for r in recs))
        return stream_decisions("member", text)

    kinds = {c.kind: c for c in wl.commands}
    closed_form = None
    if "oracle" in kinds:  # the separate stream holds every point of the workload
        closed_form = stream_decisions("member", _cli(["member"], kinds["separate"].stdin)[1])
    preimage = unit_failed = None
    if wl.preimages is not None:
        text = lines_of(wl.preimages)
        unit = {k: _cli([k], text)[:2] for k in ("classify", "member", "separate")}
        preimage = {k: stream_decisions(k, out) for k, (_, out) in unit.items()}
        coords = [p.coords() for p in wl.preimages]
        unit_failed = {k: set(t.failed_lines) for k, t in check_stream_round(
            unit, dict.fromkeys(unit, coords), Reference(touch_member)).items()}
    return Reference(touch_member, closed_form, preimage, unit_failed,
                     require_cut=wl.name == "cut-heavy")


def _round(wl, tracer=None) -> tuple[dict, dict]:
    """Run each command of the workload once; outputs and wall seconds by label."""
    from layers import CLI_ROOT

    outputs, times = {}, {}
    for c in wl.commands:
        if tracer is None:
            rc, text, dt = _cli(c.argv, c.stdin)
        else:
            with tracer.root(CLI_ROOT, " ".join(c.argv)):
                rc, text, dt = _cli(c.argv, c.stdin)
        outputs[c.label] = (rc, text)
        times[c.label] = dt
    return outputs, times


class _Checker:
    """Checks every output of a command against the first round's outputs
    of the others.  Stream outputs are deterministic, so an output equal to
    the first round's has the same result, which is reused."""

    def __init__(self, wl, first: dict):
        from checks import check_stream_round

        self.by_label = first
        self.ref = _reference(wl)
        stream = [c for c in wl.commands if c.kind != "verify"]
        self.points = {c.kind: [p.coords() for p in c.points] for c in stream}
        self.first = {c.kind: first[c.label] for c in stream}
        self.results = check_stream_round(self.first, self.points, self.ref) if stream else {}

    def __call__(self, c, rc: int, text: str):
        from checks import check_stream_round, check_verify

        if c.kind == "verify":
            return check_verify(c.argv, rc, text, c.items)
        if (rc, text) == self.first[c.kind]:
            return self.results[c.kind]
        outputs = {**self.first, c.kind: (rc, text)}
        return check_stream_round(outputs, self.points, self.ref)[c.kind]

    def repeats_first(self, c, rc: int, text: str) -> bool:
        """Whether an output repeats the first round's output of its command,
        verify summaries compared without their wall time."""
        from checks import without_elapsed

        first_rc, first_text = self.by_label[c.label]
        return rc == first_rc and without_elapsed(text) == without_elapsed(first_text)


def measure_setup(wl) -> tuple[float, float, object]:
    """Median time of a fresh ``python -m pairhull`` answering one line of
    the workload's first command, from process start to exit, at reference
    speed and raw."""
    from calibrate import Bracket, bare_start
    from checks import Tally

    first = wl.commands[0]
    argv = list(first.argv)
    if first.kind == "verify":
        argv[argv.index("--trials") + 1] = "1"
    line = first.stdin.splitlines(keepends=True)[0] if first.stdin else ""
    expected = None if first.kind == "verify" else _cli(argv, line)[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    tally = Tally()
    times, raw = [], []
    bracket = Bracket(lambda: bare_start(env, ROOT))
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pairhull", *argv], input=line,
                              capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
        dt = time.perf_counter() - t0
        factor = bracket.factors()["start"]
        if i:
            times.append(dt * factor)
            raw.append(dt)
        tally.attempted += 1
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) != 1 or (expected is not None
                                                       and proc.stdout != expected):
            tally.fail("setup " + " ".join(argv), proc.stdout + proc.stderr,
                       [f"setup-exit-{proc.returncode}" if proc.returncode else "setup-output"])
    return statistics.median(times), statistics.median(raw), tally


def run_timed(wl, seconds: float) -> dict:
    """Time the workload's commands for ``seconds``.

    A warm-up round measures each command; after it every round runs each
    command about as many times as fit in the slowest command's duration,
    so each gets a similar share of the time.  Each call is bracketed by
    the calibration kernel and its rate taken at reference speed.

    ``attempted`` and ``failed`` count distinct outputs, so they depend on
    the seed alone and not on how many calls fit in the time: the warm-up
    round is checked in full, a timed call whose output repeats it adds
    nothing, and any other timed output is checked and tallied in full.
    """
    from calibrate import Bracket
    from checks import Tally

    first, warm = _round(wl)
    check = _Checker(wl, first)
    tally = Tally()
    for c in wl.commands:
        tally.add(check(c, *first[c.label]))
    slowest = max(warm.values())
    reps = {c.label: max(1, round(slowest / warm[c.label])) for c in wl.commands}
    rates: dict[str, list[float]] = {c.label: [] for c in wl.commands}
    raw: dict[str, list[float]] = {c.label: [] for c in wl.commands}
    rounds = repeats = 0
    bracket = Bracket()
    deadline = time.perf_counter() + seconds
    while rounds == 0 or time.perf_counter() < deadline:
        rounds += 1
        for c in wl.commands:
            for _ in range(reps[c.label]):
                rc, text, dt = _cli(c.argv, c.stdin)
                factor = bracket.factors()[c.reference]
                rates[c.label].append(c.items / (dt * factor))
                raw[c.label].append(c.items / dt)
                if check.repeats_first(c, rc, text):
                    repeats += 1
                else:
                    tally.add(check(c, rc, text))
    setup_s, setup_raw, setup_tally = measure_setup(wl)
    tally.add(setup_tally)
    metrics = {c.metric: statistics.median(rates[c.label]) for c in wl.commands}
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calls = sum(len(v) for v in rates.values())
    readable = [f"{rounds} rounds over {seconds:g} s; reference speed, raw in brackets",
                f"{repeats} of {calls} timed outputs repeat the checked warm-up outputs"]
    readable += [f"{c.label} {metrics[c.metric]:.6g} {c.unit}  [raw "
                 f"{statistics.median(raw[c.label]):.6g}; median of {len(rates[c.label])} "
                 f"runs of {' '.join(c.argv)}; metric {c.metric}]" for c in wl.commands]
    readable += [f"setup_s {setup_s:.6g} s  [raw {setup_raw:.6g}; median of {SETUP_REPEATS}]",
                 f"peak_rss_mb {metrics['peak_rss_mb']:.6g} MiB"]
    return _result(tally, {k: metrics[k] for k in END_TO_END}, END_TO_END, readable)


def run_traced(wl) -> dict:
    """One untraced and one traced pass over the workload's commands, then
    the probes of the layers those commands do not reach: the oracle on
    ``wl.probe`` (on oracle-check only its grid-only pass) and, unless the
    workload runs them, the verify suites."""
    from checks import Tally
    from inputs import SUITE_TRIALS
    from layers import GRID_ROOT, ORACLE_ROOT, PER_LAYER, VERIFY_ROOT, Tracer, layer_metrics

    import pairhull.hull
    import pairhull.oracle
    import pairhull.verify

    _round(wl)  # warm-up
    untraced = sum(_round(wl)[1].values())
    kinds = {c.kind for c in wl.commands}
    tracer = Tracer()
    with tracer.installed():
        outputs, times = _round(wl, tracer)
        if "oracle" not in kinds:
            with tracer.root(ORACLE_ROOT):
                for p in wl.probe:
                    pairhull.hull.member_hull(p)
                    pairhull.oracle.oracle_member(p)
        with tracer.root(GRID_ROOT):
            for p in wl.probe:
                pairhull.oracle.oracle_member(p, zoom_rounds=0)
        if "verify" not in kinds:
            for suite in ("partition", "hull", "cuts"):
                with tracer.root(VERIFY_ROOT, suite):
                    pairhull.verify.SUITES[suite](wl.suite_trials[suite], wl.seed)
    check = _Checker(wl, outputs)
    tally = Tally()
    for c in wl.commands:
        tally.add(check(c, *outputs[c.label]))
    metrics = layer_metrics(tracer.spans, sum(c.items for c in wl.commands),
                            sum(times.values()) / untraced - 1.0)
    spans_path = HERE / "out" / f"{wl.name}.spans.jsonl"
    tracer.write(spans_path)
    readable = [f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}"]
    readable += [f"{k} {v:.6g} {PER_LAYER[k]}" for k, v in metrics.items()]
    return _result(tally, metrics, PER_LAYER, readable)


def _result(tally, metrics: dict, units: dict, readable: list[str]) -> dict:
    frac = tally.failed / max(tally.attempted, 1)
    readable.append(f"failed_frac {frac:.6g} ratio  [failed {tally.failed} of "
                    f"{tally.attempted}, {tally.known} of them pass at unit scale; "
                    f"reasons {dict(tally.reasons) or 'none'}]")
    if tally.first:
        readable.append(f"first failure: {tally.first}")
    return {
        "readable": readable,
        "result": {
            "correct": tally.correct and tally.attempted > 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def run(workload: str, seed: int, seconds: float, trace: bool, **sizes) -> dict:
    """Build the workload from its seed and run it; ``sizes`` go to
    :func:`inputs.build_workload` (smoke tests only)."""
    from inputs import build_workload

    wl = build_workload(workload, seed, **sizes)
    return run_traced(wl) if trace else run_timed(wl, seconds)


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"{text} is not positive")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=_positive, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "pairhull" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # One thread: keep numpy's BLAS from starting workers (set before import).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import pairhull

    if Path(pairhull.__file__).resolve().parent != SRC / "pairhull":
        print(f"error: imported pairhull from {pairhull.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in out["readable"]:
        print("  " + line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
