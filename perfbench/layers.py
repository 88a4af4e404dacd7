"""Outside-in tracing of the package's layers and the per-layer metrics.

The layers are the package modules.  A traced run rebinds, in every loaded
``pairhull`` module and in its module-level tables, each name bound to one
of the functions in :data:`TRACED` to a wrapper that records a span, so
both the lookups one module makes in another and a module's calls to its
own public functions are timed.  No library code changes; the original bindings come back when
the run ends.  Spans are ``[name, parent, start_ns, end_ns, note]`` lists
kept in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

#: Public functions timed by the traced run, as ``module.name``.
TRACED = (
    "core.validate_point",
    "core.in_relaxation_ctilde",
    "regions.classify",
    "regions.region_closure_contains",
    "regions.region_partition_audit",
    "hull.member_hull",
    "hull.piece_slacks",
    "separation.separate",
    "separation.q_value",
    "separation.q_gradient",
    "oracle.oracle_member",
    "verify.run_partition_suite",
    "verify.run_hull_suite",
    "verify.run_cuts_suite",
)

#: What a span keeps of a call's result: the decisions the ratios need.
_NOTES = {
    "hull.member_hull": lambda rep: (bool(rep.member), rep.region.value),
    "separation.separate": lambda res: "inside" if res.inside else "cut",
    "oracle.oracle_member": lambda res: bool(res[0]),
}

#: Root span of one CLI ``main`` call of the workload; its note is the
#: command kind.
CLI_ROOT = "cli.main"
#: Probe roots, for the layers a workload's own commands do not reach:
#: closed form then oracle per point, the oracle's grid-only pass, and one
#: verify suite.
ORACLE_ROOT = "bench.oracle"
GRID_ROOT = "bench.oracle_grid"
VERIFY_ROOT = "bench.verify"

#: Per-layer metrics and their units, in report order.
PER_LAYER = {
    "cli.self_us_per_pt": "us",
    "core.validate_point.calls_per_pt": "calls",
    "core.validate_point.self_us_per_pt": "us",
    "core.in_relaxation_ctilde.self_us_per_pt": "us",
    "regions.classify.self_us_per_pt": "us",
    "regions.classify.calls_per_separate": "calls",
    "regions.region_closure_contains.calls_per_pt": "calls",
    "regions.region_closure_contains.self_us_per_pt": "us",
    "hull.member_hull.self_us_per_pt": "us",
    "hull.piece_slacks.calls_per_pt": "calls",
    "hull.piece_slacks.self_us_per_pt": "us",
    "hull.rescue_attempt_frac": "ratio",
    "hull.rescue_yield": "ratio",
    "hull.oracle_fallbacks": "count",
    "separation.separate.self_us_per_pt": "us",
    "separation.separate.p50_us": "us",
    "separation.separate.p99_us": "us",
    "separation.q_gradient.self_us_per_pt": "us",
    "separation.q_value.calls_per_pt": "calls",
    "separation.cut_yield": "ratio",
    "oracle.oracle_member.ms_per_pt": "ms",
    "oracle.grid_ms_per_pt": "ms",
    "oracle.zoom_ms_per_pt": "ms",
    "oracle.agreement_frac": "ratio",
    "verify.partition.self_s": "s",
    "verify.hull.self_s": "s",
    "verify.cuts.self_s": "s",
    "trace.overhead_frac": "ratio",
}

#: Layers whose time is subtracted from a verify suite's wall time.
_DECIDING_LAYERS = ("regions", "hull", "separation")


class MissingLayerName(RuntimeError):
    """A traced function no longer exists where the tracer looks for it."""


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack = [-1]

    def _open(self, name: str, note=None) -> list:
        span = [name, self._stack[-1], time.perf_counter_ns(), 0, note]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def root(self, name: str, note=None):
        """Span around work the benchmark itself starts."""
        span = self._open(name, note)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        note_of = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[4] = "error"
                raise
            finally:
                self._close(span)
            if note_of is not None:
                span[4] = note_of(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced function for the duration of the block.

        Raises :class:`MissingLayerName` when a traced name is gone, so a
        renamed layer fails the traced run instead of reporting zero.
        """
        rebound = []
        try:
            for qual in TRACED:
                mod_name, attr = qual.split(".")
                module = importlib.import_module(f"pairhull.{mod_name}")
                fn = getattr(module, attr, None)
                if not callable(fn):
                    raise MissingLayerName(f"pairhull.{qual} no longer exists")
                wrapper = self._wrap(qual, fn)
                for mod in [m for n, m in list(sys.modules.items())
                            if n == "pairhull" or n.startswith("pairhull.")]:
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, key, wrapper)
                            rebound.append((vars(mod), key, fn))
                        elif isinstance(val, dict):  # tables such as verify.SUITES
                            for k, v in val.items():
                                if v is fn:
                                    val[k] = wrapper
                                    rebound.append((val, k, fn))
            yield self
        finally:
            for table, key, fn in reversed(rebound):
                table[key] = fn

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][2] if self.spans else 0
        with path.open("w") as out:
            for i, (name, parent, start, end, note) in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": name, "parent": parent,
                                      "start_ns": start - t0, "end_ns": end - t0,
                                      "note": note}) + "\n")


def _nearest_rank(sorted_vals: list[float], q: float) -> float:
    return sorted_vals[max(math.ceil(q * len(sorted_vals)) - 1, 0)] if sorted_vals else 0.0


def _mean(vals: list[float]) -> float:
    return sum(vals) / len(vals) if vals else 0.0


def layer_metrics(spans: list[list], items: int, overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    The workload's own calls are the spans under :data:`CLI_ROOT` roots;
    ``*_per_pt`` metrics divide their totals by the ``items`` (points or
    trials) of that pass, so the self times of all layers add up to the
    traced time per item.  The ``oracle`` and ``verify`` metrics also use
    the probe roots, which the other metrics ignore.
    """
    n = len(spans)
    name = [s[0] for s in spans]
    parent = [s[1] for s in spans]
    dur = [s[3] - s[2] for s in spans]
    note = [s[4] for s in spans]
    child = [0] * n
    root = list(range(n))
    under_sep = [False] * n
    under_deciding = [False] * n
    kids: dict[int, Counter] = defaultdict(Counter)
    member_child: dict[int, object] = {}
    agree = []
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        child[p] += dur[i]
        root[i] = root[p]
        under_sep[i] = under_sep[p] or name[p] == "separation.separate"
        under_deciding[i] = under_deciding[p] or name[p].split(".")[0] in _DECIDING_LAYERS
        kids[p][name[i]] += 1
        if name[i] == "hull.member_hull":
            member_child[p] = note[i]
        if name[i] == "oracle.oracle_member" and parent[p] < 0 and name[p] != GRID_ROOT:
            closed = member_child.get(p)
            agree.append(isinstance(closed, tuple) and closed[0] is note[i])
    self_ns = [d - c for d, c in zip(dur, child)]
    own = [i for i in range(n) if name[root[i]] == CLI_ROOT]

    calls: Counter = Counter(name[i] for i in own)
    self_sum: dict[str, int] = defaultdict(int)
    for i in own:
        self_sum[name[i]] += self_ns[i]
    per = max(items, 1)

    def self_us(nm: str) -> float:
        return self_sum[nm] / per / 1e3

    def spans_of(nm: str) -> list[int]:
        return [i for i in own if name[i] == nm]

    out: dict[str, float] = {}
    out["cli.self_us_per_pt"] = self_us(CLI_ROOT)
    out["core.validate_point.calls_per_pt"] = calls["core.validate_point"] / per
    out["core.validate_point.self_us_per_pt"] = self_us("core.validate_point")
    out["core.in_relaxation_ctilde.self_us_per_pt"] = self_us("core.in_relaxation_ctilde")
    out["regions.classify.self_us_per_pt"] = self_us("regions.classify")
    sep = spans_of("separation.separate")
    classify_in_sep = sum(1 for i in spans_of("regions.classify") if under_sep[i])
    out["regions.classify.calls_per_separate"] = classify_in_sep / len(sep) if sep else 0.0
    out["regions.region_closure_contains.calls_per_pt"] = (
        calls["regions.region_closure_contains"] / per)
    out["regions.region_closure_contains.self_us_per_pt"] = self_us(
        "regions.region_closure_contains")

    member = spans_of("hull.member_hull")
    attempts = [i for i in member
                if kids[i]["regions.region_closure_contains"]
                and not (isinstance(note[i], tuple) and note[i][1] == "NotCovered")]
    rescued = [i for i in attempts if isinstance(note[i], tuple) and note[i][0] is True]
    out["hull.member_hull.self_us_per_pt"] = self_us("hull.member_hull")
    out["hull.piece_slacks.calls_per_pt"] = calls["hull.piece_slacks"] / per
    out["hull.piece_slacks.self_us_per_pt"] = self_us("hull.piece_slacks")
    out["hull.rescue_attempt_frac"] = len(attempts) / len(member) if member else 0.0
    out["hull.rescue_yield"] = len(rescued) / len(attempts) if attempts else 0.0
    out["hull.oracle_fallbacks"] = float(sum(
        1 for i in spans_of("oracle.oracle_member") if name[parent[i]] == "hull.member_hull"))

    sep_us = sorted(dur[i] / 1e3 for i in sep)
    nonmember_queries = [i for i in sep
                         if isinstance(member_child.get(i), tuple) and member_child[i][0] is False]
    out["separation.separate.self_us_per_pt"] = self_us("separation.separate")
    out["separation.separate.p50_us"] = _nearest_rank(sep_us, 0.50)
    out["separation.separate.p99_us"] = _nearest_rank(sep_us, 0.99)
    out["separation.q_gradient.self_us_per_pt"] = self_us("separation.q_gradient")
    out["separation.q_value.calls_per_pt"] = calls["separation.q_value"] / per
    out["separation.cut_yield"] = (
        sum(1 for i in sep if note[i] == "cut") / len(nonmember_queries)
        if nonmember_queries else 0.0)

    oracle = [i for i in range(n) if name[i] == "oracle.oracle_member" and parent[i] >= 0]
    full = _mean([dur[i] / 1e6 for i in oracle
                  if parent[parent[i]] < 0 and name[parent[i]] != GRID_ROOT])
    grid = _mean([dur[i] / 1e6 for i in oracle if name[parent[i]] == GRID_ROOT])
    out["oracle.oracle_member.ms_per_pt"] = full
    out["oracle.grid_ms_per_pt"] = grid
    out["oracle.zoom_ms_per_pt"] = full - grid
    out["oracle.agreement_frac"] = sum(agree) / len(agree) if agree else 0.0

    for suite in ("partition", "hull", "cuts"):
        runs = [i for i in range(n) if name[i] == f"verify.run_{suite}_suite"]
        roots = {root[i] for i in runs}
        deciding = sum(dur[i] for i in range(n)
                       if root[i] in roots and not under_deciding[i]
                       and name[i].split(".")[0] in _DECIDING_LAYERS)
        out[f"verify.{suite}.self_s"] = (
            (sum(dur[i] for i in runs) - deciding) / len(runs) / 1e9 if runs else 0.0)

    out["trace.overhead_frac"] = overhead_frac
    assert list(out) == list(PER_LAYER)
    return out
