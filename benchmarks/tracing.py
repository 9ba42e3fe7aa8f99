"""Span tracing of the package's public functions from outside the package.

A sys.setprofile hook is keyed on the code objects of the functions listed
in SPANS and HOT, so calls through `from ... import` names are caught too.
Every SPANS call becomes a span (name, start, end, parent span, op id) with
its self time.  The HOT predicates run millions of times, so their calls are
folded into one record per (function, immediate traced caller, enclosing
span); that keeps their count and self time without a span each.  Spans stay
in memory until the benchmark (or the child runner) writes them out.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# group -> (module, attribute path) of the functions it times
SPANS = {
    "cli.main": [("bicliques.cli", "main")],
    "cli.io": [("bicliques.graphs", "read_graph"),
               ("bicliques.graphs", "write_graph"),
               ("bicliques.graphs", "write_dot"),
               ("bicliques.colouring", "read_colouring"),
               ("bicliques.colouring", "write_colouring"),
               ("bicliques.reduction", "read_dimacs"),
               ("bicliques.reduction", "write_instance")],
    "graphs.build": [("bicliques.powers", "power_path"),
                     ("bicliques.powers", "power_cycle"),
                     ("bicliques.powers", "circulant"),
                     ("bicliques.graphs", "Graph.from_edges")],
    "graphs.freeness": [("bicliques.graphs", "contains_k4"),
                        ("bicliques.graphs", "contains_induced_c4")],
    "powers.family": [("bicliques.powers", "path_bicliques"),
                      ("bicliques.powers", "cycle_bicliques"),
                      ("bicliques.powers", "path_stars"),
                      ("bicliques.powers", "cycle_stars")],
    "powers.p3_enum": [("bicliques.powers", "cycle_induced_p3s")],
    "colouring.construct": [("bicliques.colouring", "biclique_colour_path"),
                            ("bicliques.colouring", "biclique_colour_cycle"),
                            ("bicliques.colouring", "star_colour_path"),
                            ("bicliques.colouring", "star_colour_cycle"),
                            ("bicliques.colouring", "three_colour_no_mono_p3")],
    "oracle.verify": [("bicliques.oracle", "verify_colouring")],
    "oracle.scan": [("bicliques.oracle", "maximal_bicliques"),
                    ("bicliques.oracle", "maximal_stars")],
    "oracle.exact": [("bicliques.oracle", "exact_chromatic")],
    "reduction.normalize": [("bicliques.reduction", "normalize")],
    "reduction.build": [("bicliques.reduction", "build_instance")],
    "reduction.truth_table": [("bicliques.reduction",
                               "find_satisfying_assignment")],
    "reduction.containment": [("bicliques.reduction", "biclique_containment")],
    "reduction.certify": [("bicliques.reduction", "certify_reduction")],
}
HOT = {
    "graphs.cb_sides": [("bicliques.graphs", "cb_sides")],
    "graphs.is_maximal_cb": [("bicliques.graphs", "is_maximal_cb")],
    "graphs.star_pred": [("bicliques.graphs", "is_star_set"),
                         ("bicliques.graphs", "is_maximal_star")],
}
LAYERS = ("cli", "graphs", "powers", "colouring", "oracle", "reduction")


def _resolve(table):
    """code object -> (group, function name).  A listed function that can no
    longer be found raises LookupError naming it, so that a rename or a move
    makes the table be updated rather than read as zero calls."""
    out, missing = {}, []
    for group, entries in table.items():
        for module, path in entries:
            try:
                obj = importlib.import_module(module)
                for part in path.split("."):
                    obj = getattr(obj, part)
                code = obj.__code__
            except (ImportError, AttributeError):
                missing.append(f"{module}.{path}")
                continue
            out[code] = (group, path.rsplit(".", 1)[-1])
    if missing:
        raise LookupError("timed functions not found: " + ", ".join(missing))
    return out


class Tracer:
    """Collects spans and hot-call records while installed."""

    def __init__(self):
        self.spans = []      # [group, func, start, end, parent, op, self_s]
        self.hot = {}        # (group, func, caller group, parent span, op) -> [calls, self_s]
        self.counters = {"hyperedges": 0, "clauses_in": 0, "clauses_out": 0,
                         "subsets_scanned": 0, "scan_repeats": 0,
                         "vprime_subsets": 0, "hyperedges_checked": 0}
        self.op = -1
        self._span_codes = _resolve(SPANS)
        self._hot_codes = _resolve(HOT)
        self._stack = []     # [frame, group, func, start, child_s, span index or None]
        self._scanned = set()

    # -- installation ------------------------------------------------------

    def start(self, op: int) -> None:
        self.op = op
        sys.setprofile(self._hook)

    def stop(self) -> None:
        sys.setprofile(None)

    # -- the hook ----------------------------------------------------------

    def _hook(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            hot = self._hot_codes.get(code)
            if hot is not None:
                self._stack.append([frame, *hot, time.perf_counter(), 0.0, None])
                return
            span = self._span_codes.get(code)
            if span is not None:
                self._open(frame, span, time.perf_counter())
        elif event == "return" and self._stack and self._stack[-1][0] is frame:
            now = time.perf_counter()
            frame_, group, func, start, child_s, index = self._stack.pop()
            dur = now - start
            if self._stack:
                self._stack[-1][4] += dur
            if index is None:
                caller = self._stack[-1][1] if self._stack else None
                key = (group, func, caller, self._parent_span(), self.op)
                rec = self.hot.get(key)
                if rec is None:
                    self.hot[key] = [1, dur - child_s]
                else:
                    rec[0] += 1
                    rec[1] += dur - child_s
            else:
                span = self.spans[index]
                span[3] = now
                span[6] = dur - child_s
                self._count_return(group, func, frame_, arg)

    def _parent_span(self):
        for entry in reversed(self._stack):
            if entry[5] is not None:
                return entry[5]
        return None

    def _open(self, frame, span, now):
        group, func = span
        self.spans.append([group, func, now, now, self._parent_span(),
                           self.op, 0.0])
        self._stack.append([frame, group, func, now, 0.0, len(self.spans) - 1])
        args = frame.f_locals
        if group == "reduction.containment":
            self.counters["vprime_subsets"] += 1 << len(args["v_prime"])
        elif group == "reduction.normalize":
            self.counters["clauses_in"] += len(args["f"].clauses)

    def _count_return(self, group, func, frame, result):
        if result is None and group != "oracle.verify":
            return  # raised, or returned nothing to count
        if group == "powers.family":
            self.counters["hyperedges"] += len(result)
        elif group == "oracle.scan":  # counted on return: over the cap, a
            g = frame.f_locals["g"]   # scan raises before it starts
            self.counters["subsets_scanned"] += 1 << g.n  # computed, 2^n
            key = (func, g.n, g.adj)
            if key in self._scanned:
                self.counters["scan_repeats"] += 1
            self._scanned.add(key)
        elif group == "reduction.normalize":
            self.counters["clauses_out"] += len(result.clauses)
        elif group == "oracle.verify":
            sets = frame.f_locals.get("sets")
            if sets is not None:
                self.counters["hyperedges_checked"] += (
                    len(sets) if result is None else sets.index(result) + 1)

    # -- output --------------------------------------------------------------

    def to_dict(self) -> dict:
        return {"spans": self.spans,
                "hot": [[*key, *rec] for key, rec in self.hot.items()],
                "counters": self.counters}

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)


# ---------------------------------------------------------------------------
# per-layer metrics from collected traces

def layer_metrics(traces, ops) -> dict:
    """Per-layer metrics of one traced pass.

    traces: Tracer.to_dict() outputs (one per CLI child, or one in-process).
    ops: one dict per op with "op" (id), "latency" (s) and, for CLI ops,
    "spawn" (the perf_counter reading just before the child was spawned).
    """
    spans, hot, counters = [], [], {}
    for tr in traces:
        base = len(spans)
        for s in tr["spans"]:
            spans.append([*s[:4], None if s[4] is None else s[4] + base, *s[5:]])
        for h in tr["hot"]:
            hot.append([*h[:3], None if h[3] is None else h[3] + base, *h[4:]])
        for name, value in tr["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def total(group, field=6):
        return sum(s[field] for s in spans if s[0] == group)

    def calls(group):
        return sum(1 for s in spans if s[0] == group)

    def hot_total(group, idx):
        return sum(h[idx] for h in hot if h[0] == group)

    spawn = {o["op"]: o["spawn"] for o in ops if o.get("spawn") is not None}
    startup = {}
    for s in spans:
        if s[0] == "cli.main" and s[5] in spawn and s[5] not in startup:
            startup[s[5]] = s[2] - spawn[s[5]]

    candidates = sum(h[5] for h in hot if h[2] == "powers.family"
                     and h[1] in ("cb_sides", "is_star_set"))
    hyperedges = counters.get("hyperedges", 0)
    colour_results = sum(
        1 for s in spans if s[0] == "colouring.construct"
        and (s[4] is None or spans[s[4]][0] != "colouring.construct"))
    m = {
        "cli.startup_s": (sum(startup.values()), "s"),
        "cli.self_s": (total("cli.main"), "s"),
        "cli.io_s": (total("cli.io"), "s"),
        "graphs.graph_builds": (calls("graphs.build"), "count"),
        "graphs.graph_build_s": (total("graphs.build"), "s"),
        "graphs.cb_sides_calls": (hot_total("graphs.cb_sides", 5), "count"),
        "graphs.cb_sides_s": (hot_total("graphs.cb_sides", 6), "s"),
        "graphs.is_maximal_cb_calls": (hot_total("graphs.is_maximal_cb", 5),
                                       "count"),
        "graphs.is_maximal_cb_s": (hot_total("graphs.is_maximal_cb", 6), "s"),
        "graphs.star_pred_calls": (hot_total("graphs.star_pred", 5), "count"),
        "graphs.star_pred_s": (hot_total("graphs.star_pred", 6), "s"),
        "graphs.freeness_s": (total("graphs.freeness"), "s"),
        "powers.family_builds": (calls("powers.family"), "count"),
        "powers.family_s": (sum(s[3] - s[2] for s in spans
                                if s[0] == "powers.family"), "s"),
        "powers.candidate_gen_s": (total("powers.family"), "s"),
        "powers.candidates": (candidates, "count"),
        "powers.hyperedges": (hyperedges, "count"),
        "powers.yield": (hyperedges / candidates if candidates else 0.0,
                         "ratio"),
        "powers.p3_enum_calls": (calls("powers.p3_enum"), "count"),
        "powers.p3_enum_s": (total("powers.p3_enum"), "s"),
        "colouring.results": (colour_results, "count"),
        "colouring.construct_s": (total("colouring.construct"), "s"),
        "oracle.verify_calls": (calls("oracle.verify"), "count"),
        "oracle.verify_s": (total("oracle.verify"), "s"),
        "oracle.hyperedges_checked": (counters.get("hyperedges_checked", 0),
                                      "count"),
        "oracle.scan_calls": (calls("oracle.scan"), "count"),
        "oracle.scan_s": (total("oracle.scan"), "s"),
        "oracle.subsets_scanned": (counters.get("subsets_scanned", 0),
                                   "count-computed"),
        "oracle.scan_repeats": (counters.get("scan_repeats", 0), "count"),
        "oracle.exact_calls": (calls("oracle.exact"), "count"),
        "oracle.exact_s": (total("oracle.exact"), "s"),
        "reduction.normalize_s": (total("reduction.normalize"), "s"),
        "reduction.clause_growth": (
            counters["clauses_out"] / counters["clauses_in"]
            if counters.get("clauses_in") else 0.0, "ratio"),
        "reduction.build_s": (total("reduction.build"), "s"),
        "reduction.truth_table_s": (total("reduction.truth_table"), "s"),
        "reduction.containment_s": (total("reduction.containment"), "s"),
        "reduction.vprime_subsets": (counters.get("vprime_subsets", 0),
                                     "count-computed"),
    }

    # each layer's share of the median op: self times of the ops whose
    # latency lies between the 40th and 60th percentiles, over their latency
    per_op = {o["op"]: dict.fromkeys(LAYERS, 0.0) for o in ops}
    for s in spans:
        if s[5] in per_op:
            per_op[s[5]][s[0].split(".")[0]] += s[6]
    for h in hot:
        if h[4] in per_op:
            per_op[h[4]][h[0].split(".")[0]] += h[6]
    for op_id, t in startup.items():
        per_op[op_id]["cli"] += t
    lat = sorted(ops, key=lambda o: o["latency"])
    lo, hi = int(0.4 * (len(lat) - 1)), -(-6 * (len(lat) - 1) // 10)
    band = lat[lo:hi + 1]
    band_lat = sum(o["latency"] for o in band)
    attributed = 0.0
    for layer in LAYERS:
        share = sum(per_op[o["op"]][layer] for o in band) / band_lat
        attributed += share
        m[f"{layer}.share_p50"] = (share, "ratio")
    m["unattributed.share_p50"] = (1.0 - attributed, "ratio")
    return m
