"""Which obsched names the traced pass wraps, and the per-layer metrics.

The layers are the package's modules.  Spans go around the public entry
points of each; the per-step functions are leaves (see ``tracer``).  Every
name is wrapped in each module that looks it up.
"""

from __future__ import annotations

import importlib

from tracer import Tracer, call_counts, self_times


def _index_table(t: Tracer, table, args) -> None:
    t.count("index.points", len(table.records))
    t.count("index.knife_edge", sum(rec.knife_edge for rec in table.records))


def _threshold_word(t: Tracer, tw, args) -> None:
    t.count("dynamics.threshold_word.certified", tw.periodic)


def _value_iteration(t: Tracer, sol, args) -> None:
    t.count("oracle.value_iteration.sweeps", sol.iterations)


def _simulate(t: Tracer, trace, args) -> None:
    t.count("bandit.arm_steps", trace.actions.size)


def _eval(t: Tracer, args) -> None:
    v = args[1]
    t.count("costs.eval.elements", getattr(v, "size", 1))


def _lookup(t: Tracer, args) -> None:
    tables, arm, v = args
    grid = tables.grids[arm]
    t.count("bandit.lookup.off_grid", not grid[0] <= v <= grid[-1])


# (layer name, [(module, attribute), ...], on_return(tracer, result, args))
SPANS = [
    ("cli.main", [("cli", "main")], None),
    ("index.index_table", [("cli", "index_table")], _index_table),
    ("index.whittle_index",
     [("index", "whittle_index"), ("lqg", "whittle_index"), ("oracle", "whittle_index")],
     None),
    ("index.index_beta1", [("cli", "index_beta1")], None),
    ("dynamics.threshold_word", [("index", "threshold_word"), ("cli", "threshold_word")],
     _threshold_word),
    ("oracle.value_iteration", [("oracle", "value_iteration")], _value_iteration),
    ("oracle.pcli_report", [("oracle", "pcli_report")], None),
    ("oracle.cross_validate", [("oracle", "cross_validate")], None),
    ("bandit.build_index_tables", [("bandit", "build_index_tables")], None),
    ("bandit.simulate", [("bandit", "simulate")], _simulate),
    ("lqg.solve_lqg", [("lqg", "solve_lqg")], None),
]

# (layer name, [(module, attribute) or (module, class, attribute), ...], on_call)
LEAVES = [
    ("costs.eval", [("costs", "CostFn", "eval")], _eval),
    ("dynamics.phi",
     [("dynamics", "phi"), ("dynamics", "phi0"), ("dynamics", "phi1"),
      ("index", "phi"), ("bandit", "phi"), ("bandit", "phi0"),
      ("oracle", "phi0"), ("oracle", "phi1")],
     None),
    ("words",
     [("dynamics", "is_balanced"), ("dynamics", "is_christoffel"), ("index", "is_balanced")],
     None),
    ("bandit.lookup", [("bandit", "IndexTables", "lookup")], _lookup),
]


def _owner(path: tuple[str, ...]) -> tuple[object, str]:
    owner = importlib.import_module(f"obsched.{path[0]}")
    for name in path[1:-1]:
        owner = getattr(owner, name)
    return owner, path[-1]


def install(tracer: Tracer) -> None:
    """Wrap every listed name; tracer.close() restores them."""
    for name, paths, on_return in SPANS:
        for path in paths:
            tracer.patch(*_owner(path), lambda fn, n=name, cb=on_return: tracer.span(n, fn, cb))
    for name, paths, on_call in LEAVES:
        for path in paths:
            tracer.patch(*_owner(path), lambda fn, n=name, cb=on_call: tracer.leaf(n, fn, cb))


def patched_names() -> list[tuple[object, str]]:
    """(owner, attribute) of every name install() wraps."""
    return [_owner(path) for _, paths, _ in SPANS + LEAVES for path in paths]


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, named as in BENCHMARK.json."""
    spans = tracer.spans
    self_s = self_times(spans)
    calls = call_counts(spans)
    c = tracer.counters
    solve_ids = {s.id for s in spans if s.name == "lqg.solve_lqg"}
    probes = sum(1 for s in spans if s.name == "index.whittle_index" and s.parent in solve_ids)
    out = {
        "costs.eval.calls": calls.get("costs.eval", 0),
        "costs.eval.elements": c["costs.eval.elements"],
        "dynamics.phi.calls": calls.get("dynamics.phi", 0),
        "dynamics.threshold_word.calls": calls.get("dynamics.threshold_word", 0),
        "dynamics.threshold_word.certified_share": _share(
            c["dynamics.threshold_word.certified"], calls.get("dynamics.threshold_word", 0)),
        "words.calls": calls.get("words", 0),
        "index.index_table.calls": calls.get("index.index_table", 0),
        "index.whittle_index.calls": calls.get("index.whittle_index", 0),
        "index.knife_edge.share": _share(c["index.knife_edge"], c["index.points"]),
        "oracle.value_iteration.calls": calls.get("oracle.value_iteration", 0),
        "oracle.value_iteration.sweeps": c["oracle.value_iteration.sweeps"],
        "bandit.arm_steps": c["bandit.arm_steps"],
        "bandit.lookup.calls": calls.get("bandit.lookup", 0),
        "bandit.lookup.off_grid_share": _share(
            c["bandit.lookup.off_grid"], calls.get("bandit.lookup", 0)),
        "lqg.index_probes_per_solve": _share(probes, len(solve_ids)),
        "trace.overhead": traced_s / untraced_s,
    }
    for name in ("costs.eval", "index.index_table", "index.whittle_index",
                 "index.index_beta1", "dynamics.phi", "dynamics.threshold_word",
                 "words", "oracle.value_iteration", "oracle.pcli_report",
                 "oracle.cross_validate", "bandit.build_index_tables",
                 "bandit.simulate", "bandit.lookup", "lqg.solve_lqg", "cli.main"):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    return out
