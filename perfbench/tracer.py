"""Per-layer spans recorded from outside the program.

`Tracer.install()` replaces the public functions of each package module (and
every name another module imported from it, plus `PartialFactor.build`) with
wrappers that record one span per call; `uninstall()` puts the originals
back.  Nothing under `src/` changes.  Spans stay in memory as lists:

    [layer, name, start, end, parent index, cell id, note]

`note` is "raised" when the call raised, else what the call returned that a
metric needs: a block strategy, a rejection, a host or byte size.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYER, NAME, START, END, PARENT, CELL, NOTE = range(7)
LAYERS = ("arcs", "blocks", "compose", "search", "graphs", "verify", "serialize", "cli")

# Too fine-grained to wrap (called per edge or per cycle); their time is
# self time of the caller.
_SKIP = {"graphs": {"edge_key", "tensor_adjacent", "cycle_edges", "canonical_cycle"}}
# Host construction lives partly in blocks; it is counted as graphs work.
_HOST_BUILDERS = {("graphs", "tensor_complete"), ("graphs", "multipartite_complete"),
                  ("graphs", "complete_graph"), ("blocks", "bipartite_host"),
                  ("blocks", "cycle_times_complete_host"), ("blocks", "cycle_lex_host")}


def _note_for(layer: str, name: str):
    if (layer, name) in _HOST_BUILDERS:
        return lambda result: len(result.edges)
    if (layer, name) == ("verify", "verify_arcs"):
        return lambda result: "ok" if result else "rejected"
    if (layer, name) == ("serialize", "canonical_json_bytes"):
        return len
    if layer == "blocks":
        return lambda result: getattr(result, "strategy", None)
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.cell: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = _note_for(layer, name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [layer, name, clock(), 0.0, stack[-1] if stack else -1, tracer.cell, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[NOTE] = "raised"
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if note is not None:
                rec[NOTE] = note(result)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = importlib.import_module("cycleframe")
        modules = [package] + [importlib.import_module(f"cycleframe.{m}") for m in LAYERS]
        wrapped = {}
        for mod in modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or name in _SKIP.get(layer, ())):
                    continue
                span_layer = "graphs" if (layer, name) in _HOST_BUILDERS else layer
                wrapped[obj] = self._wrap(span_layer, name, obj)
        # Rebind every module-level name that refers to a wrapped function,
        # so `from .verify import check_partition` style imports are seen.
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, name, wrapped[obj])
        table = importlib.import_module("cycleframe.arcs")._BUILDERS_L2
        for key, fn in list(table.items()):
            if fn in wrapped:
                self._restore.append((table, key, fn))
                table[key] = wrapped[fn]
        graphs = importlib.import_module("cycleframe.graphs")
        build = graphs.PartialFactor.__dict__["build"].__func__
        self._set(graphs.PartialFactor, "build",
                  staticmethod(self._wrap("graphs", "PartialFactor.build", build)))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _outermost(spans: list[list], match) -> list[int]:
    """Indices of matching spans with no matching ancestor (parents precede children)."""
    inside = [False] * len(spans)
    out = []
    for i, s in enumerate(spans):
        parent_inside = inside[s[PARENT]] if s[PARENT] >= 0 else False
        hit = match(s)
        inside[i] = parent_inside or hit
        if hit and not parent_inside:
            out.append(i)
    return out


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Per-layer metrics over `passes` passes of a workload, reported per pass."""
    st = self_times(spans)
    per = 1.0 / max(passes, 1)

    def incl_ms(match) -> float:
        return sum(spans[i][END] - spans[i][START] for i in _outermost(spans, match)) * 1e3

    def count(match) -> int:
        return sum(1 for s in spans if match(s))

    def named(layer, *names):
        return lambda s: s[LAYER] == layer and s[NAME] in names

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = sum(t for t, s in zip(st, spans) if s[LAYER] == layer) * 1e3

    verify_arcs = named("verify", "verify_arcs")
    m["verify.arcs_ms"] = incl_ms(verify_arcs)
    m["verify.arcs_calls"] = count(verify_arcs)
    m["verify.rejected"] = count(lambda s: verify_arcs(s) and s[NOTE] == "rejected")
    m["verify.partition_ms"] = incl_ms(named("verify", "check_partition"))

    canon = named("graphs", "PartialFactor.build")
    m["graphs.canon_ms"] = incl_ms(canon)
    m["graphs.canon_calls"] = count(canon)
    hosts = named("graphs", *(name for _, name in _HOST_BUILDERS))
    m["graphs.host_ms"] = incl_ms(hosts)
    m["graphs.host_edges"] = sum(s[NOTE] for s in spans if hosts(s) and isinstance(s[NOTE], int))

    search_calls = [s for s in spans if s[LAYER] == "search"]
    failed = sum(1 for s in search_calls if s[NOTE] == "raised")
    m["search.calls"] = len(search_calls)
    m["search.failed"] = failed
    m["search.success_ratio"] = (len(search_calls) - failed) / len(search_calls) if search_calls else 0.0

    providers = [spans[i] for i in _outermost(spans, lambda s: s[LAYER] == "blocks")]
    strategies = [s[NOTE] for s in providers]
    m["blocks.calls"] = len(providers)
    m["blocks.explicit"] = strategies.count("explicit")
    m["blocks.cached"] = strategies.count("cached")
    m["blocks.searched"] = strategies.count("search")
    lookups = m["blocks.cached"] + m["blocks.searched"]
    m["blocks.cache_hit_ratio"] = m["blocks.cached"] / lookups if lookups else 0.0

    m["compose.calls"] = len(_outermost(spans, lambda s: s[LAYER] == "compose"))

    feas = named("arcs", "check_feasibility")
    m["arcs.feasibility_ms"] = incl_ms(feas)
    m["arcs.feasibility_calls"] = count(feas)
    m["arcs.assembly_self_ms"] = sum(t for t, s in zip(st, spans)
                                     if s[LAYER] == "arcs" and not feas(s)) * 1e3

    m["serialize.encode_ms"] = incl_ms(named("serialize", "decomposition_to_obj",
                                             "canonical_json_bytes"))
    m["serialize.bytes_out"] = sum(s[NOTE] for s in spans
                                   if s[NAME] == "canonical_json_bytes" and isinstance(s[NOTE], int))
    m["serialize.decode_ms"] = incl_ms(named("serialize", "decomposition_from_obj"))

    ratios = {"search.success_ratio", "blocks.cache_hit_ratio"}
    return {k: (v if k in ratios else v * per) for k, v in m.items()}
