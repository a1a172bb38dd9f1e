"""Outside-in tracing: timing wrappers around each layer's public functions.

The package imports functions by name (``from .parser import parse_text``),
so ``install`` rebinds every attribute of every loaded ``conspec`` module that
refers to a wrapped function object. Wrappers record only while an op is open;
checks and set-up outside ops pass straight through. Spans are kept in memory
as parallel arrays and written out once, when the run ends. Self time is a
span's duration minus the durations of its wrapped children.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter_ns

# cli is argparse glue and errors does no work, so neither is wrapped.
LAYER_FUNCTIONS = (
    "treeline.parse_document",
    "treeline.parse_network",
    "treeline.print_network",
    "network.canonicalize",
    "network.canonical_key",
    "network.resolve_anchors",
    "network.equal",
    "lexicon.ancestors",
    "lexicon.is_a",
    "similarity.concept_sim",
    "similarity.align_networks",
    "similarity.network_sim",
    "rules.build_rule",
    "rules.match_rules",
    "rules.realize_parts",
    "rules.instantiate_reverse",
    "rules.transfer_scored",
    "parser.segment",
    "parser.build_vocabulary",
    "parser.parse_text",
    "realizer.realize",
    "realizer.join_affixes",
    "transfer.translate",
    "transfer.load_pair_text",
    "model.load_model_text",
)

# Useful-work ratios: function -> (metric suffix, unit, better, value of one result).
RESULT_RATIOS = {
    "similarity.align_networks": ("hit_ratio", "1", "higher", lambda r: r is not None),
    "rules.instantiate_reverse": ("hit_ratio", "1", "higher", lambda r: r is not None),
    "rules.match_rules": ("matches_per_call", "count", "higher", len),
    "parser.segment": ("segmentations_per_call", "count", "lower", len),
}

OP = len(LAYER_FUNCTIONS)  # name index of the synthetic per-op root span


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for name in LAYER_FUNCTIONS:
        specs.append((f"{name}.calls_per_op", "count", "lower"))
        specs.append((f"{name}.self_ms_per_op", "ms", "lower"))
    for name, (suffix, unit, better, _) in RESULT_RATIOS.items():
        specs.append((f"{name}.{suffix}", unit, better))
    return specs


class Tracer:
    def __init__(self):
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[list[int]] = []  # [span index, ns covered by children]
        self.op_id = -1
        self.calls = [0] * len(LAYER_FUNCTIONS)
        self.self_ns = [0] * len(LAYER_FUNCTIONS)
        self.result_sum = [0] * len(LAYER_FUNCTIONS)

    def span_count(self) -> int:
        return len(self.start)

    def _enter(self, fid: int) -> int:
        idx = len(self.start)
        self.name.append(fid)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self.stack.append([idx, 0])
        self.start.append(perf_counter_ns())
        return idx

    def _exit(self) -> int:
        t = perf_counter_ns()
        idx, children = self.stack.pop()
        self.end[idx] = t
        duration = t - self.start[idx]
        if self.stack:
            self.stack[-1][1] += duration
        return duration - children

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._enter(OP)

    def end_op(self) -> None:
        self._exit()
        self.op_id = -1

    def wrap(self, fid: int, fn):
        ratio = RESULT_RATIOS.get(LAYER_FUNCTIONS[fid])
        measure = ratio[3] if ratio else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op_id < 0:
                return fn(*args, **kwargs)
            self._enter(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.self_ns[fid] += self._exit()
                self.calls[fid] += 1
            if measure is not None:
                self.result_sum[fid] += measure(result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "conspec" or n.startswith("conspec.")]
        for fid, qualname in enumerate(LAYER_FUNCTIONS):
            module, attr = qualname.split(".")
            fn = getattr(sys.modules[f"conspec.{module}"], attr)
            wrapper = self.wrap(fid, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    def metrics(self, ops: int) -> dict[str, float]:
        out = {}
        for fid, name in enumerate(LAYER_FUNCTIONS):
            out[f"{name}.calls_per_op"] = self.calls[fid] / ops
            out[f"{name}.self_ms_per_op"] = self.self_ns[fid] / 1e6 / ops
        for name, (suffix, _, _, _) in RESULT_RATIOS.items():
            fid = LAYER_FUNCTIONS.index(name)
            calls = self.calls[fid]
            out[f"{name}.{suffix}"] = self.result_sum[fid] / calls if calls else 0.0
        return out

    def write(self, path) -> int:
        """Write every span as gzip'd TSV; returns the span count."""
        names = list(LAYER_FUNCTIONS) + ["op"]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("span\tname\tstart_ns\tend_ns\tparent\top\n")
            for i in range(len(self.start)):
                f.write(f"{i}\t{names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\t{self.parent[i]}\t{self.op[i]}\n")
        return self.span_count()
