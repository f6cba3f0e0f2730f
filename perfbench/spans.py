"""Layer spans recorded from outside the program.

``install`` rebinds the public functions of the ``levislice`` layers, in every
module that imported them, to wrappers that record one span per call: name,
parent span, start, end and a few counters taken from the arguments or the
returned value.  Nothing under ``src/`` changes; spans stay in memory until
``dump`` writes them as JSON lines.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

# span name -> function(args, kwargs, result) giving that span's counters
_COUNTERS = {}


def _counter(name):
    def register(fn):
        _COUNTERS[name] = fn
        return fn
    return register


@_counter("funcspace.parse_invariant")
def _parse_counts(args, kwargs, result):
    return {"symmetrized": int(bool(getattr(result, "symmetrized", False)))}


@_counter("levi.assemble")
def _flag_counts(args, kwargs, result):
    counts = {"a": 0, "m_equal": 0, "m_origin": 0, "s": 0}
    for flag in getattr(result, "flags", ()):
        if flag.startswith("limit:a"):
            counts["a"] += 1
        elif flag.startswith("limit:s"):
            counts["s"] += 1
        elif flag.endswith(":equal"):
            counts["m_equal"] += 1
        elif flag.endswith(":origin"):
            counts["m_origin"] += 1
    return counts


@_counter("pshcheck.chamber_grid")
def _grid_counts(args, kwargs, result):
    shadow = args[0] if args else kwargs["shadow"]
    grid_n = args[1] if len(args) > 1 else kwargs["grid_n"]
    return {"points": len(result), "cells": len(shadow.boxes) * grid_n ** shadow.rank}


@_counter("pshcheck.check_invariant_psh")
def _path_counts(args, kwargs, result):
    stein = bool(getattr(result, "stein_shadow", False))
    return {"stein_transfer": int(stein), "direct_all_blocks": int(not stein)}


@_counter("reinhardt.shadow")
def _shadow_counts(args, kwargs, result):
    return {"cells": len(getattr(args[0], "covered", ()))}


@_counter("reinhardt.envelope")
def _envelope_counts(args, kwargs, result):
    return {"out_boxes": len(result.boxes)}


@_counter("reinhardt.is_log_convex.compute")
def _raster_counts(args, kwargs, result):
    grid_n = args[1] if len(args) > 1 else kwargs["grid_n"]
    log_clip = sys.modules["levislice.reinhardt"].LOG_CLIP
    return {"raster_bytes": raster_bytes(args[0], grid_n, log_clip)}


def raster_bytes(shadow, grid_n: int, log_clip: float) -> int:
    """Bytes of the log-convexity raster, computed rather than measured.

    grid_n^r one-byte cells over [log_clip, 0]^r, plus the int64 ``argwhere``
    array of the cells whose centre lies in the shadow's log image.
    """
    delta = -log_clip / grid_n
    centres = 0
    for lo, hi in shadow.boxes:
        count = 1
        for low, high in zip(lo, hi):
            slo = log_clip if low <= math.exp(log_clip) else max(log_clip, math.log(low))
            shi = min(0.0, math.log(high))
            k0 = max(0, math.ceil((slo - log_clip) / delta - 0.5))
            k1 = min(grid_n, math.ceil((shi - log_clip) / delta - 0.5))
            count *= max(0, k1 - k0)
        centres += count
    return grid_n ** shadow.rank + 8 * shadow.rank * centres


# Layer functions wrapped, as (module, attribute, span name).  The private
# ``_log_convexity`` is wrapped only to tell a computed log-convexity test
# from a cached one; a name the program no longer has is skipped.
TARGETS = [
    ("cli", "load_config", "cli.load_config"),
    ("funcspace", "parse_invariant", "funcspace.parse_invariant"),
    ("funcspace", "to_slice", "funcspace.to_slice"),
    ("levi", "assemble", "levi.assemble"),
    ("model", "weyl_reduce", "model.weyl_reduce"),
    ("linalg", "min_eig", "linalg.min_eig"),
    ("pshcheck", "chamber_grid", "pshcheck.chamber_grid"),
    ("pshcheck", "check_invariant_psh", "pshcheck.check_invariant_psh"),
    ("reinhardt", "classify_domain", "reinhardt.classify_domain"),
    ("reinhardt", "is_log_convex", "reinhardt.is_log_convex"),
    ("reinhardt", "_log_convexity", "reinhardt.is_log_convex.compute"),
    ("reinhardt", "is_complete", "reinhardt.is_complete"),
    ("reinhardt", "is_connected", "reinhardt.is_connected"),
    ("reinhardt", "envelope", "reinhardt.envelope"),
    ("potential", "potential_value", "potential.potential_value"),
    ("potential", "moment_coefficient", "potential.moment_coefficient"),
    ("potential", "bergman_identify", "potential.bergman_identify"),
]


class Tracer:
    def __init__(self):
        self.spans = []  # [job, parent index, name, start, end, counters]
        self.stack = []
        self.job = -1

    def wrap(self, name, fn):
        counters = _COUNTERS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.job, stack[-1] if stack else -1, name, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if counters is not None:
                span[5] = counters(args, kwargs, result)
            return result

        return traced

    def reset(self):
        del self.spans[:]

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (job, parent, name, start, end, counters) in enumerate(self.spans):
                record = {"id": i, "job": job, "parent": parent, "name": name,
                          "start": start, "end": end}
                if counters:
                    record["counters"] = counters
                fh.write(json.dumps(record) + "\n")


def install(tracer: Tracer):
    """Rebind every target, in every loaded ``levislice`` module that holds it.

    Returns the traced ``cli.main``, which the worker calls as the root span
    of each job.  Command handlers are reached through the CLI's dispatch
    table, so its entries are rebound as well.
    """
    import levislice.cli as cli

    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "levislice" or n.startswith("levislice."))]
    for mod_name, attr, span_name in TARGETS:
        mod = sys.modules.get(f"levislice.{mod_name}")
        fn = getattr(mod, attr, None)
        if fn is None:
            continue
        wrapped = tracer.wrap(span_name, fn)
        for holder in modules:
            for key, value in list(vars(holder).items()):
                if value is fn:
                    setattr(holder, key, wrapped)

    shadow_cls = sys.modules["levislice.reinhardt"].ReinhardtShadow
    shadow_cls.__init__ = tracer.wrap("reinhardt.shadow", shadow_cls.__init__)

    dispatch = getattr(cli, "_DISPATCH", None)
    if isinstance(dispatch, dict):
        for command, handler in list(dispatch.items()):
            dispatch[command] = tracer.wrap("cli.handler", handler)
    return tracer.wrap("cli.main", cli.main)
