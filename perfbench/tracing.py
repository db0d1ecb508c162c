"""Spans around the library's public functions, installed from outside.

A `Tracer` replaces each wrapped function on every module of the
package that binds it (``lattices.short_vectors`` is also bound as
``ns.short_vectors`` and ``report.short_vectors``), records one span per
call, and puts every original back on `uninstall`. Methods are wrapped
on their class. Spans live in memory; `Tracer.dump` writes them once.

A span records its layer, start, end, parent span, whether the call
raised (the exception still propagates), and the work counts read off
its result. A layer's self time is the sum over its spans of the span's
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time

PACKAGE = "conics800"

# (module, attribute, method or None); short_vectors is split in two
# layers by its arguments.
TARGETS = (
    ("golay", "build_golay", None),
    ("golay", "normalize_frame", None),
    ("golay", "steiner_cover_counts", None),
    ("leech", "census", None),
    ("leech", "all_minimal_vectors", None),
    ("leech", "extract_basis", None),
    ("census", "find_conics", None),
    ("census", "classify_all", None),
    ("census", "recount_by_codewords", None),
    ("census", "intersection_data", None),
    ("census", "disjointness_masks", None),
    ("census", "count_disjoint_16", None),
    ("lattices", "short_vectors", None),
    ("lattices", "discriminant_form", None),
    ("lattices", "fqf_isomorphic", None),
    ("lattices", "orthogonal_complement", None),
    ("lattices", "IntegralLattice", "__init__"),
    ("exact", "hnf", None),
    ("exact", "det_bareiss", None),
    ("exact", "LeftSolver", "solve"),
    ("exact", "snf", None),
    ("exact", "signature", None),
    ("ns", "build_S", None),
    ("ns", "build_N", None),
    ("ns", "check_glue_independence", None),
    ("ns", "verify_discriminants", None),
    ("ns", "scan_N", None),
    ("ns", "bad_vector_scan", None),
    ("report", "stage_golay", None),
    ("report", "stage_leech", None),
    ("report", "stage_conics", None),
    ("report", "stage_ns", None),
    ("report", "stage_heavy", None),
)


def _layer_name(module: str, attr: str, method: str | None) -> str:
    """A constructor is named after its class, a method after both."""
    if method is None or method == "__init__":
        return f"{module}.{attr}"
    return f"{module}.{attr}.{method}"


HEAVY = "lattices.short_vectors.heavy4"
SMALL = "lattices.short_vectors.small"

LAYERS = tuple(
    n
    for module, attr, method in TARGETS
    for n in (
        (HEAVY, SMALL)
        if attr == "short_vectors"
        else (_layer_name(module, attr, method),)
    )
)

# Layers whose peak-RSS growth across the call is recorded (MB).
RSS_LAYERS = ("leech.census", HEAVY)


def _short_vectors_layer(args, kwargs) -> str:
    """The norm-4 enumeration over the 24-dimensional Leech Gram is the
    heavy tree; every other call is a small one."""
    gram = args[0] if args else kwargs["gram"]
    norm = args[1] if len(args) > 1 else kwargs["norm_target"]
    return HEAVY if len(gram) == 24 and norm == 4 else SMALL


def _counters(layer: str, result) -> dict:
    """Work counts read off a layer's return value."""
    if layer == "leech.census":
        return {"vectors": len(result[0])}
    if layer in (HEAVY, SMALL):
        return {"found": len(result)}
    if layer == "census.count_disjoint_16":
        count, exhausted = result
        return {"cliques": count, "exhausted": int(bool(exhausted))}
    return {}


def peak_rss_mb() -> float:
    """This process's peak resident memory so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        # One span per call: [layer, start, end, parent index, raised, counters].
        self.spans: list[list] = []
        self.enabled = True
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every target on each package module that binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        homes = {mod.__name__: mod for mod in modules}
        for module, attr, method in TARGETS:
            original = getattr(homes[f"{PACKAGE}.{module}"], attr)
            if method is not None:
                fn = original.__dict__[method]
                layer = _layer_name(module, attr, method)
                self._patch(original, method, fn, self._wrap(fn, lambda a, k, n=layer: n))
                continue
            if attr == "short_vectors":
                pick = _short_vectors_layer
            else:
                pick = lambda a, k, n=f"{module}.{attr}": n  # noqa: E731
            wrapper = self._wrap(original, pick)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put back every original binding, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, fn, pick):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            layer = pick(args, kwargs)
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, False, None]
            stack.append(len(spans))
            spans.append(span)
            rss0 = peak_rss_mb() if layer in RSS_LAYERS else None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            counters = _counters(layer, result)
            if rss0 is not None:
                counters["rss_mb"] = peak_rss_mb() - rss0
            span[5] = counters or None
            return result

        return wrapper

    def aggregate(self) -> dict:
        """Per layer: self seconds, calls, exceptions and summed counters
        over the spans recorded so far."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        for i, (layer, t0, t1, _, raised, counters) in enumerate(spans):
            agg = out.setdefault(layer, {"s": 0.0, "calls": 0, "exceptions": 0})
            agg["s"] += (t1 - t0) - child[i]
            agg["calls"] += 1
            agg["exceptions"] += int(raised)
            for key, value in (counters or {}).items():
                agg[key] = agg.get(key, 0) + value
        return out

    def dump(self, path, extra: dict) -> None:
        """Write the run record and every span, once."""
        doc = dict(extra)
        doc["spans"] = [
            {"name": n, "start": t0, "end": t1, "parent": p, "raised": r, "counters": c}
            for n, t0, t1, p, r, c in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
