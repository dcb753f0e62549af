"""Per-layer spans and counters, recorded by wrapping singscan's functions.

The program is not changed: ``Tracer.install`` replaces each traced function
with a timing wrapper in every ``singscan`` module that holds a reference to
it (``from .geometry import local_pca`` binds the name in ``uniformity`` too),
and on the class for a method.  ``Tracer.restore`` puts the originals back.

A span name's inclusive time and call count cover only its outermost spans,
so a name that nests in itself (``io.write`` inside ``io.write``) is not
counted twice.  A layer's self time is the sum over its spans of their
duration minus the time their child spans cover.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

LAYERS = (
    "geometry", "kernels", "nulls", "uniformity", "scoring",
    "tuning", "mh", "io", "cli", "synth",
)


# Counter hooks: (tracer, call args, result) -> None, run after each
# outermost call of their function.
def _hood(rule: str):
    def hook(tracer, args, result):
        tracer.neighborhoods.add((rule, args[2], int(args[1])))
        tracer.counts["hood_queries"] += 1
        tracer.counts["k_total"] += len(result.member_indices)

    return hook


def _knn_members(tracer, args, result):
    tracer.counts["k_total"] += len(result[0])


def _mmd(tracer, args, result):
    tracer.counts["gram_entries"] += len(args[0]) ** 2


def _scores(tracer, args, result):
    tracer.counts["points_returned"] += len(result)


def _grid(tracer, args, result):
    tracer.counts["configs"] += len(result.report)


# (module, attribute, span name, hook).  ``nulls._read_table`` and
# ``tuning._local_scale_with_dim`` are private, but they are the only places
# where a table read and the CLI's local-scale step can be seen.
TRACED = [
    ("geometry", "neighbors_radius", "geometry.neighbor", _hood("r")),
    ("geometry", "neighbors_knn", "geometry.neighbor", _hood("k")),
    ("geometry", "NeighborIndex.knn_members", "geometry.neighbor", _knn_members),
    ("geometry", "local_pca", "geometry.pca", None),
    ("geometry", "project", "geometry.project", None),
    ("kernels", "mmd_sq_vs_uniform_disk", "kernels.mmd", _mmd),
    ("nulls", "build_null", "nulls.build", None),
    ("nulls", "_read_table", "nulls.read", None),
    ("nulls", "NullCache.get", "nulls.lookup", None),
    ("nulls", "p_value", "nulls.pvalue", None),
    ("uniformity", "singularity_scores", "uniformity.scores", _scores),
    ("uniformity", "uniformity_test", "uniformity.test", None),
    ("scoring", "filter_labels", "scoring.filter", None),
    ("scoring", "dispersion", "scoring.dispersion", None),
    ("scoring", "knn_neighbor_sets", "scoring.neighbor_sets", None),
    ("tuning", "local_scale", "tuning.local_scale", None),
    ("tuning", "_local_scale_with_dim", "tuning.local_scale", None),
    ("tuning", "grid_search", "tuning.grid", _grid),
    ("mh", "mh_report", "mh.report", None),
    ("mh", "upup", "mh.upup", None),
    ("io", "read_point_cloud_csv", "io.read", None),
    ("io", "read_scores_csv", "io.read", None),
    ("io", "read_label_column", "io.read", None),
    ("io", "write_point_cloud_csv", "io.write", None),
    ("io", "write_scores_csv", "io.write", None),
    ("io", "atomic_write_text", "io.write", None),
    ("io", "dct_reduce", "io.dct", None),
    ("cli", "main", "cli.main", None),
    ("synth", "generate", "synth.generate", None),
]

_MODULES = ("singscan", "singscan.evaluation") + tuple(f"singscan.{layer}" for layer in LAYERS)


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self) -> None:
        self.inclusive: Counter = Counter()  # span name -> outermost seconds
        self.calls: Counter = Counter()  # span name -> outermost calls
        self.self_time: Counter = Counter()  # layer -> self seconds
        self.counts: Counter = Counter()  # hook counters
        self.neighborhoods: set = set()  # distinct (rule, size, point)
        self._stack: list[list[float]] = []  # child seconds of each open span
        self._depth: Counter = Counter()  # open spans per name
        self._patched: list = []

    def _wrap(self, fn, name, hook):
        layer = name.split(".")[0]

        def wrapper(*args, **kwargs):
            outermost = self._depth[name] == 0
            self._depth[name] += 1
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self._depth[name] -= 1
                self.self_time[layer] += elapsed - frame[0]
                if self._stack:
                    self._stack[-1][0] += elapsed
                if outermost:
                    self.inclusive[name] += elapsed
                    self.calls[name] += 1
            if outermost and hook is not None:
                hook(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every function in ``TRACED`` wherever singscan refers to it."""
        modules = [importlib.import_module(name) for name in _MODULES]
        by_name = {mod.__name__.rpartition(".")[2]: mod for mod in modules[1:]}
        for mod_name, attr, span, hook in TRACED:
            owner = by_name[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(cls.__dict__[meth], span, hook))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(orig, span, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, key, wrapped) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapped)

    def restore(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        inc, calls, counts = self.inclusive, self.calls, self.counts
        out = {
            "geometry.neighbor_s": inc["geometry.neighbor"],
            "geometry.neighbor_calls": calls["geometry.neighbor"],
            "geometry.mean_k": counts["k_total"] / max(calls["geometry.neighbor"], 1),
            "geometry.pca_s": inc["geometry.pca"],
            "geometry.pca_calls": calls["geometry.pca"],
            "geometry.project_s": inc["geometry.project"],
            "kernels.mmd_s": inc["kernels.mmd"],
            "kernels.mmd_calls": calls["kernels.mmd"],
            "kernels.gram_entries": counts["gram_entries"],
            "nulls.build_s": inc["nulls.build"],
            "nulls.tables_built": calls["nulls.build"],
            "nulls.table_reads": calls["nulls.read"],
            "nulls.lookups": calls["nulls.lookup"],
            "nulls.pvalue_s": inc["nulls.pvalue"],
            "nulls.pvalue_calls": calls["nulls.pvalue"],
            "uniformity.scores_s": inc["uniformity.scores"],
            "uniformity.points_tested": calls["uniformity.test"],
            "uniformity.points_inherited": counts["points_returned"] - calls["uniformity.test"],
            "scoring.filter_s": inc["scoring.filter"],
            "scoring.filter_calls": calls["scoring.filter"],
            "scoring.dispersion_s": inc["scoring.dispersion"],
            "scoring.dispersion_calls": calls["scoring.dispersion"],
            "tuning.local_scale_s": inc["tuning.local_scale"],
            "tuning.grid_s": inc["tuning.grid"],
            "tuning.configs": counts["configs"],
            "tuning.neighborhood_reuse": len(self.neighborhoods) / max(counts["hood_queries"], 1),
            "mh.report_s": inc["mh.report"],
            "mh.upup_s": inc["mh.upup"],
            "io.read_s": inc["io.read"],
            "io.write_s": inc["io.write"],
            "io.dct_s": inc["io.dct"],
            "cli.main_s": inc["cli.main"],
            "cli.calls": calls["cli.main"],
            "synth.generate_s": inc["synth.generate"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_time[layer]
        return out
