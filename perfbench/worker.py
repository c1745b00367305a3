"""One benchmark operation in a fresh process, so every library cache starts cold.

Usage: python3 perfbench/worker.py '<op json>'

The parent (run.py) records the time just before it spawns this process.  The
worker imports ``symfusion`` from the checkout's ``src/`` (that span is the
set-up time every CLI call pays), optionally wraps the traced layer functions,
runs the one library call it was given, and prints a single JSON line with the
timings, the captured library output, ``ru_maxrss`` and, when traced, the spans.

Op kinds:
  cli              {"argv": [...]}                      -> symfusion.cli.main(argv)
  file_complement  {"in": path, "out": path}            -> load, certify, complement, certify, save
  prep             {"build": [...], "exact": [...]}     -> write inputs, compute exact values (untimed)
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Every function the traced run splits time over, as (module, qualified name).
TRACED = (
    ("cli", "main"),
    ("tableaux", "enumerate_standard_tableaux"),
    ("tableaux", "tableau_index"),
    ("tableaux", "hook_product"),
    ("tableaux", "dimension"),
    ("permutations", "permutation_word"),
    ("symrep", "branching_isometry"),
    ("symrep", "rep_apply"),
    ("symrep", "apply_generator"),
    ("symrep", "adjacent_transposition_matrix"),
    ("altrep", "layer_eigenbasis"),
    ("altrep", "eigenspace_injection"),
    ("constructions", "single_layer_ensemble"),
    ("constructions", "multi_layer_ensemble"),
    ("constructions", "alternating_ensemble"),
    ("constructions", "isoclinic_certificate"),
    ("constructions", "layer_sums"),
    ("constructions", "search_isoclinic"),
    ("constructions", "classify_single_layer"),
    ("constructions", "distance_condition"),
    ("fusion", "FusionEnsemble.from_blocks"),
    ("fusion", "certify"),
    ("fusion", "cross_gram"),
    ("fusion", "principal_angles"),
    ("fusion", "pairwise_distances"),
    ("fusion", "isoclinism_check"),
    ("fusion", "tightness_residual"),
    ("fusion", "naimark_complement"),
    ("fusion", "fusion_gram"),
    ("ensemble_io", "save_ensemble"),
    ("ensemble_io", "load_ensemble"),
)
TRACED_NAMES = tuple(f"{m}.{q}" for m, q in TRACED)
CACHED = ("tableaux.enumerate_standard_tableaux", "tableaux.tableau_index")
ROOT_SPAN = "op"


class Tracer:
    """Spans of one operation, kept in memory, plus the counters measured beside them.

    A span is (name id, start, end, parent index, op id); index 0 is the
    operation root.  The parent index is fixed when a span opens, so spans
    nest as the calls did, recursion included.
    """

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.names = [ROOT_SPAN]
        self.spans: list = [None]
        self.stack = [0]
        self.counters: Counter = Counter()
        self.certify_depth = 0
        self.originals: dict = {}
        self.absent: list[str] = []

    def wrap(self, name: str, fn, pre=None, post=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, op_id = self.spans, self.stack, self.op_id
        clock = time.perf_counter

        def traced(*args, **kwargs):
            state = pre(args, kwargs) if pre is not None else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, op_id)
            if post is not None:
                post(args, kwargs, result, state)
            return result

        return traced

    def install(self, package) -> None:
        """Replace each traced function wherever a ``symfusion.*`` namespace or class holds it."""
        import numpy as np

        prefix = package.__name__
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == prefix or k.startswith(prefix + "."))]
        holders = modules + [v for m in modules for v in vars(m).values()
                             if isinstance(v, type) and v.__module__.startswith(prefix)]
        hooks = self._hooks()
        for mod_name, qualname in TRACED:
            full = f"{mod_name}.{qualname}"
            owner = sys.modules.get(f"{package.__name__}.{mod_name}")
            *cls_path, attr = qualname.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(full)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                kind, original = type(raw), raw.__func__
            else:
                kind, original = None, raw
            self.originals[full] = original
            pre, post = hooks.get(full, (None, None))
            wrapper = self.wrap(full, original, pre, post)
            replacement = kind(wrapper) if kind is not None else wrapper
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is raw:
                        setattr(holder, key, replacement)

        svd = np.linalg.svd

        def counted_svd(*args, **kwargs):
            if self.certify_depth:
                self.counters["certify_svds"] += 1
            return svd(*args, **kwargs)

        np.linalg.svd = counted_svd

    def _hooks(self) -> dict:
        counters = self.counters

        def enum_pre(args, kwargs):
            return self.originals["tableaux.enumerate_standard_tableaux"].cache_info().misses

        def enum_post(args, kwargs, result, misses_before):
            if self.originals["tableaux.enumerate_standard_tableaux"].cache_info().misses > misses_before:
                counters["tableaux.tableaux_enumerated"] += len(result)

        def word_post(args, kwargs, result, _):
            counters["permutations.word_letters"] += len(result)

        def generator_post(args, kwargs, result, _):
            counters["symrep.orbit_bytes_computed"] += int(result.nbytes)

        def gram_post(args, kwargs, result, _):
            e = args[0]
            flops = 2 * e.r * e.r * e.d * (4 if e.field == "C" else 1)
            counters["fusion.cross_gram.flops_computed"] += flops
            if self.certify_depth:
                counters["certify_cross_grams"] += 1

        def certify_pre(args, kwargs):
            e = args[0]
            counters["certify_pairs"] += e.n * (e.n - 1) // 2
            self.certify_depth += 1

        def certify_post(args, kwargs, result, _):
            self.certify_depth -= 1

        def save_post(args, kwargs, result, _):
            path = args[1] if len(args) > 1 else kwargs["path"]
            counters["ensemble_io.bytes_written"] += os.path.getsize(path)

        def load_pre(args, kwargs):
            path = args[0] if args else kwargs["path"]
            counters["ensemble_io.bytes_read"] += os.path.getsize(path)

        return {
            "tableaux.enumerate_standard_tableaux": (enum_pre, enum_post),
            "permutations.permutation_word": (None, word_post),
            "symrep.apply_generator": (None, generator_post),
            "fusion.cross_gram": (None, gram_post),
            "fusion.certify": (certify_pre, certify_post),
            "ensemble_io.save_ensemble": (None, save_post),
            "ensemble_io.load_ensemble": (load_pre, None),
        }

    def report(self) -> dict:
        for full in CACHED:
            fn = self.originals.get(full)
            if fn is not None and hasattr(fn, "cache_info"):
                info = fn.cache_info()
                self.counters[f"{full}.cache_hits"] += info.hits
                self.counters[f"{full}.cache_misses"] += info.misses
        return {
            "names": self.names,
            "spans": self.spans,
            "counters": dict(self.counters),
            "absent": self.absent,
        }


def _run_cli(sf, op) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = sf.cli.main(list(op["argv"]))
        except SystemExit as exc:  # argparse rejects bad argv this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _run_file_complement(sf, op) -> dict:
    eio, fusion = sf.ensemble_io, sf.fusion
    e = eio.load_ensemble(op["in"])
    first = fusion.certify(e)
    comp = fusion.naimark_complement(e)
    second = fusion.certify(comp)
    eio.save_ensemble(comp, op["out"])
    return {
        "rc": 0,
        "verdicts": [first.classification, second.classification],
        "complement": [comp.field, comp.d, comp.r, comp.n],
        "alpha": second.isoclinism_alpha,
    }


def _run_prep(sf, op) -> dict:
    """Write the ensemble input files and compute exact oracle values; untimed."""
    from fractions import Fraction

    import numpy as np

    from symfusion import Partition, Permutation
    from symfusion import constructions as cons

    for item in op.get("build", []):
        ts = [Permutation.parse(text) for text in item["transversal"]] if item.get("transversal") else None
        mu = Partition.parse(item["mu"])
        if item["kind"] == "single-layer":
            e = cons.single_layer_ensemble(Partition.parse(item["lambda"]), mu, transversal=ts)
        else:
            sel = cons.LayerSelection.from_delta(mu, item["delta"])
            if item["kind"] == "multi-layer":
                e = cons.multi_layer_ensemble(sel, transversal=ts)
            else:
                e = cons.alternating_ensemble(sel, item.get("epsilon", "+"), transversal=ts)
        sf.ensemble_io.save_ensemble(e, item["path"])
    exact = []
    for spec in op.get("exact", []):
        if spec["source"] == "single_layer_parameters":
            d, r, n, alpha = cons.single_layer_parameters(*spec["args"])
            field = "R"
        elif spec["source"] == "alternating_parameters":
            field, d, r, n, alpha = cons.alternating_parameters(*spec["args"])
        else:
            mu, delta = spec["args"]
            cert = cons.isoclinic_certificate(Partition.parse(mu), delta)
            d, r, n = cert.parameters()
            alpha, field = cert.alpha, "R"
        exact.append({"field": field, "d": d, "r": r, "n": n, "alpha": str(Fraction(alpha))})
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {"rc": 0, "exact": exact,
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


RUNNERS = {"cli": _run_cli, "file_complement": _run_file_complement, "prep": _run_prep}


def main() -> None:
    op = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    import symfusion
    import symfusion.cli
    imported = time.perf_counter()
    if not Path(symfusion.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported symfusion from {symfusion.__file__}, not from the checkout")

    tracer = None
    if op.get("trace"):
        tracer = Tracer(op["op_id"])
        tracer.install(symfusion)
    result: dict = {"imported": imported}
    start = time.perf_counter()
    try:
        result.update(RUNNERS[op["kind"]](symfusion, op))
    except Exception:  # the op failed; the parent counts it
        result.update(rc=None, error=traceback.format_exc())
    end = time.perf_counter()
    if tracer is not None:
        tracer.spans[0] = (0, start, end, -1, tracer.op_id)
        result["trace"] = tracer.report()
    result.update(start=start, end=end,
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
