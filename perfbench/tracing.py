"""Spans around normbase's public functions, recorded from outside the package.

The wrappers replace a function on every loaded ``normbase`` module that
holds it, because callers look names up where they imported them: ``cli``
calls its own ``parse_series`` binding, while ``gbmodels.boost_fit`` calls
the module global ``build_tree_exact``. Spans stay in memory and are written
once, when the traced command ends.

Run as a script, this file is a traced stand-in for the ``normbase`` entry
point:

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json normalize --config run.json

It writes the spans and the import time of ``normbase.cli`` to SPANS.json
and exits with the command's exit code.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time


def _fill_count(result):
    _, gaps = result
    return {"filled": gaps.count("interpolated") + gaps.count("edge-hold")}


def _fit_kind(args, kwargs):
    return kwargs.get("kind", args[2] if len(args) > 2 else "exact")


# (module, function) -> observer(args, kwargs, result) giving span counts
TARGETS = {
    ("tsdata", "parse_series"): lambda a, k, r: {"rows": len(r), "bytes": len(a[0].encode())},
    ("tsdata", "fill_gaps"): lambda a, k, r: _fill_count(r),
    ("tsdata", "resample_daily"): lambda a, k, r: {"days": len(r.dates)},
    ("tsdata", "align"): lambda a, k, r: {"days_excluded": r.n_excluded},
    ("features", "build_features"): lambda a, k, r: {"rows": len(r)},
    ("features", "make_sequences"): None,
    ("nnmodels", "lstm_train"): lambda a, k, r: {"epochs": r[1].n_epochs},
    ("nnmodels", "mlp_train"): lambda a, k, r: {"epochs": r[1].n_epochs},
    ("nnmodels", "lstm_loss_grad"): lambda a, k, r: {"rows": len(a[1])},
    ("nnmodels", "mlp_loss_grad"): None,
    ("nnmodels", "lstm_predict"): None,
    ("nnmodels", "mlp_predict"): None,
    ("nnmodels", "lstm_from_dict"): None,
    ("nnmodels", "mlp_from_dict"): None,
    ("nnmodels", "lstm_to_dict"): None,
    ("nnmodels", "mlp_to_dict"): None,
    ("gbmodels", "boost_fit"): lambda a, k, r: {
        "kind": _fit_kind(a, k), "rounds": r[1].n_rounds, "trees": len(r[0].trees)
    },
    ("gbmodels", "build_tree_exact"): None,
    ("gbmodels", "build_tree_hist"): None,
    ("gbmodels", "predict_tree"): None,
    ("gbmodels", "goss_sample"): None,
    ("gbmodels", "efb_bundle"): None,
    ("gbmodels", "boost_predict"): None,
    ("gbmodels", "ensemble_from_dict"): None,
    ("gbmodels", "ensemble_to_dict"): None,
    ("metrics", "kpi_report"): None,
    ("normalize", "run_pipeline"): None,
    ("cli", "load_run_settings"): None,
    ("cli", "main"): None,
    ("svgchart", "overlay_chart"): None,
    ("svgchart", "dlr_chart"): None,
    ("svgchart", "cumulative_chart"): None,
}

SETUP_TARGETS = {
    ("synthgen", "generate"): None,
    ("synthgen", "write_dataset"): None,
}


class Tracer:
    """Collects spans from wrapped functions on any thread.

    A span's parent is the innermost open span on its own thread. A span
    opened on a worker thread with nothing open there belongs to the
    innermost span open on the thread that created the tracer, which is the
    one that started the worker pool.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._home = self._stack()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, fn, name: str, observe=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._home[-1] if self._home else None)
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = {"id": span_id, "name": name, "parent": parent,
                        "thread": threading.get_ident(), "start": start, "end": end,
                        "attrs": {}}
                self.spans.append(span)
            if observe is not None:
                span["attrs"] = observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets: dict):
        """Wrap each target on every loaded normbase module that binds it."""
        defining = {mod: importlib.import_module(f"normbase.{mod}") for mod, _ in targets}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "normbase" or n.startswith("normbase."))]
        for (mod, fn_name), observe in targets.items():
            original = getattr(defining[mod], fn_name)
            wrapper = self.wrap(original, f"{mod}.{fn_name}", observe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def _main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    from normbase import cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w") as f:
            json.dump({"import_s": import_s, "spans": tracer.spans}, f)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
