"""Spans around calls into hractivity's public functions, and the per-layer
metrics derived from them.

Each traced name is patched where its caller looks it up (for example
``hractivity.evaluation.train_ovo``, not ``hractivity.svm.train_ovo``), so
the program's own files stay untouched. A span is ``[name, start, end,
parent, counts]`` with CPU-second timestamps; spans stay in memory and the
worker writes them out when the round ends. Counts come only from a call's
arguments and return value.
"""

from __future__ import annotations

import functools
import importlib
import time

_clock = time.process_time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append([name, _clock(), None, parent, {}])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = _clock()
            if count is not None:
                self.spans[index][4] = count(args, kwargs, result)
            return result

        return traced


def _rows(arg: int = 0):
    return lambda args, kwargs, result: {"rows": int(args[arg].shape[0])}


def _train_binary(args, kwargs, result):
    return {"rows": int(args[0].shape[0]),
            "support_vectors": int(result.support_vectors.shape[0])}


def _kernel(args, kwargs, result):  # args: (self, a, b)
    return {"entries": int(args[1].shape[0]) * int(args[2].shape[0])}


def _net_train(args, kwargs, result):  # args: (model, windows, hc, labels)
    return {"samples": int(args[1].shape[0]) * int(args[0].config.epochs)}


#: (where the caller looks the name up, attribute, span name, counter)
PATCHES = (
    ("hractivity.cli", "main", "cli.main", None),
    ("hractivity.cli", "generate_synthetic", "synthetic.generate_synthetic", None),
    ("hractivity.cli", "serialize_corpus", "ingest.serialize_corpus", None),
    ("hractivity.cli", "parse_corpus", "ingest.parse_corpus",
     lambda a, k, r: {"rows": sum(len(s) for s in r)}),
    ("hractivity.cli", "resample_uniform", "ingest.resample_uniform", None),
    ("hractivity.cli", "build_dataset", "evaluation.build_dataset", None),
    ("hractivity.cli", "run_split", "evaluation.protocol", None),
    ("hractivity.cli", "routed_eval", "evaluation.protocol", None),
    ("hractivity.cli", "fit_cluster_model", "clustering.fit_cluster_model", None),
    ("hractivity.cli", "write_report_json", "metrics.write", None),
    ("hractivity.cli", "write_fold_csv", "metrics.write", None),
    ("hractivity.cli", "write_confusion_csv", "metrics.write", None),
    ("hractivity.evaluation", "segment", "preprocess.segment",
     lambda a, k, r: {"windows": len(r)}),
    ("hractivity.evaluation", "standardize_series", "preprocess.standardize_series", None),
    ("hractivity.evaluation", "feature_matrix", "features.feature_matrix", None),
    ("hractivity.evaluation", "fit_classifier", "evaluation.fit_classifier", None),
    ("hractivity.evaluation", "fit_cluster_model", "clustering.fit_cluster_model", None),
    ("hractivity.evaluation", "window_space_matrix", "clustering.window_space_matrix", None),
    ("hractivity.evaluation", "assign_many", "clustering.assign_many", None),
    ("hractivity.evaluation", "train_ovo", "svm.train_ovo", None),
    ("hractivity.evaluation", "predict_ovo", "svm.predict_ovo", _rows(1)),
    ("hractivity.evaluation", "train", "neuralnet.train", _net_train),
    ("hractivity.evaluation", "net_predict", "neuralnet.predict", None),
    ("hractivity.features", "statistical_matrix", "features.statistical_matrix", _rows()),
    ("hractivity.features", "temporal_matrix", "features.temporal_matrix", _rows()),
    ("hractivity.clustering", "statistical_matrix", "features.statistical_matrix", _rows()),
    ("hractivity.clustering", "temporal_matrix", "features.temporal_matrix", _rows()),
    ("hractivity.clustering", "window_space_matrix", "clustering.window_space_matrix", None),
    ("hractivity.clustering", "kmeans_fit", "clustering.kmeans_fit", None),
    ("hractivity.svm", "train_binary", "svm.train_binary", _train_binary),
    ("hractivity.svm:KernelSpec", "matrix", "svm.kernel_matrix", _kernel),
)


def install(tracer: Tracer) -> None:
    for where, attr, name, count in PATCHES:
        module_name, _, class_name = where.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))


# ------------------------------------------------------------ span arithmetic


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(index, [])):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


#: Per-layer metric -> (span name, what to add up). "s" sums span durations,
#: "self_s" self times, "calls" spans, anything else the named count.
LAYER_METRICS = {
    "ingest.parse_corpus.s": ("ingest.parse_corpus", "s"),
    "ingest.rows": ("ingest.parse_corpus", "rows"),
    "ingest.resample_uniform.s": ("ingest.resample_uniform", "s"),
    "ingest.serialize_corpus.s": ("ingest.serialize_corpus", "s"),
    "synthetic.generate_synthetic.s": ("synthetic.generate_synthetic", "s"),
    "preprocess.segment.s": ("preprocess.segment", "s"),
    "preprocess.windows": ("preprocess.segment", "windows"),
    "preprocess.standardize_series.s": ("preprocess.standardize_series", "s"),
    "features.feature_matrix.s": ("features.feature_matrix", "s"),
    "features.statistical_matrix.s": ("features.statistical_matrix", "s"),
    "features.statistical_matrix.rows": ("features.statistical_matrix", "rows"),
    "features.temporal_matrix.rows": ("features.temporal_matrix", "rows"),
    "evaluation.build_dataset.s": ("evaluation.build_dataset", "s"),
    "evaluation.fit_classifier.calls": ("evaluation.fit_classifier", "calls"),
    "evaluation.fit_classifier.s": ("evaluation.fit_classifier", "s"),
    "evaluation.protocol.self_s": ("evaluation.protocol", "self_s"),
    "clustering.fit_cluster_model.s": ("clustering.fit_cluster_model", "s"),
    "clustering.kmeans_fit.s": ("clustering.kmeans_fit", "s"),
    "clustering.window_space_matrix.s": ("clustering.window_space_matrix", "s"),
    "clustering.assign_many.s": ("clustering.assign_many", "s"),
    "svm.train_ovo.s": ("svm.train_ovo", "s"),
    "svm.train_binary.calls": ("svm.train_binary", "calls"),
    "svm.train_binary.s": ("svm.train_binary", "s"),
    "svm.train_rows": ("svm.train_binary", "rows"),
    "svm.kernel_matrix.s": ("svm.kernel_matrix", "s"),
    "svm.kernel_entries": ("svm.kernel_matrix", "entries"),
    "svm.support_vectors": ("svm.train_binary", "support_vectors"),
    "svm.predict_ovo.s": ("svm.predict_ovo", "s"),
    "svm.predict_rows": ("svm.predict_ovo", "rows"),
    "neuralnet.train.s": ("neuralnet.train", "s"),
    "neuralnet.samples_trained": ("neuralnet.train", "samples"),
    "neuralnet.predict.s": ("neuralnet.predict", "s"),
    "metrics.write.s": ("metrics.write", "s"),
    "cli.self_s": ("cli.main", "self_s"),
}


def layer_metrics(spans: list) -> dict[str, float]:
    """Every per-layer metric summed over one traced round (0 where a layer did not run)."""
    selfs = self_times(spans)
    out = {}
    for metric, (span_name, what) in LAYER_METRICS.items():
        total = 0.0
        for span, self_s in zip(spans, selfs):
            name, start, end, _, counts = span
            if name != span_name:
                continue
            if what == "s":
                total += end - start
            elif what == "self_s":
                total += self_s
            elif what == "calls":
                total += 1
            else:
                total += counts.get(what, 0)
        out[metric] = total
    feature_rows = out["features.statistical_matrix.rows"] + out["features.temporal_matrix.rows"]
    windows = out["preprocess.windows"]
    out["features.rows_per_window"] = feature_rows / windows if windows else 0.0
    return out
