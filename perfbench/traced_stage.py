"""Run one ``anticipation`` CLI stage with spans around each layer's functions.

Usage::

    python traced_stage.py <spans.json> <stage-id> <cli arguments...>

The wrappers are installed from outside the package, on the module
attribute each caller looks up, so the program itself is unchanged.  Spans
are kept in memory and written to ``<spans.json>`` when the stage ends, as
a list of ``[name, function, start, end, parent, stage, frames]`` rows
(``parent`` is the row index of the enclosing span, -1 at the top).  The
two top-level spans of every stage are ``cli.import`` (a cold
``import anticipation.cli``) and ``cli.main``.
"""

import sys
import time

# (module, attribute, span name, index of the positional features argument
# whose row count is recorded as the span's frames, or None).  Attributes
# missing from the program are skipped and reported, so a later rename
# costs the trace one layer instead of the whole run.
WRAPS = (
    ("workflow", "generate_dataset", "workflow.generate", None),
    ("workflow", "save_annotations", "workflow.save", None),
    ("workflow", "save_features", "workflow.save", None),
    ("workflow", "load_annotations", "workflow.load", None),
    ("workflow", "attach_features", "workflow.load", None),
    ("labels", "compute_targets", "labels.targets", None),
    ("baselines", "fit_baseline", "baselines.fit", None),
    ("baselines", "predict_baseline", "baselines.predict", None),
    ("baselines", "save_baseline", "baselines.save", None),
    ("network", "train", "network.train", None),
    ("network", "loss_and_gradients", "network.train_step", 2),
    ("network", "Adam.step", "network.adam", None),
    ("network", "forward", "network.forward", 2),
    # inference binds ``forward`` with ``from .network import forward``.
    ("inference", "forward", "network.forward", 2),
    ("network", "save_params", "network.checkpoint", None),
    ("network", "load_params", "network.checkpoint", None),
    ("inference", "mc_predict", "inference.mc", None),
    ("inference", "aggregate_samples", "inference.aggregate", None),
    # Both summary formats, so the layer stays measured if the CLI switches.
    ("inference", "save_summary_csv", "inference.summary_write", None),
    ("inference", "save_summary_npz", "inference.summary_write", None),
    ("inference", "load_summary_csv", "inference.summary_read", None),
    ("inference", "load_summary_npz", "inference.summary_read", None),
    ("metrics", "evaluate_predictions", "metrics.evaluate", None),
    ("analysis", "error_uncertainty_pcc", "analysis", None),
    ("analysis", "filter_by_uncertainty", "analysis", None),
    ("analysis", "tp_fp_uncertainty", "analysis", None),
    ("analysis", "trigger_conditional_uncertainty", "analysis", None),
    ("reports", "write_metrics_table", "reports.write", None),
    ("reports", "write_pcc_csv", "reports.write", None),
    ("reports", "write_filter_csv", "reports.write", None),
    ("reports", "write_tpfp_csv", "reports.write", None),
    ("reports", "write_trigger_csv", "reports.write", None),
)


class Tracer:
    """In-memory span recorder for one single-threaded stage process."""

    def __init__(self, stage: str):
        self.stage = stage
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str, function: str, frames: int = 0) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, function, 0.0, 0.0, parent, self.stage, frames])
        self._open.append(index)
        self.spans[index][2] = time.perf_counter()
        return index

    def end(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._open.pop()

    def wrap(self, fn, name: str, frames_arg):
        function = fn.__qualname__

        def traced(*args, **kwargs):
            frames = 0
            if frames_arg is not None:
                features = args[frames_arg] if len(args) > frames_arg else kwargs["features"]
                frames = len(features)
            index = self.begin(name, function, frames)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced


def install(tracer: Tracer, package) -> list[str]:
    """Wrap every attribute of ``WRAPS`` present in ``package``; return the missing ones."""
    missing = []
    for module_name, attr, span, frames_arg in WRAPS:
        owner = getattr(package, module_name, None)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(owner, leaf, tracer.wrap(fn, span, frames_arg))
    return missing


def main(argv: list[str]) -> int:
    spans_path, stage, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(stage)
    index = tracer.begin("cli.import", "import anticipation.cli")
    import anticipation.cli
    tracer.end(index)
    missing = install(tracer, anticipation)
    index = tracer.begin("cli.main", "anticipation.cli.main")
    try:
        code = anticipation.cli.main(cli_args)
    finally:
        tracer.end(index)
        import json

        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"missing": missing, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
