"""Self-tests for the benchmark's own logic.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import math
import os

import pytest

import run
import traced_stage

HERE = os.path.dirname(os.path.abspath(__file__))


def span(name, start, end, parent, frames=0):
    return [name, name, start, end, parent, "stage", frames]


def test_self_times_subtract_direct_children_only():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("child", 1.0, 4.0, 0),
        span("grandchild", 2.0, 3.0, 1),
        span("child", 5.0, 6.0, 0),
    ]
    assert run.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    assert run.check_self_time_sum("stage", spans, run.self_times(spans)) == []


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert run.covered(0.0, 10.0, [(1.0, 4.0), (3.0, 5.0), (9.0, 12.0)]) == pytest.approx(5.0)
    assert run.covered(0.0, 10.0, [(2.0, 8.0), (3.0, 4.0)]) == pytest.approx(6.0)
    assert run.covered(0.0, 10.0, []) == 0.0


def test_self_time_sum_check_flags_a_broken_identity():
    spans = [span("root", 0.0, 10.0, -1), span("child", 1.0, 4.0, 0)]
    assert run.check_self_time_sum("stage", spans, [7.0, 2.0])


def test_tracer_nests_spans_and_records_frames():
    tracer = traced_stage.Tracer("train")

    def inner(params, masks, features):
        return len(features)

    wrapped_inner = tracer.wrap(inner, "network.forward", 2)

    def outer():
        return wrapped_inner(None, None, [0.0] * 7) + wrapped_inner(None, None, features=[0.0] * 3)

    assert tracer.wrap(outer, "inference.mc", None)() == 10
    names = [s[run.NAME] for s in tracer.spans]
    assert names == ["inference.mc", "network.forward", "network.forward"]
    assert [s[run.PARENT] for s in tracer.spans] == [-1, 0, 0]
    assert [s[run.FRAMES] for s in tracer.spans] == [0, 7, 3]
    assert {s[run.STAGE] for s in tracer.spans} == {"train"}
    own = run.self_times(tracer.spans)
    assert run.check_self_time_sum("train", tracer.spans, own) == []


def test_layer_metrics_add_up_to_the_traced_wall_time():
    spans = [
        span("cli.import", 0.0, 0.5, -1),
        span("cli.main", 0.5, 3.0, -1),
        span("network.train", 0.6, 2.6, 1),
        span("network.train_step", 0.7, 1.7, 2, frames=100),
        span("network.adam", 1.8, 1.9, 2),
    ]
    stage = run.StageRun("train", 3.25, 0.0, [], spans)
    layers = run.layer_metrics([stage], summary_bytes=0)
    assert layers["network.train_step_us_per_frame"] == pytest.approx(1e4)
    assert layers["network.adam_us_per_step"] == pytest.approx(1e5)
    assert layers["network.adam_steps"] == 1
    assert layers["cli.process_s"] == pytest.approx(0.25)
    seconds = [v for k, v in layers.items() if k.endswith("_s") or k == "analysis.s"]
    assert sum(seconds) == pytest.approx(stage.wall_s)
    assert set(layers) | {"trace.overhead_s"} == set(run.PER_LAYER_UNITS)


def test_cli_seed_is_deterministic_and_avoids_xor_neighbours():
    seeds = [run.derive_cli_seed(s) for s in range(50)]
    assert seeds == [run.derive_cli_seed(s) for s in range(50)]
    # generate_dataset seeds sequence i with ``seed ^ i``; neighbouring
    # benchmark seeds must not share any of those per-sequence seeds.
    n = 100
    for a, b in zip(seeds, seeds[1:]):
        assert not {a ^ i for i in range(n)} & {b ^ i for i in range(n)}


def write_metrics(run_dir, horizon, table):
    os.makedirs(os.path.join(run_dir, "reports"), exist_ok=True)
    path = os.path.join(run_dir, "reports", f"metrics_h{horizon:g}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh)


def report(horizon, wmae, pmae, per_instrument=None):
    return {"horizon": horizon, "mean": {"wmae": wmae, "pmae": pmae},
            "per_instrument": per_instrument or {"a": {"wmae": wmae, "pmae": pmae}}}


def test_model_wmae_is_the_mean_over_horizons(tmp_path):
    write_metrics(tmp_path, 1.0, {"model": report(1.0, 0.25, 0.5),
                                  "meanhist": report(1.0, 0.75, None)})
    write_metrics(tmp_path, 3.0, {"model": report(3.0, 1.25, 2.0)})
    errors, wmae = run.check_metrics(str(tmp_path))
    assert errors == []
    assert wmae == pytest.approx(0.75)


@pytest.mark.parametrize("wmae, pmae", [(None, 0.5), (3.5, 0.5), (-0.1, 0.5),
                                        (float("nan"), 0.5), (1.0, 3.01)])
def test_metrics_out_of_range_or_missing_are_errors(tmp_path, wmae, pmae):
    write_metrics(tmp_path, 3.0, {"model": report(3.0, 1.0, 1.0,
                                                  {"a": {"wmae": wmae, "pmae": pmae}})})
    errors, _ = run.check_metrics(str(tmp_path))
    assert len(errors) == 1


def test_metrics_without_a_model_row_or_file_are_errors(tmp_path):
    errors, wmae = run.check_metrics(str(tmp_path))
    assert errors and math.isnan(wmae)
    write_metrics(tmp_path, 3.0, {"meanhist": report(3.0, 1.0, 1.0)})
    errors, wmae = run.check_metrics(str(tmp_path))
    assert errors and math.isnan(wmae)


def test_end_to_end_stage_times_are_scaled_to_the_reference_host():
    bench = run.Bench.__new__(run.Bench)
    bench.workload = run.WORKLOADS["many_short"]
    stages = [run.StageRun(s, 2.0, 40.0 + i, [], host_scale=0.5)
              for i, s in enumerate(run.STAGES)]
    chain = run.Chain(traced=False, stages=stages, train_frames=100, test_frames=10,
                      model_wmae=0.5)
    metrics = bench.end_to_end(chain)
    assert metrics["setup_s"] == pytest.approx(1.0)
    assert metrics["pipeline_s"] == pytest.approx(6.0)
    # frames x epochs x horizons per scaled second of train; x samples for predict.
    assert metrics["train_frames_per_s"] == pytest.approx(100 * 3 * 3)
    assert metrics["predict_frames_per_s"] == pytest.approx(10 * 5 * 3)
    assert metrics["peak_rss_mb"] == 45.0
    assert set(metrics) == set(run.END_TO_END_UNITS)


def test_benchmark_json_matches_the_metrics_the_script_reports():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
