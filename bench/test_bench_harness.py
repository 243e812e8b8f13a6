"""Tests of the benchmark harness: span arithmetic, tracing across threads,
and a tiny run of every workload that must emit every declared metric."""

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import harness
import run
import workloads
from harness import END, JOB, NAME, PARENT, SID, START, THREAD

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def span(sid, name, parent, thread, start, end, note=None):
    return (sid, name, parent, 0, thread, start, end, note)


def test_union_length_merges_overlaps_and_clips():
    assert harness.union_length([(2, 5), (4, 7), (8, 9)], 0, 10) == 6
    assert harness.union_length([(0, 4), (3, 12)], 1, 10) == 9
    assert harness.union_length([], 0, 1) == 0


def test_self_time_subtracts_union_of_children_on_two_threads():
    # A parent on thread 1 whose two children run on threads 2 and 3 and
    # overlap in [4, 5]; the child on thread 3 has a nested child of its own.
    spans = [
        span(1, harness.JOB_SPAN, 0, 1, 0.0, 10.0),
        span(2, "sampler.rejection_sample", 1, 1, 1.0, 9.0, (100, 40, 2, "function")),
        span(3, "numkit.GaussianStream.normal", 2, 2, 2.0, 5.0, 30),
        span(4, "numkit.GaussianStream.normal", 2, 3, 4.0, 7.0, 50),
        span(5, "numkit.as_matrix", 4, 3, 5.0, 6.0),
    ]
    own = harness.self_times(spans)
    assert own == {1: 2.0, 2: 3.0, 3: 3.0, 4: 2.0, 5: 1.0}

    m = harness.layer_metrics(spans, nproc=2)
    assert m["sampler.self_s"] == (3.0, "s")
    assert m["numkit.normal_s"] == (6.0, "s")
    assert m["numkit.normals"] == (80, "count")
    assert m["sampler.accept_ratio"] == (0.05, "ratio")
    assert m["sampler.w100.proposals_per_s"] == (5.0, "1/s")
    assert m["sampler.w100.function_mode"] == (1, "flag")
    assert m["trace.job_s"] == (10.0, "s")


def test_worker_thread_spans_link_to_the_job_not_the_thread():
    tracer = harness.Tracer()
    leaf = tracer.wrap("numkit.leaf", lambda: time.sleep(0.02))

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as ex:
            list(ex.map(lambda _: leaf(), range(2)))

    outer = tracer.wrap("sampler.fan_out", fan_out)
    with tracer.job(7):
        outer()
    leaf()  # outside any job: not recorded

    (root,) = [s for s in tracer.spans if s[NAME] == harness.JOB_SPAN]
    (parent,) = [s for s in tracer.spans if s[NAME] == "sampler.fan_out"]
    leaves = [s for s in tracer.spans if s[NAME] == "numkit.leaf"]
    assert len(leaves) == 2
    assert parent[PARENT] == root[SID]
    assert all(s[PARENT] == parent[SID] and s[JOB] == 7 for s in leaves)
    assert all(s[THREAD] != threading.get_ident() for s in leaves)
    own = harness.self_times(tracer.spans)
    covered = harness.union_length([(s[START], s[END]) for s in leaves],
                                   parent[START], parent[END])
    assert own[parent[SID]] == pytest.approx(parent[END] - parent[START] - covered)


def test_install_wraps_lookup_sites_and_uninstall_restores():
    import widebnn
    from widebnn import experiments, numkit, sampler

    original = sampler.rejection_sample
    original_normal = numkit.GaussianStream.normal
    tracer = harness.Tracer()
    tracer.install(widebnn)
    try:
        assert experiments.rejection_sample is sampler.rejection_sample is not original
        assert widebnn.rejection_sample is sampler.rejection_sample
        assert numkit.GaussianStream.normal is not original_normal
    finally:
        tracer.uninstall()
    assert experiments.rejection_sample is original
    assert numkit.GaussianStream.normal is original_normal


def test_rate_sums_each_kinds_quantile_seconds():
    jobs = [run.Job(0, s, 10, 0) for s in (1.0, 2.0, 3.0)] + \
           [run.Job(1, s, 30, 0) for s in (4.0, 6.0)] + \
           [run.Job(1, 100.0, 0, 0, ["raised"], raised=True)]
    # One round: 10 + 30 work over the kinds' medians 2 + 5 seconds.
    assert run.rate(jobs, "work", 0.5) == (40 / 7, 5)
    # 90th percentiles: 2.8 and 5.8 seconds.
    assert run.rate(jobs, "work", 0.9)[0] == pytest.approx(40 / 8.6)
    assert run.rate([run.Job(0, 2.0, 4, 0)], "work", 0.9) == (2.0, 1)


class _Kinds:
    kinds = ("a", "b", "c")

    def __init__(self):
        self.calls = []

    def job(self, kind, j):
        self.calls.append((kind, j))
        return 1, None, None

    def check(self, out):
        return []


def test_closed_loop_runs_a_full_round_and_traces_the_same_kind():
    import widebnn  # noqa: F401  (the tracer installs into the loaded package)

    wl = _Kinds()
    plain, traced = run.closed_loop(wl, 0.0)
    assert [job.kind for job in plain] == [0, 1, 2] and traced == []
    assert wl.calls == [(0, 0), (1, 1), (2, 2)]

    wl = _Kinds()
    plain, traced = run.closed_loop(wl, 0.0, harness.Tracer())
    assert [job.kind for job in plain] == [job.kind for job in traced] == [0, 1, 2]
    assert len({j for _, j in wl.calls}) == 6


def test_boundaries_never_crossed_read_zero():
    m = harness.layer_metrics([], nproc=2)
    assert {d["name"] for d in BENCHMARK["per_layer"]} - {"trace.overhead_s"} == set(m)
    assert all(value == 0 for value, _ in m.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(name, trace, tmp_path):
    result = run.run_workload(name, seed=0, seconds=0.0, trace=bool(trace), tiny=True,
                              out_dir=tmp_path, probes=1)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {d["name"]: d["unit"] for d in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["attempted"] >= 1
    row = result["row"]
    assert {"setup_s", "peak_rss_mb", "error_rate", workloads.WORKLOADS[name].work_name} <= set(row)
    assert all(row[k][1] == unit for k, unit in run.TABLE if k in row)
