"""Smoke run of the benchmark at tiny scale (a few seconds in all).

    python3 -m pytest xrbench -q
"""

import json
import os

import pytest

import run

assert run.add_sources(), "the benchmark needs the program's src/ tree"

import corpus  # noqa: E402  (needs the sources on the path)
import workloads  # noqa: E402

WORKLOADS = ("dense-paths", "sparse-paths", "churn-serve")
#: Seconds, not minutes, per run.
TINY = corpus.Sizing(department_docs=1, department_elements=150,
                     auction_docs=1, auction_items=6, items_per_region=3,
                     conference_docs=1, conference_elements=100,
                     write_doc_elements=30, write_docs=2, pool_pages=16,
                     setups=2)


def _run(capsys, workload, trace, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.5", "--trace", str(trace)],
                    sizing=TINY)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines[:-1], json.loads(lines[-1]) if lines else None


def _declared(key):
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[key]}, spec


def test_benchmark_json_matches_the_emitted_metrics():
    end_to_end, spec = _declared("end_to_end")
    per_layer, _ = _declared("per_layer")
    assert end_to_end == workloads.END_TO_END
    assert per_layer == workloads.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(capsys, workload, trace):
    code, report, result = _run(capsys, workload, trace)
    assert code == 0, "\n".join(report)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    text = "\n".join(report)
    assert "nproc=" in text and "pool=" in text and "x the pool" in text
    if trace:
        assert "ledger per read" in text
    else:
        assert "samples" in text and "n=" in text


def test_paper_counters_repeat_across_runs(capsys):
    digests = []
    for _ in range(2):
        code, report, _ = _run(capsys, "dense-paths", 0, seed=11)
        assert code == 0
        digests += [line for line in report if "digest" in line]
    assert len(digests) == 2 and digests[0] == digests[1]
    assert "repeat exactly" in digests[0]


def test_a_wrong_answer_fails_the_command(capsys, monkeypatch):
    honest = corpus.brute_force_count
    monkeypatch.setattr(corpus, "brute_force_count",
                        lambda document, path: honest(document, path) + 1)
    code, _, result = _run(capsys, "sparse-paths", 0)
    assert code != 0
    assert result is None or result["correct"] is False
