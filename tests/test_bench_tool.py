"""tools/bench.py: summaries of repeated benchmark runs and their comparison."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("bench", os.path.join(ROOT, "tools", "bench.py"))
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SPEC = {"end_to_end": [{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
                       {"name": "matched_lap", "unit": "vertices", "better": "higher",
                        "bound": 0.2}]}


def test_summarize_gives_median_and_inclusive_quartiles():
    assert bench.summarize([3.0, 1.0, 2.0]) == {"values": [3.0, 1.0, 2.0], "median": 2.0,
                                                "q1": 1.5, "q3": 2.5}


def _file(peak, matched):
    return {"workloads": {"w": {"metrics": {"peak_rss_mb": bench.summarize(peak),
                                            "matched_lap": bench.summarize(matched)}}}}


def test_compare_reports_change_as_share_of_bound():
    a = _file([380.0, 382.0, 384.0], [26, 26, 26])
    b = _file([320.0, 321.0, 322.0], [26, 26, 13])
    header, peak, matched = bench.compare(SPEC, a, b)
    assert "of bound" in header
    # 382 -> 321 MB is 16.0% lower: -1.60 bounds, beyond both spreads
    assert peak.split()[4:] == ["-16.0%", "-1.60", "yes"]
    # the median of matched_lap does not move; the quartile spread is 6.5
    assert matched.split()[4:] == ["+0.0%", "+0.00", "no"]


def test_compare_counts_a_fall_of_a_higher_is_better_metric_as_worse():
    a = _file([100.0, 100.0, 100.0], [20, 20, 20])
    b = _file([100.0, 100.0, 100.0], [18, 18, 18])
    matched = bench.compare(SPEC, a, b)[2]
    assert matched.split()[4:] == ["-10.0%", "+0.50", "yes"]
