"""The benchmark's own arithmetic: medians, the tail rule, self time,
failure counting."""
import json

import pytest

import textrkm.cli
import textrkm.harness
from corpusgen import Shape
from stats import failed_ratio, median, tail_percentile
from tracing import Span, self_times
from workloads import Workload, measure, parse_predictions, setup


def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_p90_needs_ten_samples_beyond_it():
    values = [float(v) for v in range(100, 0, -1)]
    assert tail_percentile(values, 90) == 90.0  # 91..100 lie beyond it
    with pytest.raises(ValueError):
        tail_percentile(values[:99], 90)


def _span(i, start, end, parent=None):
    s = Span(i, f"s{i}", "x", start, True, parent=parent)
    s.end = end
    return s


def test_self_time_subtracts_child_spans_only():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 5.0, 6.0, parent=0),
        _span(3, 1.5, 2.5, parent=1),  # a grandchild does not count twice
        _span(4, 9.0, 12.0, parent=0),  # clipped to the parent's interval
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 2.0 - 1.0 - 1.0)
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(1.0)


def test_failed_ratio():
    assert failed_ratio(8, 2) == 0.25
    with pytest.raises(ValueError):
        failed_ratio(0, 0)


TINY_SWEEP = Workload(
    name="tiny-sweep", shape=Shape(3, 20, 12, 8, 20, 0.5), accuracy_floor=0.0,
    distance="euclidean", probe="kernels", ratio_grid=((2, 8), (4, 6)), trials_per_ratio=2,
)
TINY_DEPLOY = Workload(
    name="tiny-deploy", shape=Shape(3, 20, 20, 10, 50, 0.5, sentences=True), accuracy_floor=0.0,
    distance="cosine", probe="deploy", train_calls=1, unseen_dirs=2, unseen_per_class=3, min_classify_calls=6,
)


def prepare(w, tmp_path, seed=3):
    work = tmp_path / "work"
    truth = setup(w, seed, work)
    (work / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
    return work


def test_trial_error_counts_as_failed(tmp_path, monkeypatch):
    work = prepare(TINY_SWEEP, tmp_path)
    real = textrkm.harness.fit_term_weights
    calls = []

    def failing_second_call(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise textrkm.DataError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(textrkm.harness, "fit_term_weights", failing_second_call)
    result, _ = measure(TINY_SWEEP, 3, 0.0, False, work)
    assert result["attempted"] == 4
    assert result["failed"] == 1
    assert any("injected" in p for p in result["problems"])


@pytest.mark.parametrize(
    "text",
    ["", "doc00000.txt\ttopic00\n", "doc00000.txt\tnope\t0.1\n", "doc00000.txt\ttopic00\tx\n",
     "doc00000.txt\ttopic00\t0.1\ndoc00000.txt\ttopic01\t0.2\n"],
)
def test_malformed_predictions_are_rejected(tmp_path, text):
    path = tmp_path / "p.tsv"
    path.write_text(text, encoding="utf-8")
    assert isinstance(parse_predictions(path, {"topic00", "topic01"}), str)


def test_corrupted_predictions_file_counts_as_failed(tmp_path, monkeypatch):
    work = prepare(TINY_DEPLOY, tmp_path)
    real = textrkm.cli.cmd_classify
    calls = []

    def corrupting(args):
        rc = real(args)
        calls.append(1)
        if len(calls) % 3 == 0:
            lines = open(args.out, encoding="utf-8").read().splitlines()
            with open(args.out, "w", encoding="utf-8") as f:
                f.write("\n".join(lines[:-1] + [lines[-1].split("\t")[0]]) + "\n")
        return rc

    monkeypatch.setattr(textrkm.cli, "cmd_classify", corrupting)
    result, _ = measure(TINY_DEPLOY, 3, 0.0, False, work)
    assert result["attempted"] == 1 + 6
    assert result["failed"] == 2


@pytest.mark.parametrize("kind", ["embed", "kernels", "deploy"])
def test_host_speed_scale_averages_the_probes_around_each_operation(kind):
    import hostspeed

    probe = hostspeed.Probe(kind)
    ref = hostspeed.REFERENCE_S[kind]
    w = hostspeed.WINDOW
    probe.samples = [ref] * (w + 1) + [2 * ref] * (3 * w)  # the host halves its speed
    scales = probe.scales()
    assert scales[0] == pytest.approx(1.0)  # only reference-speed samples around it
    assert scales[-1] == pytest.approx(0.5)  # only slowed samples around it
    # the mean of w + 1 fast and w slow samples around the last fast one
    assert scales[w] == pytest.approx((2 * w + 1) / (w + 1 + 2 * w))
