from dataclasses import replace

from repro.tool.batch import run_batch

import corpus
import workloads


def _result():
    units = [u for u in corpus.build_units(0.01) if u.name == "lklftpd/lklftpd"]
    return run_batch(units, keep_going=True)


def test_correct_outcomes_count_no_wrong_verdicts():
    verdicts = workloads.Verdicts(corpus.ground_truth())
    verdicts.sweep(_result())
    assert (verdicts.attempted, verdicts.failed, verdicts.wrong) == (1, 0, 0)


def test_wrong_expected_high_count_trips_wrong_verdicts():
    truth = corpus.ground_truth()
    unit = "lklftpd/lklftpd"
    truth[unit] = replace(truth[unit], high=truth[unit].high + 1)
    verdicts = workloads.Verdicts(truth)
    verdicts.sweep(_result())
    assert verdicts.wrong == 1
    assert "HIGH" in verdicts.notes[0]


def test_too_few_warnings_trip_wrong_verdicts():
    truth = corpus.ground_truth()
    unit = "lklftpd/lklftpd"
    truth[unit] = replace(truth[unit], low_minimum=100)
    verdicts = workloads.Verdicts(truth)
    verdicts.sweep(_result())
    assert verdicts.wrong == 1


def test_diverging_reference_trips_wrong_verdicts():
    verdicts = workloads.Verdicts(corpus.ground_truth())
    got, want = _result(), _result()
    want.outcomes[0].fingerprints = ["not-a-fingerprint"]
    verdicts.same("reference", got, want)
    assert verdicts.wrong == 1
