"""The checks behind failed_frac count what they should.

    python3 -m pytest perfbench/test_check.py
"""

import os
import sys
import zlib

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import pytest  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402
from lpyolo.model import ModelConfig, RunConfig, random_init  # noqa: E402


def test_failed_items_counts_missing_misplaced_and_mismatched():
    got = {0: ("a", 1), 2: ("c", 3), 1: ("b", 2), 3: ("x", 4)}
    want = {0: ("a", 1), 1: ("b", None), 3: ("d", 4)}
    failed = check.failed_items([0, 1, 2, 3, 4], [0, 2, 1, 3], got, want)
    assert failed == {1, 2, 3, 4}  # 1 and 2 swapped, 3 differs, 4 missing


@pytest.fixture(scope="module")
def stream_case():
    wl = workloads.WORKLOADS["stream-backlog"]
    model = random_init(ModelConfig(wl.bits, wl.bits), workloads.WEIGHT_SEED)
    run_cfg = RunConfig(conf_threshold=wl.conf)
    seed = 11
    received = [
        (i, check.stream_expected(model, run_cfg, seed, i, exact=True),
         zlib.crc32(workloads.stream_frame(seed, i)))
        for i in range(2)
    ]
    return wl, model, run_cfg, seed, received


def test_stream_frames_matching_the_reference_pass(stream_case):
    wl, model, run_cfg, seed, received = stream_case
    failed, checked = check.check_stream(wl, model, run_cfg, seed, 2, received)
    assert failed == set() and checked == [0, 1]


def test_a_mismatching_reference_is_counted(stream_case, monkeypatch):
    wl, model, run_cfg, seed, received = stream_case
    monkeypatch.setattr(check, "load_refs",
                        lambda name, s: {"frames": [received[0][1], "0" * 16]})
    failed, _ = check.check_stream(wl, model, run_cfg, seed, 2, received)
    assert failed == {1}


def test_a_corrupted_payload_or_lost_frame_is_counted(stream_case):
    wl, model, run_cfg, seed, received = stream_case
    bad = [received[0], (1, received[1][1], received[1][2] ^ 1)]
    assert check.check_stream(wl, model, run_cfg, seed, 2, bad)[0] == {1}
    assert check.check_stream(wl, model, run_cfg, seed, 3, received)[0] == {2}


def test_eval_ap_mismatch_fails_every_image_of_the_call(monkeypatch):
    wl = workloads.WORKLOADS["eval-8w8a"]
    model = random_init(ModelConfig(wl.bits, wl.bits), workloads.WEIGHT_SEED)
    run_cfg = RunConfig(conf_threshold=wl.conf)
    lines, ap = check.eval_expected(model, run_cfg, 5, 0, exact=True)
    images = list(workloads.eval_indices(0))
    calls = [{"call": 0, "rc": 0, "printed": ap + "\n",
              "detections": "\n".join(l for n in images for l in lines[n])}]
    for recorded_ap, want_failed in ((ap, set()), ("AP@0.5: 0.999999", set(images))):
        refs = {"images": [check.text_digest(lines[n]) for n in images], "ap": [recorded_ap]}
        monkeypatch.setattr(check, "load_refs", lambda name, s: refs)
        failed, checked = check.check_eval(wl, model, run_cfg, 5, calls)
        assert failed == want_failed and checked == images
