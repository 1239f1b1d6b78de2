"""Golden outputs: the first seed-0 inputs of the benchmark's workloads,
run through the package's detection chain, must reproduce the digests in
perfbench/refs.json (recorded from the integer engine the benchmark was
defined on). Any change to an output, in the CNN, the resize or the
decode, fails here and not only in a benchmark run."""

import importlib
import json
import os
import sys

import pytest

from lpyolo.cli import main
from lpyolo.imaging import Image, to_input
from lpyolo.model import ModelConfig, RunConfig, forward, random_init, save_weights
from lpyolo.postprocess import detect

from loopback import serve_one_client

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
FRAMES = 8


@pytest.fixture(scope="module")
def bench():
    """perfbench's check and workloads modules, and the recorded refs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)
        check = importlib.import_module("check")
        workloads = importlib.import_module("workloads")
    with open(os.path.join(PERFBENCH, "refs.json"), encoding="utf-8") as f:
        refs = json.load(f)
    return check, workloads, refs


@pytest.mark.parametrize("name", ["stream-backlog", "stream-paced"])
def test_stream_frames_match_refs(bench, name):
    check, workloads, refs = bench
    wl = workloads.WORKLOADS[name]
    model = random_init(ModelConfig(wl.bits, wl.bits), workloads.WEIGHT_SEED)
    run = RunConfig(conf_threshold=wl.conf)
    for i in range(FRAMES):
        img = Image(workloads.STREAM_WIDTH, workloads.STREAM_HEIGHT,
                    workloads.stream_frame(check.REF_SEED, i))
        dets = detect(forward(model, to_input(img)), model.config, run)
        assert check.det_digest(dets) == refs[name]["frames"][i], f"{name} frame {i}"


@pytest.mark.parametrize("name", ["stream-backlog", "stream-paced"])
def test_pipeline_messages_match_refs(bench, name):
    # the stages and FrameMessage a served client reads, not only detect()
    check, workloads, refs = bench
    wl = workloads.WORKLOADS[name]
    model = random_init(ModelConfig(wl.bits, wl.bits), workloads.WEIGHT_SEED)
    frames = [Image(workloads.STREAM_WIDTH, workloads.STREAM_HEIGHT,
                    workloads.stream_frame(check.REF_SEED, i)) for i in range(FRAMES)]
    # the client reads up to the end marker
    msgs, _stats = serve_one_client(frames, model, run_cfg=RunConfig(conf_threshold=wl.conf))
    assert [m.frame_id for m in msgs] == list(range(FRAMES))
    for i, msg in enumerate(msgs):
        assert check.det_digest(msg.detections) == refs[name]["frames"][i], f"{name} frame {i}"
        assert msg.payload == frames[i].pixels


def test_first_eval_call_matches_refs(bench, tmp_path, capsys):
    check, workloads, refs = bench
    wl = workloads.WORKLOADS["eval-8w8a"]
    weights = str(tmp_path / "w8.lpyq")
    save_weights(random_init(ModelConfig(wl.bits, wl.bits), workloads.WEIGHT_SEED), weights)
    gt = workloads.write_eval_call(str(tmp_path), check.REF_SEED, 0)
    det = str(tmp_path / "detections.txt")
    assert main(["eval", "--weights", weights, "--images", str(tmp_path), "--gt", gt,
                 "--detections", det, "--conf", repr(wl.conf)]) == 0
    assert capsys.readouterr().out.strip() == refs["eval-8w8a"]["ap"][0]
    with open(det, encoding="utf-8") as f:
        lines = f.read().splitlines()
    for n in workloads.eval_indices(0):
        iid = workloads.image_id(n)
        mine = [line for line in lines if line.split(" ", 1)[0] == iid]
        assert check.text_digest(mine) == refs["eval-8w8a"]["images"][n], iid
