"""Mutation fuzzing of every parser of outside input: weight files, PPM
frames, wire messages, annotation files, folding specs and run configs.

Each case starts from a valid file and applies byte flips, cuts and
insertions of tokens that break naive number handling. A parser may reject
the result only with a ValueError subclass, and the weight-file and wire
parsers only with their own WeightFileError and WireError; any other
exception fails.
Inputs stay small, so a forged size field has to be rejected from the
header rather than by allocating what it claims.
"""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpyolo.folding import parse_folding_spec
from lpyolo.imaging import read_ppm
from lpyolo.model import (ModelConfig, WeightFileError, load_run_config, load_weights, random_init,
                          save_weights)
from lpyolo.pipeline import FrameMessage, WireError, encode_end, encode_frame, read_frame
from lpyolo.postprocess import parse_widerface_gt

TOKENS = (
    b"-",
    b"nan",
    b"1e400",
    b"18446744073709551617",  # 2^64 + 1
    b"9" * 400,  # an int beyond float range
    b"9" * 5000,  # beyond the int-from-string digit limit
)

MUTATION = st.tuples(
    st.sampled_from(("flip", "cut", "truncate", "insert")),
    # half the positions land in the first bytes, where headers live
    st.one_of(st.integers(0, 64), st.integers(0, 1 << 30)),
    st.integers(1, 255),
    st.sampled_from(TOKENS),
)


def mutate(blob: bytes, ops) -> bytes:
    b = bytearray(blob)
    for kind, pos, n, token in ops:
        pos %= len(b) + 1
        if kind == "flip" and pos < len(b):
            b[pos] ^= n
        elif kind == "cut":
            del b[pos : pos + n]
        elif kind == "truncate":
            del b[pos:]
        elif kind == "insert":
            b[pos:pos] = token
    return bytes(b)


def _valid_inputs(tmp_path) -> dict:
    path = tmp_path / "seed.lpyq"
    save_weights(random_init(ModelConfig(weight_bits=4, act_bits=4), seed=0), path)
    frame = FrameMessage(
        frame_id=3, width=2, height=3,
        detections=((0.5, 0.5, 0.25, 0.25, 0.9, 0.8), (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)),
        payload=bytes(range(18)),
    )
    run = {
        "anchors": [[81, 82], [135, 169], [344, 319]],
        "conf_threshold": 0.25, "nms_iou": 0.45, "decode_mode": "direct",
    }
    return {
        "weights": path.read_bytes(),
        "ppm": b"P6\n# comment\n4 3\n255\n" + bytes(range(36)),
        "wire": encode_frame(frame) + encode_end(),
        "annotations": b"a.jpg\n2\n10 20 30 40 0 1\n5 5 8 9\nb.jpg\n0\n0 0 0 0\n",
        "folding": b"# layer pe simd\n" + b"".join(b"%d 1 1\n" % i for i in range(1, 11)),
        "run_config": json.dumps(run).encode(),
    }


# the error each parser may raise; any other is a failure
ALLOWED_ERRORS = {"weights": WeightFileError, "wire": WireError}

FILE_PARSERS = {
    "weights": load_weights,
    "ppm": read_ppm,
    "annotations": parse_widerface_gt,
    "folding": parse_folding_spec,
    "run_config": load_run_config,
}


def _parse(name: str, blob: bytes, tmp) -> None:
    if name == "wire":
        f = io.BytesIO(blob)
        while read_frame(f) is not None:
            pass
        return
    path = tmp / f"case-{name}"
    path.write_bytes(blob)
    FILE_PARSERS[name](path)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    inputs = _valid_inputs(tmp)
    for name, blob in inputs.items():
        _parse(name, blob, tmp)  # every seed input parses as given
    return tmp, inputs


@pytest.mark.parametrize("name", sorted([*FILE_PARSERS, "wire"]))
@settings(max_examples=150, deadline=None)
@given(ops=st.lists(MUTATION, min_size=1, max_size=4))
def test_only_value_errors_escape(valid, name, ops):
    tmp, inputs = valid
    try:
        _parse(name, mutate(inputs[name], ops), tmp)
    except ALLOWED_ERRORS.get(name, ValueError):
        pass
