"""Record refs.json: the default seed's expected outputs, from the integer
forward pass of the engine the benchmark was defined on.

    python3 perfbench/record_refs.py

Takes about five minutes on two cores. Re-record only when an output
format changes on purpose; a speed-up must reproduce these digests.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from lpyolo.model import ModelConfig, RunConfig, random_init  # noqa: E402

# More than any run on this engine produces, with room for a faster engine;
# frames past these are checked by sampling (see check.py).
STREAM_FRAMES = {"stream-backlog": 400, "stream-paced": 96}
EVAL_CALLS = 200


def main() -> int:
    seed = check.REF_SEED
    refs = {}
    for name, wl in workloads.WORKLOADS.items():
        model = random_init(ModelConfig(wl.bits, wl.bits), workloads.WEIGHT_SEED)
        run_cfg = RunConfig(conf_threshold=wl.conf)
        if wl.kind == "stream":
            refs[name] = {"frames": [
                check.stream_expected(model, run_cfg, seed, i, exact=True)
                for i in range(STREAM_FRAMES[name])
            ]}
            continue
        images, aps = [], []
        for c in range(EVAL_CALLS):
            lines, ap = check.eval_expected(model, run_cfg, seed, c, exact=True)
            images += [check.text_digest(lines[n]) for n in workloads.eval_indices(c)]
            aps.append(ap)
        refs[name] = {"images": images, "ap": aps}
        print(f"{name}: {len(images)} images", file=sys.stderr)
    with open(check.REFS_PATH, "w", encoding="utf-8") as f:
        json.dump(refs, f, indent=0)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
