import dataclasses
import json
import os
import socket
import subprocess
import sys

import numpy as np
import pytest

import lpyolo
from lpyolo.cli import main
from lpyolo.imaging import Image, read_ppm, write_ppm
from lpyolo.model import ModelConfig, load_run_config, random_init, save_weights
from lpyolo.pipeline import read_frame


@pytest.fixture(scope="module")
def weights(tmp_path_factory):
    path = tmp_path_factory.mktemp("w") / "w4.lpyq"
    assert main(["init-weights", "--weight-bits", "4", "--act-bits", "4",
                 "--out", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def image(tmp_path_factory):
    rng = np.random.default_rng(0)
    img = Image(width=64, height=64,
                pixels=rng.integers(0, 256, 3 * 64 * 64, dtype=np.uint8).tobytes())
    path = tmp_path_factory.mktemp("img") / "face.ppm"
    write_ppm(img, path)
    return str(path)


class TestInitWeights:
    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.lpyq", tmp_path / "b.lpyq"
        for p in (a, b):
            assert main(["init-weights", "--weight-bits", "3", "--act-bits", "5",
                         "--seed", "9", "--out", str(p)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert "3W5A" in capsys.readouterr().out

    def test_seed_changes_bytes(self, tmp_path):
        a, b = tmp_path / "a.lpyq", tmp_path / "b.lpyq"
        main(["init-weights", "--weight-bits", "3", "--act-bits", "5",
              "--seed", "1", "--out", str(a)])
        main(["init-weights", "--weight-bits", "3", "--act-bits", "5",
              "--seed", "2", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_header_bits(self, tmp_path):
        p = tmp_path / "w.lpyq"
        main(["init-weights", "--weight-bits", "2", "--act-bits", "1",
              "--out", str(p)])
        blob = p.read_bytes()
        assert blob[:4] == b"LPYQ"
        assert (blob[5], blob[6]) == (2, 1)

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        assert main(["init-weights", "--weight-bits", "4", "--act-bits", "4",
                     "--seed", "-1", "--out", str(tmp_path / "w.lpyq")]) == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "w.lpyq").exists()

    def test_bad_bits_exit_2(self, tmp_path, capsys):
        assert main(["init-weights", "--weight-bits", "9", "--act-bits", "4",
                     "--out", str(tmp_path / "w.lpyq")]) == 2
        assert "config" in capsys.readouterr().err


class TestInfer:
    def test_runs_and_writes_outputs(self, weights, image, tmp_path, capsys):
        out = tmp_path / "out.ppm"
        dump = tmp_path / "grid.bin"
        code = main(["infer", "--weights", weights, "--image", image,
                     "--out", str(out), "--grid-dump", str(dump), "--conf", "0.0"])
        assert code == 0
        annotated = read_ppm(out)
        assert (annotated.width, annotated.height) == (64, 64)
        assert len(dump.read_bytes()) == 13 * 13 * 18
        for line in capsys.readouterr().out.splitlines():
            fields = [float(t) for t in line.split()]
            assert len(fields) == 5

    def test_deterministic_across_runs(self, weights, image, tmp_path, capsys):
        outs = []
        for tag in ("1", "2"):
            out = tmp_path / f"out{tag}.ppm"
            dump = tmp_path / f"grid{tag}.bin"
            assert main(["infer", "--weights", weights, "--image", image,
                         "--out", str(out), "--grid-dump", str(dump)]) == 0
            outs.append((out.read_bytes(), dump.read_bytes(),
                         capsys.readouterr().out))
        assert outs[0] == outs[1]

    def test_missing_weights_exit_2(self, image, tmp_path, capsys):
        code = main(["infer", "--weights", str(tmp_path / "nope.lpyq"),
                     "--image", image, "--out", str(tmp_path / "o.ppm")])
        assert code == 2
        assert "weights" in capsys.readouterr().err

    def test_corrupt_weights_exit_2(self, image, tmp_path, capsys):
        bad = tmp_path / "bad.lpyq"
        bad.write_bytes(b"JUNKJUNKJUNK")
        code = main(["infer", "--weights", str(bad), "--image", image,
                     "--out", str(tmp_path / "o.ppm")])
        assert code == 2
        assert "weights" in capsys.readouterr().err

    def test_missing_image_exit_2(self, weights, tmp_path, capsys):
        code = main(["infer", "--weights", weights,
                     "--image", str(tmp_path / "nope.ppm"),
                     "--out", str(tmp_path / "o.ppm")])
        assert code == 2
        assert "image" in capsys.readouterr().err

    def test_unknown_config_key_exit_2(self, weights, image, tmp_path, capsys):
        cfgp = tmp_path / "run.json"
        cfgp.write_text(json.dumps({"conf_thresh": 0.5}))
        code = main(["infer", "--weights", weights, "--image", image,
                     "--out", str(tmp_path / "o.ppm"), "--config", str(cfgp)])
        assert code == 2
        assert "config" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("nms_iou", "0.5"),
        ("anchors", 5),
        ("anchors", [[81, 82], [135, 169], [344, "319"]]),
        ("conf_threshold", [1]),
        ("conf_threshold", float("nan")),
    ])
    def test_wrongly_typed_config_value_exit_2(self, weights, image, tmp_path, capsys,
                                               key, value):
        cfgp = tmp_path / "run.json"
        cfgp.write_text(json.dumps({key: value}))
        with pytest.raises(ValueError, match=f"{key} must be"):
            load_run_config(cfgp)
        code = main(["infer", "--weights", weights, "--image", image,
                     "--out", str(tmp_path / "o.ppm"), "--config", str(cfgp)])
        assert code == 2
        assert key in capsys.readouterr().err

    def test_config_bit_widths_are_unknown_keys(self, weights, image, tmp_path, capsys):
        # bit widths come only from the weight file's header
        cfgp = tmp_path / "run.json"
        cfgp.write_text(json.dumps({"weight_bits": 4}))
        code = main(["infer", "--weights", weights, "--image", image,
                     "--out", str(tmp_path / "o.ppm"), "--config", str(cfgp)])
        assert code == 2
        assert "unknown run config keys: weight_bits" in capsys.readouterr().err

    def test_accumulator_past_2_31_refused_at_load(self, image, tmp_path, capsys):
        # conv1's bias alone puts its accumulator bound past 2^31
        model = random_init(ModelConfig(weight_bits=4, act_bits=4), seed=0)
        conv1 = model.layers[0]
        bias = conv1.weights.bias.copy()
        bias[0] = (1 << 31) - 1
        conv1 = dataclasses.replace(
            conv1, weights=dataclasses.replace(conv1.weights, bias=bias))
        bad = tmp_path / "bad.lpyq"
        save_weights(dataclasses.replace(model, layers=(conv1,) + model.layers[1:]), bad)
        for argv in (["infer", "--image", image, "--out", str(tmp_path / "o.ppm")],
                     ["serve", "--source", str(tmp_path), "--listen", "127.0.0.1:0"]):
            assert main(argv + ["--weights", str(bad)]) == 2
            err = capsys.readouterr().err
            assert "weights: conv1:" in err and "2^31" in err
        assert not (tmp_path / "o.ppm").exists()

    def test_flag_overrides_config_file(self, weights, image, tmp_path, capsys):
        # conf 1.0 from the file would keep everything out; the flag wins
        cfgp = tmp_path / "run.json"
        cfgp.write_text(json.dumps({"conf_threshold": 1.0}))
        out = tmp_path / "o.ppm"
        assert main(["infer", "--weights", weights, "--image", image,
                     "--out", str(out), "--config", str(cfgp),
                     "--conf", "0.0"]) == 0
        assert len(capsys.readouterr().out.splitlines()) > 0


class TestBench:
    def test_table_shape(self, weights, image, capsys):
        assert main(["bench", "--weights", weights, "--image", image,
                     "--iters", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "iterations: 2"
        assert lines[1].split() == ["stage", "mean_ms", "min_ms", "max_ms"]
        stages = [l.split()[0] for l in lines[2:5]]
        assert stages == ["Preprocessing", "CNN", "Postprocessing"]

    def test_precision_plan_4w4a_all_float32(self, weights, image, capsys):
        assert main(["bench", "--weights", weights, "--image", image,
                     "--iters", "1"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err[0].split() == ["conv", "in_qmax", "acc_bound", "dtype", "headroom_bits"]
        rows = [l.split() for l in err[1:11]]
        assert [r[0] for r in rows] == [f"conv{i}" for i in range(1, 11)]
        assert {r[3] for r in rows} == {"float32"}
        for _name, qmax, bound, _dtype, headroom in rows:
            assert int(qmax) in (15, 255)
            assert float(headroom) == pytest.approx(31 - np.log2(int(bound)), abs=0.006)

    def test_precision_plan_shows_float64(self, tmp_path, image, capsys):
        # a conv5 bias of 2^24 alone puts its bound past float32
        model = random_init(ModelConfig(weight_bits=4, act_bits=4), seed=0)
        steps = list(model.layers)
        w = steps[4].weights
        wide = dataclasses.replace(w, bias=np.full(w.out_channels, 1 << 24, dtype=np.int32))
        steps[4] = dataclasses.replace(steps[4], weights=wide)
        path = tmp_path / "wide.lpyq"
        save_weights(dataclasses.replace(model, layers=tuple(steps)), path)
        assert main(["bench", "--weights", str(path), "--image", image,
                     "--iters", "1"]) == 0
        rows = {l.split()[0]: l.split() for l in capsys.readouterr().err.splitlines()[1:11]}
        assert rows["conv5"][3] == "float64"
        assert int(rows["conv5"][2]) >= 1 << 24
        assert rows["conv4"][3] == "float32"

    def test_cnn_cpu_and_faults_per_pass(self, weights, image, capsys):
        assert main(["bench", "--weights", weights, "--image", image,
                     "--iters", "3"]) == 0
        out = capsys.readouterr()
        assert len(out.out.splitlines()) == 5
        words = out.err.splitlines()[-1].split()
        assert words[:3] == ["CNN", "per", "pass:"]
        assert words[3::2] == ["user_cpu_ms", "sys_cpu_ms", "minor_faults", "scratch_mb"]
        user, system, faults, scratch = (float(v) for v in words[4::2])
        assert user > 0.0 and system >= 0.0 and faults >= 0.0
        # this thread's conv and requantize scratch, within the 8 MB cap
        assert 0.0 < scratch <= 8.0

    def test_single_iter_stats_collapse(self, weights, image, capsys):
        assert main(["bench", "--weights", weights, "--image", image,
                     "--iters", "1"]) == 0
        for row in capsys.readouterr().out.splitlines()[2:5]:
            _name, mean, mn, mx = row.split()
            assert mean == mn == mx

    def test_zero_iters_exit_2(self, weights, image, capsys):
        assert main(["bench", "--weights", weights, "--image", image,
                     "--iters", "0"]) == 2
        assert "iters" in capsys.readouterr().err


class TestEval:
    def _dataset(self, tmp_path, n=2):
        rng = np.random.default_rng(1)
        d = tmp_path / "frames"
        d.mkdir()
        gt_lines = []
        for i in range(n):
            name = f"f{i}.ppm"
            img = Image(width=64, height=64,
                        pixels=rng.integers(0, 256, 3 * 64 * 64, dtype=np.uint8).tobytes())
            write_ppm(img, d / name)
            gt_lines += [name, "1", "10 10 20 20"]
        gt = tmp_path / "gt.txt"
        gt.write_text("\n".join(gt_lines) + "\n")
        return str(d), str(gt)

    def test_prints_ap(self, weights, tmp_path, capsys):
        images, gt = self._dataset(tmp_path)
        dump = tmp_path / "dets.txt"
        assert main(["eval", "--weights", weights, "--images", images,
                     "--gt", gt, "--detections", str(dump)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("AP@0.5: ")
        float(out.split()[1])  # parseable
        assert dump.exists()

    def test_extension_fallback(self, weights, tmp_path, capsys):
        # annotation ids ending .jpg must find the sibling .ppm frame
        images, _ = self._dataset(tmp_path)
        gt = tmp_path / "gt2.txt"
        gt.write_text("f0.jpg\n1\n10 10 20 20\n")
        assert main(["eval", "--weights", weights, "--images", images,
                     "--gt", str(gt)]) == 0
        assert capsys.readouterr().out.startswith("AP@0.5:")

    def test_no_ground_truth_note(self, weights, tmp_path, capsys):
        images, _ = self._dataset(tmp_path, n=1)
        gt = tmp_path / "gt0.txt"
        gt.write_text("f0.ppm\n0\n")
        assert main(["eval", "--weights", weights, "--images", images,
                     "--gt", str(gt)]) == 0
        assert capsys.readouterr().out.strip() == "AP@0.5: 0.000000 (no ground truth)"

    def test_missing_frame_exit_2(self, weights, tmp_path, capsys):
        images, _ = self._dataset(tmp_path, n=1)
        gt = tmp_path / "gtm.txt"
        gt.write_text("ghost.ppm\n1\n1 1 2 2\n")
        assert main(["eval", "--weights", weights, "--images", images,
                     "--gt", str(gt)]) == 2
        assert "ghost" in capsys.readouterr().err

    def test_bad_annotation_exit_2(self, weights, tmp_path, capsys):
        images, _ = self._dataset(tmp_path, n=1)
        gt = tmp_path / "bad.txt"
        gt.write_text("f0.ppm\nnot_a_number\n")
        assert main(["eval", "--weights", weights, "--images", images,
                     "--gt", str(gt)]) == 2
        assert "ground truth" in capsys.readouterr().err


class TestFold:
    def test_balance_report(self, capsys):
        assert main(["fold", "--balance", "100"]) == 0
        out = capsys.readouterr().out
        assert "bottleneck:" in out
        assert "estimated fps" in out

    def test_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "folds.txt"
        spec.write_text("".join(f"{i} 1 1\n" for i in range(1, 11)))
        assert main(["fold", "--spec", str(spec)]) == 0
        assert "conv7" in capsys.readouterr().out

    def test_bad_spec_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "folds.txt"
        spec.write_text("1 1 1\n")
        assert main(["fold", "--spec", str(spec)]) == 2
        assert "folding" in capsys.readouterr().err

    def test_low_budget_exit_2(self, capsys):
        assert main(["fold", "--balance", "3"]) == 2
        assert "folding" in capsys.readouterr().err

    def test_zero_clock_exit_2(self, capsys):
        assert main(["fold", "--balance", "10", "--clock-mhz", "0"]) == 2
        assert "clock" in capsys.readouterr().err

    def test_non_finite_clock_exit_2(self, capsys):
        for clock in ("nan", "inf"):
            assert main(["fold", "--balance", "10", "--clock-mhz", clock]) == 2
            assert "clock" in capsys.readouterr().err

    def test_spec_and_balance_conflict(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["fold", "--spec", "x", "--balance", "10"])

    def test_requires_one_mode(self):
        with pytest.raises(SystemExit):
            main(["fold"])


@pytest.mark.parametrize("flag", ["init-weights --out", "infer --out", "infer --grid-dump",
                                  "eval --detections"])
def test_unwritable_output_exit_2(flag, weights, image, tmp_path, capsys):
    # the output path's directory does not exist
    bad = str(tmp_path / "missing" / "out")
    out = str(tmp_path / "out.ppm")
    gt = tmp_path / "gt.txt"
    gt.write_text(f"{os.path.basename(image)}\n1\n10 10 20 20\n")
    argv = {
        "init-weights --out": ["init-weights", "--weight-bits", "4", "--act-bits", "4",
                               "--out", bad],
        "infer --out": ["infer", "--weights", weights, "--image", image, "--out", bad],
        "infer --grid-dump": ["infer", "--weights", weights, "--image", image,
                              "--out", out, "--grid-dump", bad],
        "eval --detections": ["eval", "--weights", weights, "--images",
                              os.path.dirname(image), "--gt", str(gt), "--detections", bad],
    }[flag]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: output: ")
    assert bad in err


class TestParser:
    def test_no_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["transmogrify"])

    def test_clock_flag(self, capsys):
        assert main(["fold", "--balance", "10", "--clock-mhz", "200"]) == 0
        assert "200.0 MHz" in capsys.readouterr().out


class TestServeCommand:
    def test_zero_queue_capacity_exit_2(self, weights, tmp_path, capsys):
        assert main(["serve", "--weights", weights, "--source", str(tmp_path),
                     "--listen", "127.0.0.1:0", "--queue-capacity", "0"]) == 2
        assert "queue capacity" in capsys.readouterr().err

    def test_bad_port_exit_2(self, weights, tmp_path, capsys):
        # "\u00b2" (superscript two) is a digit to str.isdigit but not to int()
        for port in ("99999", "\u00b2"):
            assert main(["serve", "--weights", weights, "--source", str(tmp_path),
                         "--listen", f"127.0.0.1:{port}"]) == 2
            assert port in capsys.readouterr().err

    def test_unresolvable_host_exit_2(self, weights, tmp_path, capsys):
        # the .invalid domain never resolves (RFC 6761)
        assert main(["serve", "--weights", weights, "--source", str(tmp_path),
                     "--listen", "nosuch.invalid:5555"]) == 2
        assert "listen address" in capsys.readouterr().err

    def _serve(self, weights, frames):
        """Run `lpyolo serve` on a frame directory in a child process, read
        its stream to the end marker; return (frame ids, exit code, stdout,
        stderr)."""
        # the child imports the same lpyolo as this process, installed or not
        src = os.path.dirname(os.path.dirname(lpyolo.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.Popen(
            [sys.executable, "-m", "lpyolo.cli", "serve",
             "--weights", weights, "--source", str(frames),
             "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        try:
            banner = proc.stdout.readline().strip()
            assert banner.startswith("listening on 127.0.0.1:")
            port = int(banner.rpartition(":")[2])
            with socket.create_connection(("127.0.0.1", port), timeout=30) as cli:
                f = cli.makefile("rb")
                ids = []
                while True:
                    msg = read_frame(f)
                    if msg is None:
                        break
                    ids.append(msg.frame_id)
            out, err = proc.communicate(timeout=30)
            return ids, proc.returncode, out, err
        finally:
            proc.kill()

    def _frames(self, tmp_path, count):
        rng = np.random.default_rng(3)
        frames = tmp_path / "frames"
        frames.mkdir()
        for i in range(count):
            img = Image(width=32, height=32,
                        pixels=rng.integers(0, 256, 3 * 32 * 32, dtype=np.uint8).tobytes())
            write_ppm(img, frames / f"{i}.ppm")
        return frames

    def test_streams_directory_over_tcp(self, weights, tmp_path):
        ids, code, out, err = self._serve(weights, self._frames(tmp_path, 2))
        assert ids == [0, 1]
        assert code == 0, err
        assert "served 2 frames" in out

    def test_malformed_frame_exit_2(self, weights, tmp_path):
        frames = self._frames(tmp_path, 2)
        bad = frames / "1.ppm"
        bad.write_bytes(bad.read_bytes()[:-3067])  # 5 of 3072 payload bytes
        _ids, code, _out, err = self._serve(weights, frames)
        assert code == 2, err
        assert "image" in err and "truncated" in err
