import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpyolo.imaging import (
    BORDER_COLOR,
    Image,
    PpmError,
    draw_detections,
    list_frames,
    pack_input,
    read_ppm,
    resize_nearest,
    write_ppm,
)
from lpyolo.model import PIXEL_SCALE
from lpyolo.postprocess import Detection


def rand_image(rng, w, h):
    return Image(width=w, height=h, pixels=rng.integers(0, 256, 3 * w * h, dtype=np.uint8).tobytes())


def det(cx, cy, w, h):
    return Detection(cx=cx, cy=cy, w=w, h=h, objectness=1.0, class_score=1.0)


class TestPpm:
    def test_tiny_file(self, tmp_path):
        p = tmp_path / "t.ppm"
        p.write_bytes(b"P6\n2 1\n255\n\x01\x02\x03\x04\x05\x06")
        img = read_ppm(p)
        assert (img.width, img.height) == (2, 1)
        assert img.array()[0, 0].tolist() == [1, 2, 3]
        assert img.array()[0, 1].tolist() == [4, 5, 6]

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rand_image(rng, 31, 17)
        p = tmp_path / "rt.ppm"
        write_ppm(img, p)
        back = read_ppm(p)
        assert back == img

    def test_header_comments(self, tmp_path):
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6\n# a comment\n1 # inline\n1\n255\n\x00\x00\x00")
        img = read_ppm(p)
        assert (img.width, img.height) == (1, 1)

    def test_rejects_ascii_ppm(self, tmp_path):
        p = tmp_path / "p3.ppm"
        p.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(PpmError, match="P6"):
            read_ppm(p)

    def test_rejects_other_maxval(self, tmp_path):
        p = tmp_path / "m.ppm"
        p.write_bytes(b"P6\n1 1\n254\n\x00\x00\x00")
        with pytest.raises(PpmError, match="maxval"):
            read_ppm(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "tr.ppm"
        p.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
        with pytest.raises(PpmError, match="truncated"):
            read_ppm(p)

    def test_trailing_bytes(self, tmp_path):
        p = tmp_path / "tb.ppm"
        p.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00\x00")
        with pytest.raises(PpmError, match="trailing"):
            read_ppm(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "th.ppm"
        p.write_bytes(b"P6\n2 1\n255")
        with pytest.raises(PpmError):
            read_ppm(p)

    def test_non_numeric_header(self, tmp_path):
        p = tmp_path / "nn.ppm"
        p.write_bytes(b"P6\nx 1\n255\n\x00\x00\x00")
        with pytest.raises(PpmError, match="non-numeric"):
            read_ppm(p)

    def test_image_buffer_validated(self):
        with pytest.raises(ValueError):
            Image(width=2, height=2, pixels=b"\x00" * 11)
        with pytest.raises(ValueError):
            Image(width=0, height=2, pixels=b"")


class TestResize:
    def test_identity(self):
        rng = np.random.default_rng(1)
        img = rand_image(rng, 416, 416)
        assert resize_nearest(img, 416, 416) == img

    def test_upscale_1x1(self):
        img = Image(width=1, height=1, pixels=b"\x09\x08\x07")
        out = resize_nearest(img, 416, 416)
        arr = out.array()
        assert (out.width, out.height) == (416, 416)
        assert np.all(arr.reshape(-1, 3) == [9, 8, 7])

    def test_exact_downscale_by_two(self):
        rng = np.random.default_rng(2)
        img = rand_image(rng, 832, 832)
        out = resize_nearest(img, 416, 416)
        src = img.array()
        assert np.array_equal(out.array(), src[::2, ::2])

    def test_index_formula(self):
        # 3x2 -> 5x4, mapping floor(dst * src / out) on both axes
        src = np.arange(3 * 2 * 3, dtype=np.uint8).reshape(2, 3, 3)
        img = Image(width=3, height=2, pixels=src.tobytes())
        out = resize_nearest(img, 5, 4).array()
        xs = [0, 0, 1, 1, 2]
        ys = [0, 0, 1, 1]
        for dy in range(4):
            for dx in range(5):
                assert np.array_equal(out[dy, dx], src[ys[dy], xs[dx]])

    def test_no_new_colors(self):
        rng = np.random.default_rng(3)
        img = rand_image(rng, 7, 5)
        out = resize_nearest(img, 13, 29)
        src_colors = {tuple(px) for px in img.array().reshape(-1, 3)}
        out_colors = {tuple(px) for px in out.array().reshape(-1, 3)}
        assert out_colors <= src_colors

    def test_bad_size(self):
        img = Image(width=1, height=1, pixels=b"\x00\x00\x00")
        with pytest.raises(ValueError):
            resize_nearest(img, 0, 5)


    @settings(max_examples=60, deadline=None)
    @given(
        src_w=st.integers(1, 40),
        src_h=st.integers(1, 40),
        out_w=st.integers(1, 40),
        out_h=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_fancy_index_form(self, src_w, src_h, out_w, out_h, seed):
        img = rand_image(np.random.default_rng(seed), src_w, src_h)
        xs = (np.arange(out_w, dtype=np.int64) * src_w) // out_w
        ys = (np.arange(out_h, dtype=np.int64) * src_h) // out_h
        want = img.array()[ys][:, xs].tobytes()
        assert resize_nearest(img, out_w, out_h).pixels == want


class TestPackInput:
    def test_black_and_white(self):
        black = Image(width=416, height=416, pixels=bytes(3 * 416 * 416))
        t = pack_input(black)
        assert t.shape == (416, 416, 3)
        assert np.all(t.data == 0)
        white = Image(width=416, height=416, pixels=b"\xff" * (3 * 416 * 416))
        tw = pack_input(white)
        assert np.all(tw.data == 255)
        assert tw.params.scale == PIXEL_SCALE
        assert tw.data[0] * tw.params.scale == 1.0

    def test_flat_index_layout(self):
        rng = np.random.default_rng(4)
        img = rand_image(rng, 416, 416)
        t = pack_input(img)
        arr = img.array()
        for y, x, c in [(0, 0, 0), (0, 1, 2), (5, 7, 1), (415, 415, 2)]:
            assert t.data[(y * 416 + x) * 3 + c] == arr[y, x, c]

    def test_one_byte_per_activation(self):
        img = rand_image(np.random.default_rng(5), 416, 416)
        t = pack_input(img)
        assert t.data.dtype == np.uint8
        assert t.data.flags.owndata
        assert t.data.tobytes() == img.pixels

    def test_requires_network_size(self):
        img = Image(width=10, height=10, pixels=bytes(300))
        with pytest.raises(ValueError, match="416"):
            pack_input(img)


class TestDraw:
    def test_empty_list_is_noop(self):
        rng = np.random.default_rng(6)
        img = rand_image(rng, 64, 48)
        assert draw_detections(img, []) == img

    def test_centered_box_bands(self):
        img = Image(width=416, height=416, pixels=bytes(3 * 416 * 416))
        out = draw_detections(img, [det(0.5, 0.5, 0.25, 0.25)]).array()
        # corners round to 156 and 260
        for r in (156, 157, 259, 260):
            assert np.array_equal(out[r, 200], BORDER_COLOR)
            assert np.array_equal(out[200, r], BORDER_COLOR)
        assert np.array_equal(out[156, 156], BORDER_COLOR)
        assert np.array_equal(out[260, 260], BORDER_COLOR)
        # interior and exterior untouched
        assert np.array_equal(out[200, 200], (0, 0, 0))
        assert np.array_equal(out[100, 100], (0, 0, 0))
        assert np.array_equal(out[158, 200], (0, 0, 0))

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        img = rand_image(rng, 128, 128)
        dets = [det(0.5, 0.5, 0.4, 0.3), det(0.2, 0.3, 0.2, 0.2)]
        once = draw_detections(img, dets)
        twice = draw_detections(once, dets)
        assert once == twice

    def test_clips_at_edges(self):
        # box centered on the corner: only its bottom/right edges are visible
        img = Image(width=64, height=64, pixels=bytes(3 * 64 * 64))
        out = draw_detections(img, [det(0.0, 0.0, 0.5, 0.5)])
        arr = out.array()
        assert np.array_equal(arr[16, 5], BORDER_COLOR)  # bottom band
        assert np.array_equal(arr[5, 16], BORDER_COLOR)  # right band
        assert np.array_equal(arr[0, 0], (0, 0, 0))  # interior untouched
        assert np.array_equal(arr[40, 40], (0, 0, 0))  # outside untouched

    def test_only_border_color_added(self):
        img = Image(width=64, height=64, pixels=b"\x10" * (3 * 64 * 64))
        out = draw_detections(img, [det(0.5, 0.5, 0.5, 0.5)])
        colors = {tuple(px) for px in out.array().reshape(-1, 3)}
        assert colors == {(16, 16, 16), BORDER_COLOR}

    def test_source_untouched(self):
        img = Image(width=64, height=64, pixels=bytes(3 * 64 * 64))
        draw_detections(img, [det(0.5, 0.5, 0.5, 0.5)])
        assert img.pixels == bytes(3 * 64 * 64)


class TestListFrames:
    def test_sorted_ppm_only(self, tmp_path):
        for name in ("b.ppm", "a.ppm", "notes.txt", "c.PPM"):
            (tmp_path / name).write_bytes(b"")
        frames = list_frames(tmp_path)
        assert [f.split("/")[-1] for f in frames] == ["a.ppm", "b.ppm", "c.PPM"]
