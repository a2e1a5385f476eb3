"""AVI/MJPEG container codec (grawler_ray/functions/avi.py) + the REAL
video frame-sampling stage.  The container walk is pinned byte-level
(header fields, JUNK chunks, 'LIST rec ' nesting, word alignment,
truncation -> AviError); frame decode runs through the from-scratch
JPEG codec, so roundtrips check pixel closeness; the Ray stage is
checked against a serial decode of the same synthesized payloads."""

import struct

import numpy as np
import pytest

from grawler_ray.functions.avi import (
    AviError,
    avi_meta,
    decode_avi,
    encode_avi,
)

SF = "/root/testdata/sf0.001"


def _frames(n=4, h=24, w=32, seed=0):
    y, x = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    base = (seed + 3 * y + 5 * x) % 256
    return [
        np.stack([(base + 20 * k) % 256, (base + 60) % 256, base], -1).astype(
            np.uint8
        )
        for k in range(n)
    ]


class TestCodec:
    def test_meta(self):
        avi = encode_avi(_frames(5), fps=25)
        m = avi_meta(avi)
        assert m == {
            "width": 32,
            "height": 24,
            "n_frames": 5,
            "fps_milli": 25000,
            "codec": "MJPG",
        }

    def test_roundtrip_pixels_close(self):
        fr = _frames(3)
        dec = decode_avi(encode_avi(fr, fps=10, quality=95))
        assert [d["frame_idx"] for d in dec] == [0, 1, 2]
        for d, orig in zip(dec, fr):
            assert d["image"].shape == orig.shape
            # smooth gradients survive quality-95 JPEG within a few levels
            err = np.abs(d["image"].astype(int) - orig.astype(int)).mean()
            assert err < 6.0

    def test_stride_and_max_frames(self):
        avi = encode_avi(_frames(7))
        assert [d["frame_idx"] for d in decode_avi(avi, stride=3)] == [0, 3, 6]
        assert len(decode_avi(avi, max_frames=2)) == 2

    def test_grayscale_frames(self):
        fr = [f[:, :, 0] for f in _frames(2)]
        dec = decode_avi(encode_avi(fr, quality=95))
        assert dec[0]["image"].shape == fr[0].shape
        assert np.abs(dec[0]["image"].astype(int) - fr[0].astype(int)).mean() < 6.0

    def test_junk_and_rec_nesting(self):
        """Hand-assemble an AVI with a JUNK chunk and frames nested in a
        'LIST rec ' group — both spec-legal shapes the encoder doesn't
        emit."""
        base = encode_avi(_frames(2), fps=10)
        m = avi_meta(base)
        # extract the two jpeg frame bodies from the encoder's output
        jpegs = [d for d in _raw_video_chunks(base)]

        def chunk(cc, body):
            return cc + struct.pack("<I", len(body)) + body + (
                b"\x00" if len(body) & 1 else b""
            )

        hdrl_start = base.index(b"LIST", 12)
        hdrl_size = struct.unpack_from("<I", base, hdrl_start + 4)[0]
        hdrl = base[hdrl_start : hdrl_start + 8 + hdrl_size + (hdrl_size & 1)]
        rec = chunk(b"LIST", b"rec " + b"".join(chunk(b"00dc", j) for j in jpegs))
        movi = chunk(b"LIST", b"movi" + chunk(b"JUNK", b"\x00" * 11) + rec)
        payload = b"AVI " + hdrl + movi
        avi = b"RIFF" + struct.pack("<I", len(payload)) + payload
        assert avi_meta(avi) == m
        dec = decode_avi(avi)
        assert [d["frame_idx"] for d in dec] == [0, 1]

    def test_errors(self):
        with pytest.raises(AviError):
            avi_meta(b"RIFF\x04\x00\x00\x00WAVE")
        with pytest.raises(AviError):
            decode_avi(b"not an avi at all")
        avi = encode_avi(_frames(3))
        for cut in (4, 11, 40, len(avi) // 2, len(avi) - 3):
            with pytest.raises(AviError):
                decode_avi(avi[:cut])
        # non-MJPEG frame payload surfaces as AviError
        bad = avi.replace(b"\xff\xd8\xff", b"\x00\x00\x00", 1)
        with pytest.raises(AviError):
            decode_avi(bad)

    def test_empty_frames_rejected(self):
        with pytest.raises(AviError):
            encode_avi([])
        with pytest.raises(AviError):
            encode_avi([_frames(1)[0], _frames(1, h=8, w=8)[0]])


def _raw_video_chunks(data):
    from grawler_ray.functions.avi import _iter_video_chunks

    return list(_iter_video_chunks(data))


class TestRealStage:
    def test_avi_frames_stage_vs_serial(self, ray_session):
        import ray.data

        from grawler_ray.functions.avi import avi_meta as meta_fn
        from grawler_ray.stages.multimodal import sample_avi_frames, synth_avi

        docs = ray.data.read_parquet(f"{SF}/documents.parquet", columns=["doc_id"])
        got = (
            sample_avi_frames(docs, stride=2)
            .to_pandas()
            .sort_values(["doc_id", "frame_idx"])
            .reset_index(drop=True)
        )
        sample_ids = got.doc_id.drop_duplicates().sample(8, random_state=1)
        for doc_id in sample_ids:
            payload = synth_avi(int(doc_id))
            serial = decode_avi(payload, stride=2)
            rows = got[got.doc_id == doc_id]
            assert list(rows.frame_idx) == [d["frame_idx"] for d in serial]
            assert (rows.fps_milli == meta_fn(payload)["fps_milli"]).all()
            for (_, r), d in zip(rows.iterrows(), serial):
                img = d["image"]
                assert r.px_mean_milli == int(img.sum(dtype=np.int64)) * 1000 // img.size

    def test_stage_skips_non_avi(self):
        import pyarrow as pa

        from grawler_ray.stages.multimodal import SampleAviFrames, synth_avi

        t = pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "payload": pa.array(
                    [b"plain text", synth_avi(2), b"RIFF\x00\x00\x00\x00AVI "],
                    pa.binary(),
                ),
            }
        )
        out = SampleAviFrames(stride=1)(t)
        assert set(out.column("doc_id").to_pylist()) == {2}


class TestSceneDetection:
    @staticmethod
    def _planted(doc_id):
        rng = np.random.default_rng(doc_id * 104729 + 7)
        bounds, pos = [], 0
        for _ in range(2 + doc_id % 3):
            rng.integers(20, 236, (6, 8))
            k = 2 + int(rng.integers(0, 3))
            bounds.append(pos)
            pos += k
        return bounds, pos

    def test_planted_boundaries_recovered_exactly(self):
        from grawler_ray.stages.multimodal import scene_boundaries, synth_scene_avi

        for doc_id in range(50):
            want, _total = self._planted(doc_id)
            assert scene_boundaries(synth_scene_avi(doc_id)) == want, doc_id

    def test_stage_rows(self, ray_session):
        import ray.data

        from grawler_ray.stages.multimodal import detect_avi_scenes

        docs = ray.data.from_items([{"doc_id": i} for i in range(40)])
        got = (
            detect_avi_scenes(docs)
            .to_pandas()
            .sort_values(["doc_id", "scene_idx"])
            .reset_index(drop=True)
        )
        for doc_id in range(40):
            want, total = self._planted(doc_id)
            rows = got[got.doc_id == doc_id]
            assert list(rows.start_frame) == want
            assert list(rows.scene_idx) == list(range(len(want)))
            assert rows.n_frames.sum() == total  # scenes tile the video

    def test_stage_skips_non_avi(self):
        import pyarrow as pa

        from grawler_ray.stages.multimodal import DetectAviScenes

        t = pa.table(
            {
                "doc_id": pa.array([1], pa.int64()),
                "payload": pa.array([b"not avi"], pa.binary()),
            }
        )
        assert DetectAviScenes()(t).num_rows == 0

    def test_stage_decodes_each_payload_once(self, monkeypatch):
        import pyarrow as pa

        import grawler_ray.functions.avi as avi_mod
        from grawler_ray.stages.multimodal import DetectAviScenes, synth_scene_avi

        calls = []
        real = avi_mod.decode_avi

        def counting(payload, *a, **kw):
            calls.append(payload)
            return real(payload, *a, **kw)

        monkeypatch.setattr(avi_mod, "decode_avi", counting)
        payloads = [synth_scene_avi(i) for i in range(3)]
        t = pa.table(
            {
                "doc_id": pa.array([0, 1, 2], pa.int64()),
                "payload": pa.array(payloads, pa.binary()),
            }
        )
        out = DetectAviScenes()(t)
        assert calls == payloads  # one decode per payload, in row order
        for doc_id in range(3):
            want, total = self._planted(doc_id)
            rows = out.filter(pa.compute.equal(out.column("doc_id"), doc_id))
            assert rows.column("start_frame").to_pylist() == want
            assert sum(rows.column("n_frames").to_pylist()) == total
