"""Multimodal column plumbing: opaque binary payloads + typed metadata.

Image/audio/video travel as ``binary`` columns; decode / feature-extract run
as actor-pool ``map_batches`` stages with small batch sizes (payloads are
large — batch_size x concurrency must fit the worker heap).

PNG and JPEG decode/resize are REAL: pure-stdlib codecs
(``functions/png.py`` — zlib IDAT inflate, all five scanline filters,
palette expansion; ``functions/jpeg.py`` — baseline T.81 Huffman +
exact-matrix IDCT, any sampling factors, restart intervals) run on
actual pixel data under ``real_decode=True`` / ``real_resize=True``,
with the exact box-average resample between them.  GIF decode
(``functions/gif.py`` — LZW, interlace, animation disposal) makes the
frame-sampling stage real too: animated GIFs genuinely ARE frame
sequences, so ``sample_gif_frames`` extracts true composed frames.
WAV audio decodes for real too (``functions/wav.py`` — RIFF PCM all
common widths, IEEE float, and COMPRESSED codecs G.711 u-law/A-law +
IMA ADPCM) with numpy DSP features whose pure-tone oracles are
closed-form.  MJPEG VIDEO is real as well: ``functions/avi.py`` walks
the RIFF/AVI container and every sampled frame decodes through the
from-scratch JPEG codec (``sample_avi_frames``).  For the formats whose
sample decode genuinely needs ffmpeg (mp3/aac audio, mp4/h264 video),
the container METADATA layer is still real: ``media_triage`` walks MP3
frame headers and MP4 box trees (``functions/mediameta.py``) for the
duration/dims/track-type columns a crawl filters on before any decode.
Only the sample-decode half of those formats remains an honest stub at
the ffmpeg slot, and the fake paths keep their deterministic
byte-length arithmetic so the DuckDB oracles stay exact.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_JPEG_SOI = b"\xff\xd8\xff"


class DecodeImageMeta:
    """Actor-pool stage: binary payload -> (n_bytes, width, height,
    channels, format, px_mean_milli).

    ``real_decode=True``: PNG and JPEG payloads are ACTUALLY decoded
    (dims, channels, px_mean_milli = floor(mean of all samples * 1000),
    exact integer via the sample sum); other payloads report
    format="unknown".  The fake path derives
    deterministic dims from byte length only, so the DuckDB oracle can
    reproduce it with octet_length arithmetic.
    """

    def __init__(self, real_decode: bool = False):
        self.real_decode = real_decode
        if real_decode:
            # per-actor setup: import the codecs once (the PIL-load slot)
            from ..functions.gif import decode_gif
            from ..functions.jpeg import decode_jpeg
            from ..functions.png import decode_png, png_meta

            self._decode = decode_png
            self._decode_jpeg = decode_jpeg
            self._decode_gif_first = lambda p: decode_gif(p, max_frames=1)[0]["image"]
            self._meta = png_meta

    def __call__(self, t: pa.Table) -> pa.Table:
        payloads = t.column("payload").to_pylist()
        n = [len(p or b"") for p in payloads]
        if self.real_decode:
            widths, heights, chans, fmts, means = [], [], [], [], []
            for p in payloads:
                p = p or b""
                if p.startswith(b"\x89PNG"):
                    fmt, dec = "png", self._decode
                elif p.startswith(_JPEG_SOI):
                    fmt, dec = "jpeg", self._decode_jpeg
                elif p.startswith(b"GIF8"):
                    fmt, dec = "gif", self._decode_gif_first
                else:
                    fmt, dec = "unknown", None
                px = None
                if dec is not None:
                    try:
                        px = dec(p)
                    except ValueError:
                        # corrupt/unsupported stream: report, don't kill
                        # the batch (real web corpora are full of these)
                        fmt = "corrupt"
                if px is None:
                    widths.append(0)
                    heights.append(0)
                    chans.append(0)
                    fmts.append(fmt)
                    means.append(0)
                else:
                    hh, ww = px.shape[:2]
                    widths.append(ww)
                    heights.append(hh)
                    chans.append(1 if px.ndim == 2 else px.shape[2])
                    fmts.append(fmt)
                    means.append(int(px.sum(dtype=np.int64)) * 1000 // px.size)
            return pa.table(
                {
                    "doc_id": t.column("doc_id"),
                    "n_bytes": pa.array(n, pa.int64()),
                    "width": pa.array(widths, pa.int64()),
                    "height": pa.array(heights, pa.int64()),
                    "channels": pa.array(chans, pa.int64()),
                    "format": pa.array(fmts, pa.string()),
                    "px_mean_milli": pa.array(means, pa.int64()),
                }
            )
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_bytes": pa.array(n, pa.int64()),
                "width": pa.array([x % 640 + 16 for x in n], pa.int64()),
                "height": pa.array([x % 480 + 16 for x in n], pa.int64()),
                "format": pa.array(["fake" for _ in n], pa.string()),
            }
        )


def to_payload_batch(t: pa.Table) -> pa.Table:
    """Test shim: documents.text utf-8 bytes as the opaque binary payload."""
    return pa.table(
        {
            "doc_id": t.column("doc_id"),
            "payload": pa.array(
                [(x or "").encode("utf-8") for x in t.column("text").to_pylist()],
                pa.binary(),
            ),
        }
    )


def decode_image_meta(docs_ds, batch_size: int = 256, concurrency=(2, 8)):
    """The wired stage: payload column -> metadata, actor pool, small batches."""
    return docs_ds.map_batches(to_payload_batch, batch_format="pyarrow").map_batches(
        DecodeImageMeta,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        fn_constructor_kwargs={"real_decode": False},
    )


class ResizeImage:
    """Actor-pool resize stage: payload -> resized payload + target dims.

    ``real_resize=True``: PNG/JPEG payloads decode, box-average resample
    to (width, height) — exact integral-image arithmetic, deterministic —
    and re-encode in their own format.  The STUB
    kernel deterministically truncates the payload to ``min(n_bytes,
    w*h)`` bytes so the byte-accounting (and the DuckDB oracle) stays
    exact while the Ray-side plumbing — actor pool, constructor args,
    binary in/out schema, small batches — is the real thing.
    """

    def __init__(self, width: int, height: int, real_resize: bool = False):
        self.width = width
        self.height = height
        self.real_resize = real_resize
        if real_resize:
            from ..functions.gif import decode_gif, encode_gif
            from ..functions.jpeg import decode_jpeg, encode_jpeg
            from ..functions.png import decode_png, encode_png, resize_box

            self._decode = decode_png
            self._encode = encode_png
            self._decode_jpeg = decode_jpeg
            self._encode_jpeg = encode_jpeg
            self._decode_gif = decode_gif
            self._encode_gif = encode_gif
            self._resize = resize_box

    def __call__(self, t: pa.Table) -> pa.Table:
        if self.real_resize:
            payloads = []
            for p in t.column("payload").to_pylist():
                p = p or b""
                try:
                    if p.startswith(b"\x89PNG"):
                        px = self._resize(self._decode(p), self.width, self.height)
                        payloads.append(self._encode(px))
                    elif p.startswith(_JPEG_SOI):
                        px = self._resize(
                            self._decode_jpeg(p), self.width, self.height
                        )
                        payloads.append(self._encode_jpeg(px))
                    elif p.startswith(b"GIF8"):
                        first = self._decode_gif(p, max_frames=1)[0]["image"]
                        px = self._resize(first, self.width, self.height)
                        payloads.append(self._encode_gif(px))
                    else:
                        payloads.append(b"")
                except ValueError:
                    payloads.append(b"")  # corrupt stream -> empty output
            return pa.table(
                {
                    "doc_id": t.column("doc_id"),
                    "payload": pa.array(payloads, pa.binary()),
                    "width": pa.array([self.width] * t.num_rows, pa.int64()),
                    "height": pa.array([self.height] * t.num_rows, pa.int64()),
                    "n_bytes_out": pa.array(
                        [len(p) for p in payloads], pa.int64()
                    ),
                }
            )
        cap = self.width * self.height
        payloads = [(p or b"")[:cap] for p in t.column("payload").to_pylist()]
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "payload": pa.array(payloads, pa.binary()),
                "width": pa.array([self.width] * t.num_rows, pa.int64()),
                "height": pa.array([self.height] * t.num_rows, pa.int64()),
                "n_bytes_out": pa.array([len(p) for p in payloads], pa.int64()),
            }
        )


def resize_image(docs_ds, width: int = 64, height: int = 48, batch_size: int = 128, concurrency=(2, 8)):
    """payload -> resized payload; actor pool with constructor-arg dims."""
    return docs_ds.map_batches(to_payload_batch, batch_format="pyarrow").map_batches(
        ResizeImage,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        fn_constructor_kwargs={"width": width, "height": height},
    )


def to_png_payload_batch(t: pa.Table) -> pa.Table:
    """Deterministic real-PNG payloads keyed on doc_id (no external data):
    dims 8+(id%25) x 8+(id//7%19), channels cycling 1/3/4, pixel (y,x,c) =
    (id + 7y + 13x + 29c) mod 256 — enough structure that resize/means are
    non-trivial, fully reproducible in a serial numpy oracle."""
    from ..functions.png import encode_png

    ids = t.column("doc_id").to_numpy(zero_copy_only=False)
    payloads = [encode_png(synth_pixels(int(i))) for i in ids]
    return pa.table(
        {
            "doc_id": t.column("doc_id"),
            "payload": pa.array(payloads, pa.binary()),
        }
    )


def synth_pixels(doc_id: int) -> np.ndarray:
    """The pixel array behind to_png_payload_batch — shared with the
    serial test oracle."""
    w = 8 + doc_id % 25
    h = 8 + (doc_id // 7) % 19
    ch = (1, 3, 4)[doc_id % 3]
    y, x, c = np.meshgrid(
        np.arange(h), np.arange(w), np.arange(ch), indexing="ij"
    )
    px = (doc_id + 7 * y + 13 * x + 29 * c) % 256
    a = px.astype(np.uint8)
    return a[:, :, 0] if ch == 1 else a


def decode_png_meta(docs_ds, batch_size: int = 256, concurrency=(2, 8)):
    """REAL-decode stage entry: synthesized PNG payloads -> actual
    IHDR/pixel metadata through the actor pool."""
    return docs_ds.map_batches(
        to_png_payload_batch, batch_format="pyarrow"
    ).map_batches(
        DecodeImageMeta,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        fn_constructor_kwargs={"real_decode": True},
    )


def resize_png(docs_ds, width: int = 16, height: int = 12, batch_size: int = 128, concurrency=(2, 8)):
    """REAL-resize stage entry: PNG decode -> box resample -> PNG
    re-encode in the actor pool; emits the resized image's true pixel
    mean alongside the payload accounting."""
    resized = docs_ds.map_batches(
        to_png_payload_batch, batch_format="pyarrow"
    ).map_batches(
        ResizeImage,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        fn_constructor_kwargs={"width": width, "height": height, "real_resize": True},
    )

    def summarize(t: pa.Table) -> pa.Table:
        from ..functions.png import decode_png

        means = []
        for p in t.column("payload").to_pylist():
            px = decode_png(p)
            means.append(int(px.sum(dtype=np.int64)) * 1000 // px.size)
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "width": t.column("width"),
                "height": t.column("height"),
                "n_bytes_out": t.column("n_bytes_out"),
                "px_mean_milli": pa.array(means, pa.int64()),
            }
        )

    return resized.map_batches(summarize, batch_format="pyarrow")


def to_jpeg_payload_batch(t: pa.Table) -> pa.Table:
    """Deterministic real-JPEG payloads from the same synth_pixels spec:
    1-channel stays grayscale, 3/4-channel become RGB (alpha dropped —
    JPEG has none); doc_id parity picks 4:4:4 vs 4:2:0 so both decoder
    sampling paths run; every 7th doc gets a restart interval."""
    from ..functions.jpeg import encode_jpeg

    ids = t.column("doc_id").to_numpy(zero_copy_only=False)
    payloads = []
    for i in ids:
        i = int(i)
        px = synth_pixels(i)
        if px.ndim == 3:
            px = px[:, :, :3]
            if px.shape[2] == 2:
                px = px[:, :, 0]
        payloads.append(
            encode_jpeg(
                px,
                quality=90,
                subsample=(px.ndim == 3 and i % 2 == 1),
                restart_interval=2 if i % 7 == 0 else 0,
            )
        )
    return pa.table(
        {
            "doc_id": t.column("doc_id"),
            "payload": pa.array(payloads, pa.binary()),
        }
    )


def decode_jpeg_meta(docs_ds, batch_size: int = 256, concurrency=(2, 8)):
    """REAL-decode stage entry over synthesized JPEGs (baseline T.81
    codec) through the actor pool."""
    return docs_ds.map_batches(
        to_jpeg_payload_batch, batch_format="pyarrow"
    ).map_batches(
        DecodeImageMeta,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        fn_constructor_kwargs={"real_decode": True},
    )


def resize_jpeg(docs_ds, width: int = 16, height: int = 12, batch_size: int = 128, concurrency=(2, 8)):
    """REAL JPEG resize: decode -> box resample -> JPEG re-encode in the
    actor pool; emits the re-decoded pixel mean for the serial oracle."""
    resized = docs_ds.map_batches(
        to_jpeg_payload_batch, batch_format="pyarrow"
    ).map_batches(
        ResizeImage,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        fn_constructor_kwargs={"width": width, "height": height, "real_resize": True},
    )

    def summarize(t: pa.Table) -> pa.Table:
        from ..functions.jpeg import decode_jpeg

        means = []
        for p in t.column("payload").to_pylist():
            px = decode_jpeg(p)
            means.append(int(px.sum(dtype=np.int64)) * 1000 // px.size)
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "width": t.column("width"),
                "height": t.column("height"),
                "n_bytes_out": t.column("n_bytes_out"),
                "px_mean_milli": pa.array(means, pa.int64()),
            }
        )

    return resized.map_batches(summarize, batch_format="pyarrow")


def synth_gif(doc_id: int) -> bytes:
    """Deterministic animated GIF keyed on doc_id: 2-6 frames of the
    synth_pixels pattern shifted per frame (exact-palette encode, so
    decode is lossless) — shared with the serial test oracle."""
    from ..functions.gif import encode_gif

    base = synth_pixels(doc_id)
    if base.ndim == 2:
        base = np.stack([base] * 3, -1)
    base = base[:, :, :3]
    n_frames = 2 + doc_id % 5
    frames = [
        np.roll(base // 32 * 32, shift=3 * k, axis=1) for k in range(n_frames)
    ]
    return encode_gif(frames, delay_ms=40)


def to_gif_payload_batch(t: pa.Table) -> pa.Table:
    return pa.table(
        {
            "doc_id": t.column("doc_id"),
            "payload": pa.array(
                [synth_gif(int(i)) for i in t.column("doc_id").to_pylist()],
                pa.binary(),
            ),
        }
    )


class SampleGifFrames:
    """REAL frame-sampling stage: animated-GIF payloads decode to their
    composed frame sequence (LZW + disposal, functions/gif.py) and every
    ``stride``-th frame is emitted as its own row with true pixel stats
    and a lossless PNG re-encode — the plumbing the video path needs,
    running on actual decoded frames.  Non-GIF / corrupt payloads emit
    no rows (a real pipeline routes them to the byte-slice fallback)."""

    def __init__(self, stride: int = 2, max_frames: int = 32):
        from ..functions.gif import GifError, decode_gif
        from ..functions.png import encode_png

        self._decode = decode_gif
        self._encode_png = encode_png
        self._err = GifError
        self.stride = stride
        self.max_frames = max_frames

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, idxs, delays, frames, means = [], [], [], [], []
        for doc_id, p in zip(
            t.column("doc_id").to_pylist(), t.column("payload").to_pylist()
        ):
            p = p or b""
            if not p.startswith(b"GIF8"):
                continue
            try:
                fr = self._decode(p, max_frames=self.max_frames)
            except self._err:
                continue
            for fi in range(0, len(fr), self.stride):
                img = fr[fi]["image"]
                ids.append(doc_id)
                idxs.append(fi)
                delays.append(fr[fi]["delay_ms"])
                frames.append(self._encode_png(img))
                means.append(int(img.sum(dtype=np.int64)) * 1000 // img.size)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "frame_idx": pa.array(idxs, pa.int64()),
                "delay_ms": pa.array(delays, pa.int64()),
                "frame_png": pa.array(frames, pa.binary()),
                "px_mean_milli": pa.array(means, pa.int64()),
            }
        )


def sample_gif_frames(docs_ds, stride: int = 2, batch_size: int = 64, concurrency=(2, 8)):
    """REAL video-style frame sampling over synthesized animated GIFs."""
    return docs_ds.map_batches(
        to_gif_payload_batch, batch_format="pyarrow"
    ).map_batches(
        SampleGifFrames,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        fn_constructor_kwargs={"stride": stride},
    )


def synth_avi(doc_id: int) -> bytes:
    """Deterministic MJPEG AVI keyed on doc_id: 2-6 frames of a smooth
    gradient shifted per frame (smooth -> high-quality JPEG roundtrip),
    fps derived from the id — shared with the serial test oracle."""
    from ..functions.avi import encode_avi

    w = 32 + (doc_id % 4) * 16
    h = 24 + (doc_id % 3) * 8
    y, x = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    base = ((doc_id % 64) + 2 * y + 3 * x) % 256
    frames = [
        np.stack(
            [(base + 40 * k) % 256, (base + 40 * k + 30) % 256, base], -1
        ).astype(np.uint8)
        for k in range(2 + doc_id % 5)
    ]
    return encode_avi(frames, fps=8 + doc_id % 17, quality=92)


def to_avi_payload_batch(t: pa.Table) -> pa.Table:
    return pa.table(
        {
            "doc_id": t.column("doc_id"),
            "payload": pa.array(
                [synth_avi(int(i)) for i in t.column("doc_id").to_pylist()],
                pa.binary(),
            ),
        }
    )


class SampleAviFrames:
    """REAL video frame-sampling stage: MJPEG-AVI payloads parse through
    the RIFF container walk and every ``stride``-th frame DECODES through
    the from-scratch JPEG codec (functions/avi.py + functions/jpeg.py) —
    true pixel stats and a lossless PNG re-encode per sampled frame.
    Inter-coded video (mp4/h264) would plug in at this exact slot via
    ffmpeg; non-AVI / corrupt payloads emit no rows."""

    def __init__(self, stride: int = 2, max_frames: int = 32):
        from ..functions.avi import AviError, avi_meta, decode_avi
        from ..functions.png import encode_png

        self._decode = decode_avi
        self._meta = avi_meta
        self._encode_png = encode_png
        self._err = AviError
        self.stride = stride
        self.max_frames = max_frames

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, idxs, fpsm, frames, means = [], [], [], [], []
        for doc_id, p in zip(
            t.column("doc_id").to_pylist(), t.column("payload").to_pylist()
        ):
            p = p or b""
            if not p.startswith(b"RIFF") or p[8:12] != b"AVI ":
                continue
            try:
                meta = self._meta(p)
                fr = self._decode(p, stride=self.stride, max_frames=self.max_frames)
            except self._err:
                continue
            for d in fr:
                img = d["image"]
                ids.append(doc_id)
                idxs.append(d["frame_idx"])
                fpsm.append(meta["fps_milli"])
                frames.append(self._encode_png(img))
                means.append(int(img.sum(dtype=np.int64)) * 1000 // img.size)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "frame_idx": pa.array(idxs, pa.int64()),
                "fps_milli": pa.array(fpsm, pa.int64()),
                "frame_png": pa.array(frames, pa.binary()),
                "px_mean_milli": pa.array(means, pa.int64()),
            }
        )


def sample_avi_frames(docs_ds, stride: int = 2, batch_size: int = 64, concurrency=(2, 8)):
    """REAL video frame sampling over synthesized MJPEG AVIs."""
    return docs_ds.map_batches(
        to_avi_payload_batch, batch_format="pyarrow"
    ).map_batches(
        SampleAviFrames,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        fn_constructor_kwargs={"stride": stride},
    )


def synth_scene_avi(doc_id: int) -> bytes:
    """Deterministic MJPEG AVI with PLANTED SCENES: 2-4 segments of 2-4
    frames each; frames within a segment are small shifts of one
    pattern, segment changes swap the pattern entirely — so true shot
    boundaries are exactly the planted segment starts."""
    from ..functions.avi import encode_avi

    rng = np.random.default_rng(doc_id * 104729 + 7)
    n_scenes = 2 + doc_id % 3
    frames = []
    for s in range(n_scenes):
        grid = rng.integers(20, 236, (6, 8)).astype(np.uint8)
        base = np.kron(grid, np.ones((4, 4), np.uint8))
        for k in range(2 + int(rng.integers(0, 3))):
            f = np.roll(base, shift=k, axis=1)
            frames.append(np.stack([f, f, f], -1))
    return encode_avi(frames, fps=12, quality=92)


def scene_boundaries(payload: bytes, threshold_milli: int = 40_000) -> list[int]:
    """Decoded-frame shot boundaries: frame indices whose mean absolute
    pixel difference vs the previous frame exceeds ``threshold_milli``
    (milli pixel-levels).  Index 0 always starts a scene."""
    from ..functions.avi import decode_avi

    return _frame_scene_bounds(decode_avi(payload), threshold_milli)


def _frame_scene_bounds(decoded: list[dict], threshold_milli: int) -> list[int]:
    """``scene_boundaries`` over already-decoded ``decode_avi`` frames."""
    frames = [d["image"].astype(np.int32) for d in decoded]
    bounds = [0]
    for i in range(1, len(frames)):
        diff = int(np.abs(frames[i] - frames[i - 1]).mean() * 1000)
        if diff > threshold_milli:
            bounds.append(i)
    return bounds


class DetectAviScenes:
    """REAL shot-boundary stage: MJPEG frames decode through the
    from-scratch JPEG codec and adjacent-frame mean-abs-diff marks the
    cuts — one row per detected scene with its start frame and length.
    Non-AVI / corrupt payloads emit no rows."""

    def __init__(self, threshold_milli: int = 40_000):
        from ..functions.avi import AviError, decode_avi

        self._decode = decode_avi
        self._err = AviError
        self.threshold = threshold_milli

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, scenes, starts, lens = [], [], [], []
        for doc_id, p in zip(
            t.column("doc_id").to_pylist(), t.column("payload").to_pylist()
        ):
            p = p or b""
            if not p.startswith(b"RIFF") or p[8:12] != b"AVI ":
                continue
            try:
                decoded = self._decode(p)
            except self._err:
                continue
            bounds = _frame_scene_bounds(decoded, self.threshold)
            n_frames = len(decoded)
            ends = bounds[1:] + [n_frames]
            for si, (a, b) in enumerate(zip(bounds, ends)):
                ids.append(doc_id)
                scenes.append(si)
                starts.append(a)
                lens.append(b - a)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "scene_idx": pa.array(scenes, pa.int64()),
                "start_frame": pa.array(starts, pa.int64()),
                "n_frames": pa.array(lens, pa.int64()),
            }
        )


def detect_avi_scenes(docs_ds, batch_size: int = 64, concurrency=(2, 8)):
    """REAL shot-boundary detection over scene-structured MJPEG synth."""

    def to_scene_payloads(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "payload": pa.array(
                    [synth_scene_avi(int(i)) for i in t.column("doc_id").to_pylist()],
                    pa.binary(),
                ),
            }
        )

    return docs_ds.map_batches(
        to_scene_payloads, batch_format="pyarrow"
    ).map_batches(
        DetectAviScenes,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def synth_wav(doc_id: int) -> bytes:
    """Deterministic WAV keyed on doc_id: a pure tone (freq/amp/duration
    derive from the id; stereo every 3rd doc) — pure tones have
    CLOSED-FORM features (RMS = A/sqrt(2), ZCR ~ 2f, centroid -> f), so
    the stage output is checkable against spec math, not just a serial
    rerun."""
    from ..functions.wav import encode_wav

    rate = 8000
    freq = 100 + (doc_id * 37) % 800
    amp = 0.2 + (doc_id % 5) / 10.0
    n = rate // 4 + (doc_id % 7) * 100
    t = np.arange(n) / rate
    x = amp * np.sin(2 * np.pi * freq * t)
    if doc_id % 3 == 0:
        x = np.stack([x, x * 0.5], 1)
    return encode_wav(x, rate, bits=16)


def to_wav_payload_batch(t: pa.Table) -> pa.Table:
    return pa.table(
        {
            "doc_id": t.column("doc_id"),
            "payload": pa.array(
                [synth_wav(int(i)) for i in t.column("doc_id").to_pylist()],
                pa.binary(),
            ),
        }
    )


def synth_mixed_wav(doc_id: int) -> bytes:
    """Deterministic WAV cycling through the real codec set by doc_id:
    PCM16, G.711 u-law, G.711 A-law, IMA ADPCM — same tone family as
    synth_wav, so the closed-form feature oracles still apply (within
    each codec's quantization error)."""
    from ..functions.wav import encode_wav, encode_wav_compressed

    rate = 8000
    freq = 100 + (doc_id * 37) % 800
    amp = 0.2 + (doc_id % 5) / 10.0
    n = rate // 4 + (doc_id % 7) * 100
    t = np.arange(n) / rate
    x = amp * np.sin(2 * np.pi * freq * t)
    codec = ("pcm", "ulaw", "alaw", "ima_adpcm")[doc_id % 4]
    if codec == "pcm":
        return encode_wav(x, rate, bits=16)
    return encode_wav_compressed(x, rate, codec, block_align=256)


def to_mixed_wav_payload_batch(t: pa.Table) -> pa.Table:
    """Batch synth: the IMA ADPCM quarter of the docs encodes in ONE
    lockstep ``ima_encode_blocks`` call (each doc padded to a whole
    number of blocks first, so no block straddles a doc — bit-identical
    to per-doc encode_wav_compressed); the other codecs are single
    vector ops per doc already."""
    import struct

    from ..functions.wav import (
        encode_wav_compressed,
        ima_encode_blocks,
        ima_samples_per_block,
    )

    ids = [int(i) for i in t.column("doc_id").to_pylist()]
    payloads: list[bytes | None] = [None] * len(ids)
    adpcm: list[tuple[int, np.ndarray]] = []
    for j, doc_id in enumerate(ids):
        if doc_id % 4 == 3:
            rate = 8000
            freq = 100 + (doc_id * 37) % 800
            amp = 0.2 + (doc_id % 5) / 10.0
            n = rate // 4 + (doc_id % 7) * 100
            tt = np.arange(n) / rate
            adpcm.append((j, amp * np.sin(2 * np.pi * freq * tt)))
        else:
            payloads[j] = synth_mixed_wav(doc_id)
    if adpcm:
        align = 256
        spb = ima_samples_per_block(align, 1)
        padded, counts, lens = [], [], []
        for _, x in adpcm:
            s16 = np.clip(np.round(x * 32767.0), -32768, 32767).astype(np.int16)
            nb = (len(s16) + spb - 1) // spb
            pad = nb * spb - len(s16)
            if pad:
                s16 = np.concatenate([s16, np.repeat(s16[-1:], pad)])
            padded.append(s16)
            counts.append(nb)
            lens.append(len(x))
        blob = ima_encode_blocks(np.concatenate(padded), align)
        off = 0
        for (j, _x), nb, n in zip(adpcm, counts, lens):
            data = blob[off : off + nb * align]
            off += nb * align
            rate = 8000
            brate = (rate * align + spb - 1) // spb
            fmt = struct.pack("<HHIIHH", 0x11, 1, rate, brate, align, 4)
            fmt += struct.pack("<HH", 2, spb)
            out = bytearray()
            out += b"fmt " + struct.pack("<I", len(fmt)) + fmt
            out += b"fact" + struct.pack("<I", 4) + struct.pack("<I", n)
            out += b"data" + struct.pack("<I", len(data)) + data
            if len(data) & 1:
                out += b"\x00"
            payloads[j] = b"RIFF" + struct.pack("<I", 4 + len(out)) + b"WAVE" + bytes(out)
    return pa.table(
        {
            "doc_id": t.column("doc_id"),
            "payload": pa.array(payloads, pa.binary()),
        }
    )


class ExtractAudioFeatures:
    """REAL audio-feature stage: WAV payloads decode (pure-stdlib RIFF
    codec — PCM, IEEE float, G.711 u-law/A-law, IMA ADPCM;
    functions/wav.py) and the numpy DSP kernels run per clip — duration,
    RMS, zero-crossing rate, spectral centroid/rolloff; the ``codec``
    column records the fmt tag that actually decoded.  Perceptual audio
    (mp3/aac) would plug in at this exact slot via ffmpeg; corrupt /
    non-WAV payloads emit zeroed rows with format="corrupt"/"unknown"
    (web corpora demand it)."""

    def __init__(self):
        from ..functions.wav import (
            WavError,
            audio_features,
            decode_wav_batch,
            wav_codec_name,
        )

        self._decode_batch = decode_wav_batch
        self._features = audio_features
        self._codec = wav_codec_name
        self._err = WavError

    def __call__(self, t: pa.Table) -> pa.Table:
        cols: dict[str, list] = {
            "format": [], "codec": [], "sample_rate": [], "channels": [],
            "duration_ms": [], "rms_milli": [], "zcr_milli": [],
            "centroid_mhz": [], "rolloff_mhz": [],
        }
        payloads = [p or b"" for p in t.column("payload").to_pylist()]
        # IMA ADPCM payloads decode in ONE lockstep pass for the whole
        # batch (decode_wav_batch); others are single vector ops each
        decoded = self._decode_batch(payloads)
        for p, dec in zip(payloads, decoded):
            if p.startswith(b"RIFF") and dec is not None:
                samples, rate = dec
                f = self._features(samples, rate)
                cols["format"].append("wav")
                cols["codec"].append(self._codec(p))
                cols["sample_rate"].append(rate)
                cols["channels"].append(samples.shape[1])
                for k in ("duration_ms", "rms_milli", "zcr_milli",
                          "centroid_mhz", "rolloff_mhz"):
                    cols[k].append(f[k])
                continue
            fmt = "corrupt" if p.startswith(b"RIFF") else "unknown"
            cols["format"].append(fmt)
            cols["codec"].append("")
            for k in ("sample_rate", "channels", "duration_ms", "rms_milli",
                      "zcr_milli", "centroid_mhz", "rolloff_mhz"):
                cols[k].append(0)
        out = {"doc_id": t.column("doc_id")}
        out["format"] = pa.array(cols["format"], pa.string())
        out["codec"] = pa.array(cols["codec"], pa.string())
        for k in ("sample_rate", "channels", "duration_ms", "rms_milli",
                  "zcr_milli", "centroid_mhz", "rolloff_mhz"):
            out[k] = pa.array(cols[k], pa.int64())
        return pa.table(out)


class ExtractAudioMfcc:
    """REAL MFCC stage: WAV payloads (any supported codec) decode via
    the batched path and the mel-filterbank/DCT kernel runs per clip —
    the standard audio-ML training feature.  Corrupt/non-WAV payloads
    emit no rows."""

    def __init__(self, n_mels: int = 20, n_mfcc: int = 8):
        from ..functions.wav import decode_wav_batch, mfcc_features

        self._decode_batch = decode_wav_batch
        self._mfcc = mfcc_features
        self.n_mels = n_mels
        self.n_mfcc = n_mfcc

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, bands, coeffs = [], [], []
        payloads = [p or b"" for p in t.column("payload").to_pylist()]
        for doc_id, dec in zip(
            t.column("doc_id").to_pylist(), self._decode_batch(payloads)
        ):
            if dec is None:
                continue
            samples, rate = dec
            f = self._mfcc(samples, rate, n_mels=self.n_mels, n_mfcc=self.n_mfcc)
            ids.append(doc_id)
            bands.append(f["mel_argmax"])
            coeffs.append(f["mfcc_milli"])
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "mel_argmax": pa.array(bands, pa.int64()),
                "mfcc_milli": pa.array(coeffs, pa.list_(pa.int64())),
            }
        )


def extract_audio_mfcc(docs_ds, batch_size: int = 256, concurrency=(2, 8)):
    """REAL MFCCs over the mixed-codec WAV synth through the actor pool."""
    return docs_ds.map_batches(
        to_mixed_wav_payload_batch, batch_format="pyarrow"
    ).map_batches(
        ExtractAudioMfcc,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def extract_audio_codec_features(docs_ds, batch_size: int = 256, concurrency=(2, 8)):
    """REAL audio features over the mixed-codec WAV synth (PCM / u-law /
    A-law / IMA ADPCM) through the actor pool."""
    return docs_ds.map_batches(
        to_mixed_wav_payload_batch, batch_format="pyarrow"
    ).map_batches(
        ExtractAudioFeatures,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def extract_wav_features(docs_ds, batch_size: int = 256, concurrency=(2, 8)):
    """REAL audio features over synthesized WAVs through the actor pool."""
    return docs_ds.map_batches(
        to_wav_payload_batch, batch_format="pyarrow"
    ).map_batches(
        ExtractAudioFeatures,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def to_mixed_payload_batch(t: pa.Table) -> pa.Table:
    """Mixed-format payloads (the realistic crawl shape): doc_id % 3
    picks PNG / JPEG / animated GIF, all from the same synth_pixels
    spec; every 11th doc is a deliberately TRUNCATED stream (corrupt)
    and every 13th is non-image bytes."""
    from ..functions.jpeg import encode_jpeg
    from ..functions.png import encode_png

    payloads = []
    for i in t.column("doc_id").to_pylist():
        i = int(i)
        if i % 13 == 0:
            payloads.append(b"not an image " + bytes([i % 256]))
            continue
        px = synth_pixels(i)
        kind = i % 3
        if kind == 0:
            p = encode_png(px)
        elif kind == 1:
            p3 = px[:, :, :3] if px.ndim == 3 else px
            p = encode_jpeg(p3, quality=90)
        else:
            p = synth_gif(i)
        if i % 11 == 0:
            p = p[: max(8, len(p) // 2)]  # truncate -> corrupt
        payloads.append(p)
    return pa.table(
        {
            "doc_id": t.column("doc_id"),
            "payload": pa.array(payloads, pa.binary()),
        }
    )


def media_prep(docs_ds, min_pixels: int = 200, width: int = 16, height: int = 12,
               batch_size: int = 128, concurrency=(2, 8)):
    """Flagship multimodal composition — the pipeline an image-text
    curation run executes: mixed-format payloads -> REAL decode-meta ->
    drop corrupt/unknown and tiny images (min_pixels) -> REAL resize to
    training dims -> per-format summary (kept count, bytes in/out, mean
    pixel stats).  Every stage is an actor-pool map over binary batches;
    the only exchange is the final tiny per-format groupby."""
    from ray.data.aggregate import Count, Sum

    payloads = docs_ds.map_batches(to_mixed_payload_batch, batch_format="pyarrow")
    meta = payloads.map_batches(
        DecodeImageMeta,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        fn_constructor_kwargs={"real_decode": True},
    )

    def keep_mask(t: pa.Table) -> pa.Table:
        w = t.column("width").to_numpy(zero_copy_only=False)
        h = t.column("height").to_numpy(zero_copy_only=False)
        keep = (w * h) >= min_pixels
        return t.filter(pa.array(keep, pa.bool_()))

    kept_meta = meta.map_batches(keep_mask, batch_format="pyarrow").materialize()

    # resize only the kept docs: semi-join by broadcast of kept ids (the
    # kept set is metadata-sized; payloads never cross an exchange)
    import ray

    kept_ids = set()
    for b in kept_meta.select_columns(["doc_id"]).iter_batches(batch_format="pyarrow"):
        kept_ids.update(b.column("doc_id").to_pylist())
    kept_ref = ray.put(kept_ids)

    def keep_payloads(t: pa.Table) -> pa.Table:
        ks = ray.get(kept_ref)
        mask = [i in ks for i in t.column("doc_id").to_pylist()]
        return t.filter(pa.array(mask, pa.bool_()))

    resized = payloads.map_batches(keep_payloads, batch_format="pyarrow").map_batches(
        ResizeImage,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        fn_constructor_kwargs={"width": width, "height": height, "real_resize": True},
    )

    def tag_out_bytes(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_bytes_out": t.column("n_bytes_out"),
            }
        )

    out_bytes = resized.map_batches(tag_out_bytes, batch_format="pyarrow")

    # summary: join meta (format, n_bytes, px stats) with out bytes on
    # doc_id via the broadcast map (out table is metadata-sized)
    ob = {}
    for b in out_bytes.iter_batches(batch_format="pyarrow"):
        for i, n in zip(b.column("doc_id").to_pylist(), b.column("n_bytes_out").to_pylist()):
            ob[i] = n
    ob_ref = ray.put(ob)

    def attach(t: pa.Table) -> pa.Table:
        m = ray.get(ob_ref)
        outs = [m.get(i, 0) for i in t.column("doc_id").to_pylist()]
        return pa.table(
            {
                "format": t.column("format"),
                "n_in": pa.array([1] * t.num_rows, pa.int64()),
                "bytes_in": t.column("n_bytes"),
                "bytes_out": pa.array(outs, pa.int64()),
                "px_mean_milli": t.column("px_mean_milli"),
            }
        )

    return (
        kept_meta.map_batches(attach, batch_format="pyarrow")
        .groupby("format")
        .aggregate(
            Count(alias_name="n_kept"),
            Sum("bytes_in", alias_name="bytes_in"),
            Sum("bytes_out", alias_name="bytes_out"),
            Sum("px_mean_milli", alias_name="px_mean_milli_sum"),
        )
    )


def sample_frames(docs_ds, frame_size: int = 1024, stride: int = 4, batch_size: int = 64):
    """Video-style frame sampling: the payload is treated as a sequence of
    ``frame_size``-byte frames; every ``stride``-th frame is emitted as its
    own row (doc_id, frame_idx, frame, frame_len).  The chunking/explode
    plumbing is real (real bytes move); a real decoder would replace the
    byte-slice with an ffmpeg keyframe read.  Small batches: the explode
    multiplies payload bytes held per task."""

    def fn(t: pa.Table) -> pa.Table:
        ids, idxs, frames = [], [], []
        for doc_id, p in zip(t.column("doc_id").to_pylist(), t.column("payload").to_pylist()):
            p = p or b""
            nframes = (len(p) + frame_size - 1) // frame_size
            for fi in range(0, nframes, stride):
                ids.append(doc_id)
                idxs.append(fi)
                frames.append(p[fi * frame_size : (fi + 1) * frame_size])
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "frame_idx": pa.array(idxs, pa.int64()),
                "frame": pa.array(frames, pa.binary()),
                "frame_len": pa.array([len(f) for f in frames], pa.int64()),
            }
        )

    return docs_ds.map_batches(to_payload_batch, batch_format="pyarrow").map_batches(
        fn, batch_format="pyarrow", batch_size=batch_size
    )


def synth_near_dup_image(doc_id: int) -> bytes:
    """Deterministic image corpus WITH PLANTED NEAR-DUPS: every 5th doc
    is a brightness-shifted JPEG RE-ENCODE of the previous doc's PNG
    (the classic web near-dup: same picture, different container /
    exposure).  Bases are blocky seeded patterns (piecewise-constant, so
    both codecs and the 9x8 dHash thumbnail preserve structure)."""
    from ..functions.jpeg import encode_jpeg
    from ..functions.png import encode_png

    base_id = doc_id - 4 if doc_id % 5 == 4 and doc_id >= 4 else doc_id
    rng = np.random.default_rng(base_id * 7919 + 13)
    grid = rng.integers(20, 236, (8, 9)).astype(np.uint8)
    gray = np.kron(grid, np.ones((5, 6), np.uint8))
    img = np.stack([gray, np.clip(gray * 0.92, 0, 255).astype(np.uint8), gray], -1)
    if doc_id % 5 == 4 and doc_id >= 4:
        img = np.clip(img.astype(np.int16) + 11, 0, 255).astype(np.uint8)
        return encode_jpeg(img, quality=92)
    return encode_png(img)


def to_near_dup_image_batch(t: pa.Table) -> pa.Table:
    return pa.table(
        {
            "doc_id": t.column("doc_id"),
            "payload": pa.array(
                [
                    synth_near_dup_image(int(i))
                    for i in t.column("doc_id").to_pylist()
                ],
                pa.binary(),
            ),
        }
    )


def synth_container(doc_id: int) -> bytes:
    """Deterministic MP3/MP4 container keyed on doc_id (every 17th doc
    deliberately truncated to a corrupt stub) — shared with the serial
    test oracle.  Parameters are closed-form in doc_id, so the triage
    stage's output is hand-checkable."""
    from ..functions.mediameta import write_mp3_frames, write_mp4

    if doc_id % 3 == 0:
        p = write_mp4(
            duration_ms=500 + (doc_id * 13) % 4000,
            timescale=600,
            width=320 + (doc_id % 5) * 160,
            height=240 + (doc_id % 5) * 120,
            tracks=("vide", "soun") if doc_id % 2 == 0 else ("vide",),
        )
    else:
        rates = (44100, 22050, 8000)
        p = write_mp3_frames(
            n_frames=10 + doc_id % 50,
            bitrate_kbps=(32, 64, 128)[doc_id % 3 - 1],
            sample_rate=rates[doc_id % 3 - 1],
            channels=1 + doc_id % 2,
            id3=b"\x00" * (doc_id % 40) if doc_id % 5 == 0 else None,
        )
    if doc_id % 17 == 0:
        p = p[: max(3, len(p) // 3)]
    return p


def to_container_payload_batch(t: pa.Table) -> pa.Table:
    return pa.table(
        {
            "doc_id": t.column("doc_id"),
            "payload": pa.array(
                [synth_container(int(i)) for i in t.column("doc_id").to_pylist()],
                pa.binary(),
            ),
        }
    )


class ExtractContainerMeta:
    """REAL media-triage stage: route payloads by magic (ID3 / MPEG
    sync -> MP3 frame walk; ISO BMFF box -> MP4 box walk) and emit the
    container metadata a 100-TB crawl filters on BEFORE any decode —
    duration, rates, dims, track types.  Sample DECODE of these formats
    is the genuine ffmpeg slot; triage does not need it."""

    def __init__(self):
        from ..functions.mediameta import Mp3Error, Mp4Error, mp3_meta, mp4_meta

        self._mp3 = mp3_meta
        self._mp4 = mp4_meta
        self._errs = (Mp3Error, Mp4Error)

    def __call__(self, t: pa.Table) -> pa.Table:
        cols: dict[str, list] = {
            "format": [], "duration_ms": [], "sample_rate": [], "channels": [],
            "bitrate_kbps": [], "n_frames": [], "width": [], "height": [],
            "track_types": [],
        }

        def zero(fmt):
            cols["format"].append(fmt)
            for k in ("duration_ms", "sample_rate", "channels",
                      "bitrate_kbps", "n_frames", "width", "height"):
                cols[k].append(0)
            cols["track_types"].append("")

        for p in t.column("payload").to_pylist():
            p = p or b""
            is_mp3 = p[:3] == b"ID3" or (
                len(p) >= 2 and p[0] == 0xFF and (p[1] & 0xE0) == 0xE0
            )
            is_mp4 = len(p) >= 8 and p[4:8] in (b"ftyp", b"moov", b"mdat")
            try:
                if is_mp3:
                    m = self._mp3(p)
                    cols["format"].append("mp3")
                    cols["duration_ms"].append(m["duration_ms"])
                    cols["sample_rate"].append(m["sample_rate"])
                    cols["channels"].append(m["channels"])
                    cols["bitrate_kbps"].append(m["bitrate_kbps"])
                    cols["n_frames"].append(m["n_frames"])
                    cols["width"].append(0)
                    cols["height"].append(0)
                    cols["track_types"].append("")
                elif is_mp4:
                    m = self._mp4(p)
                    cols["format"].append("mp4")
                    cols["duration_ms"].append(m["duration_ms"])
                    cols["sample_rate"].append(0)
                    cols["channels"].append(0)
                    cols["bitrate_kbps"].append(0)
                    cols["n_frames"].append(0)
                    cols["width"].append(m["width"])
                    cols["height"].append(m["height"])
                    cols["track_types"].append(",".join(m["track_types"]))
                else:
                    zero("unknown")
            except self._errs:
                zero("corrupt")
        out = {"doc_id": t.column("doc_id")}
        out["format"] = pa.array(cols["format"], pa.string())
        for k in ("duration_ms", "sample_rate", "channels", "bitrate_kbps",
                  "n_frames", "width", "height"):
            out[k] = pa.array(cols[k], pa.int64())
        out["track_types"] = pa.array(cols["track_types"], pa.string())
        return pa.table(out)


def media_triage(docs_ds, batch_size: int = 256, concurrency=(2, 8)):
    """REAL container triage over the mixed MP3/MP4 synth (with planted
    truncations) through the actor pool."""
    return docs_ds.map_batches(
        to_container_payload_batch, batch_format="pyarrow"
    ).map_batches(
        ExtractContainerMeta,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


class ExtractByteFeatures:
    """Feature-extraction stage: payload -> fixed-width feature vector.
    The STUB kernel computes a 16-bin byte-value histogram (deterministic,
    vectorized) where a real model (CLIP/whisper embedding) would run —
    batched inference shape: model load once per actor, one forward pass
    per batch."""

    def __init__(self, bins: int = 16, real_model: bool = False):
        self.bins = bins
        self.real_model = real_model

    def __call__(self, t: pa.Table) -> pa.Table:
        if self.real_model:
            raise NotImplementedError(
                "no model runtime in this environment; load the encoder here "
                "(once per actor) and replace the histogram with its forward pass"
            )
        import numpy as np

        feats = []
        width = 256 // self.bins
        for p in t.column("payload").to_pylist():
            arr = np.frombuffer(p or b"", dtype=np.uint8)
            hist = np.bincount(arr // width, minlength=self.bins)[: self.bins]
            feats.append(hist.astype(np.int64).tolist())
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "features": pa.array(feats, pa.list_(pa.int64())),
            }
        )


def extract_features(docs_ds, bins: int = 16, batch_size: int = 256, concurrency=(2, 8)):
    return docs_ds.map_batches(to_payload_batch, batch_format="pyarrow").map_batches(
        ExtractByteFeatures,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        fn_constructor_kwargs={"bins": bins},
    )
