"""Event file format, rate encoding, synthetic task generation."""

import contextlib
import hashlib
import io
import math
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikeshot import events
from spikeshot.config import load_config
from spikeshot.events import (
    EventFormatError,
    LabeledSample,
    SpikeEvent,
    gen_synthetic_task,
    rate_encode,
    read_events,
    write_events,
)


def assert_same_samples(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert (x.shape, x.duration, x.label) == (y.shape, y.duration, y.label)
        assert x.events.dtype == y.events.dtype == np.int64
        assert np.array_equal(x.events, y.events)


def test_roundtrip_identity(tmp_path):
    samples = [
        LabeledSample(shape=(4,), duration=10, label=2,
                      events=[SpikeEvent(0, 1), SpikeEvent(3, 0), SpikeEvent(3, 2), SpikeEvent(9, 3)]),
        LabeledSample(shape=(2, 2, 1), duration=5, label=0, events=[SpikeEvent(1, 3)]),
    ]
    path = tmp_path / "e.events"
    write_events(samples, path)
    back = read_events(path)
    assert_same_samples(back, samples)


@st.composite
def sample_rows(draw):
    """Shape, duration, label and ``(t, neuron)`` pairs of one valid sample,
    with duplicate events and empty samples among them."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    duration = draw(st.integers(0, 20))
    pairs = []
    if duration:
        event = st.tuples(st.integers(0, duration - 1), st.integers(0, math.prod(shape) - 1))
        pairs = draw(st.lists(event, max_size=20))
        if pairs:
            pairs += draw(st.lists(st.sampled_from(pairs), max_size=5))  # duplicates
        pairs.sort(key=lambda e: e[0])  # stable: a step's neurons stay in any order
    return shape, duration, draw(st.integers(0, 9)), pairs


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(sample_rows(), max_size=4))
def test_write_read_roundtrip_property(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("roundtrip") / "e.events"
    write_events([LabeledSample(shape, duration, label, pairs) for shape, duration, label, pairs in rows], path)
    expected = "".join(
        f"shape={'x'.join(map(str, shape))} duration={duration} label={label}\n"
        + "".join(f"{t} {neuron}\n" for t, neuron in pairs)
        for shape, duration, label, pairs in rows
    )
    assert path.read_bytes() == expected.encode()
    back = read_events(path)
    assert len(back) == len(rows)
    for s, (shape, duration, label, pairs) in zip(back, rows):
        assert (s.shape, s.duration, s.label) == (shape, duration, label)
        assert s.events.dtype == np.int64 and s.events.shape == (len(pairs), 2)
        assert s.events.tolist() == [list(e) for e in pairs]


def validate_reference(s):
    """Message of the first offending event, checked one event at a time."""
    last_t = -1
    for t, neuron in s.events.tolist():
        if not 0 <= t < s.duration:
            return f"event time {t} outside [0, {s.duration})"
        if not 0 <= neuron < s.size:
            return f"neuron index {neuron} outside shape {s.shape}"
        if t < last_t:
            return f"event times decrease at t={t}"
        last_t = t
    return None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_validate_names_first_offending_event(data):
    shape = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    duration = data.draw(st.integers(0, 6))
    event = st.tuples(st.integers(-1, duration + 1), st.integers(-1, math.prod(shape) + 1))
    s = LabeledSample(shape, duration, 0, data.draw(st.lists(event, max_size=8)))
    expected = validate_reference(s)
    if expected is None:
        s.validate()  # raises nothing
    else:
        with pytest.raises(EventFormatError, match=f"^{re.escape(expected)}$"):
            s.validate()


def test_empty_events_valid_sample(tmp_path):
    path = tmp_path / "empty.events"
    write_events([LabeledSample(shape=(3,), duration=7, label=1)], path)
    back = read_events(path)
    assert back[0].events.shape == (0, 2) and back[0].duration == 7


def test_event_time_out_of_range_rejected(tmp_path):
    path = tmp_path / "bad.events"
    path.write_text("shape=3 duration=5 label=0\n5 1\n")
    with pytest.raises(EventFormatError, match="time"):
        read_events(path)


def test_neuron_index_out_of_range_rejected(tmp_path):
    path = tmp_path / "bad.events"
    path.write_text("shape=3 duration=5 label=0\n1 3\n")
    with pytest.raises(EventFormatError, match="index"):
        read_events(path)


def test_non_monotone_times_rejected(tmp_path):
    path = tmp_path / "bad.events"
    path.write_text("shape=3 duration=5 label=0\n3 0\n1 0\n")
    with pytest.raises(EventFormatError, match="decrease"):
        read_events(path)


def test_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.events"
    path.write_text("shape=3 duration=5 label=0\n1 2 3\n")
    with pytest.raises(EventFormatError, match="line 2"):
        read_events(path)
    path.write_text("1 2\n")
    with pytest.raises(EventFormatError, match="header"):
        read_events(path)
    path.write_text("shape=3x duration=5 label=0\n")
    with pytest.raises(EventFormatError, match="line 1"):
        read_events(path)
    path.write_bytes(b"shape=3 duration=5 label=0\r\n0 1\n3 \xff\xfe\n")  # not UTF-8
    with pytest.raises(EventFormatError, match="line 3"):
        read_events(path)


def test_unparsable_event_fields_name_their_line(tmp_path):
    path = tmp_path / "bad.events"
    for line, field in [("99999999999999999999 0", "99999999999999999999"),
                        ("0 -99999999999999999999", "-99999999999999999999"), ("1.5 0", "1.5"), ("0 x", "x")]:
        path.write_text(f"shape=3 duration=5 label=0\n0 1\n# note\n\n{line}\nshape=3 duration=5 label=1\n")
        with pytest.raises(EventFormatError, match=f"^line 5: event field '{re.escape(field)}'"):
            read_events(path)
    path.write_text("shape=3 duration=5 label=0\n1 x\n1 2 3\n")  # the earlier line is named first
    with pytest.raises(EventFormatError, match="^line 2: "):
        read_events(path)


def test_bad_field_is_named_before_undecodable_bytes_a_block_later(tmp_path):
    # the first fault in file order: the field, read a block before the bytes that are not UTF-8
    path = tmp_path / "bad.events"
    filler = b"0 1\n" * (events._BLOCK_CHARS // 4 + 1)
    path.write_bytes(b"shape=3 duration=5 label=0\n1 x\n" + filler + b"3 \xff\n")
    with pytest.raises(EventFormatError, match="^line 2: event field 'x'"):
        read_events(path)


def test_bad_field_is_named_before_undecodable_bytes_in_the_same_block(tmp_path):
    path = tmp_path / "bad.events"
    path.write_bytes(b"shape=3 duration=5 label=0\n1 x\n3 \xff\n")
    with pytest.raises(EventFormatError, match="^line 2: event field 'x'"):
        read_events(path)


UNDECODABLE_LINES = [  # (file bytes, the line named): a comment, a header, before any header, CR line ends,
    (b"# \xff\nshape=3 duration=5 label=0\n", 1),  # and UTF-8-encoded surrogates, which are not UTF-8
    (b"shape=3 duration=5 label=0\xff\n0 1\n", 1),
    (b"\xe2\x82\n", 1),
    (b"shape=3 duration=5 label=0\r0 1\r\r1 \xed\xa0\x80\n", 4),
]


@pytest.mark.parametrize("data, lineno", UNDECODABLE_LINES)
def test_undecodable_bytes_are_refused_on_their_own_line(tmp_path, data, lineno):
    path = tmp_path / "bad.events"
    path.write_bytes(data)
    with pytest.raises(EventFormatError, match=f"^line {lineno}: bytes that are not UTF-8 text$"):
        read_events(path)
    assert _undecodable_line(path) == lineno


def _undecodable_line(path) -> int:
    """Number of the line holding the first bytes of ``path`` that are not UTF-8."""
    data = path.read_bytes()
    start = len(data)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        start = e.start
    head = data[:start].decode("utf-8") + "?"  # the bad byte's line counts as a line
    return len(io.StringIO(head, newline=None).readlines())


def _parse_events_reference(tokens, linenos):
    try:
        return np.array(tokens, dtype=np.int64).reshape(-1, 2)
    except (ValueError, OverflowError):
        for k, tok in enumerate(tokens):
            try:
                np.array(tok, dtype=np.int64)
            except (ValueError, OverflowError):
                raise EventFormatError(f"line {linenos[k // 2]}: event field {tok!r} is not an int64") from None
        raise


def read_events_reference(path):
    """``read_events`` one line at a time: strip, classify, split, and convert
    a sample's fields when the next header or the end of the file closes it."""
    samples = []
    tokens, linenos = [], []
    with open(path, encoding="utf-8") as f:
        try:
            for lineno, raw in enumerate(f, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if line.startswith("shape="):
                    if samples:
                        samples[-1].events = _parse_events_reference(tokens, linenos)
                        tokens, linenos = [], []
                    try:
                        fields = dict(part.split("=", 1) for part in line.split())
                        shape = tuple(int(d) for d in fields["shape"].split("x"))
                        samples.append(LabeledSample(
                            shape=shape,
                            duration=int(fields["duration"]),
                            label=int(fields["label"]),
                        ))
                    except (KeyError, ValueError):
                        raise EventFormatError(f"line {lineno}: bad sample header {line!r}")
                    continue
                if not samples:
                    raise EventFormatError(f"line {lineno}: event before any sample header")
                parts = line.split()
                if len(parts) != 2:
                    _parse_events_reference(tokens, linenos)  # a bad field on an earlier line is named first
                    raise EventFormatError(f"line {lineno}: expected '<t> <neuron>', got {line!r}")
                tokens += parts
                linenos.append(lineno)
        except UnicodeDecodeError:
            raise EventFormatError(f"line {_undecodable_line(path)}: bytes that are not UTF-8 text") from None
    if samples:
        samples[-1].events = _parse_events_reference(tokens, linenos)
    for s in samples:
        try:
            s.validate()
        except EventFormatError as e:
            raise EventFormatError(f"sample with label {s.label}: {e}")
    return samples


# 18 digits, then int64's largest value and values past it (19 and 20 digits)
BIG_FIELDS = ["999999999999999999", "9223372036854775807", "9223372036854775808",
              "18446744073709551616", "99999999999999999999"]
SPLIT_WHITESPACE = ["\t", "  ", " \t ", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]


@st.composite
def event_file_text(draw):
    """Event file text mixing runs of canonical ``<t> <neuron>`` lines with
    headers, comments, blank lines, non-canonical spellings of events and
    malformed lines, under LF, CRLF and CR line ends."""
    t = 0

    def event(t_text=None, n_text=None, sep=" "):
        return f"{t if t_text is None else t_text}{sep}{draw(st.integers(0, 7)) if n_text is None else n_text}"

    lines = []
    if draw(st.integers(0, 9)):
        lines.append("shape=8 duration=64 label=0")
    kinds = ["run"] * 8 + ["header"] * 2 + ["comment", "blank", "spaced", "signed", "big", "control", "malformed"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=20)):
        t += draw(st.integers(0, 1))
        if kind == "run":
            for _ in range(draw(st.integers(1, 6))):
                lines.append(event())
                t += draw(st.integers(0, 1))
        elif kind == "header":
            shape = draw(st.sampled_from(["8", "2x4", "8x1", "4x2x1"]))
            lines.append(f"shape={shape} duration={draw(st.sampled_from([16, 64]))} label={draw(st.integers(0, 3))}")
        elif kind == "comment":
            lines.append(draw(st.sampled_from(["# note", "  # 1 2", "#", "#shape=8 duration=1 label=0"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\x0c", "\x1c", "\x85", "\u2028"])))
        elif kind == "spaced":
            sep = draw(st.sampled_from(SPLIT_WHITESPACE))
            lines.append(draw(st.sampled_from(["", " ", "\t"])) + event(sep=sep) + draw(st.sampled_from(["", " "])))
        elif kind == "signed":
            lines.append(event(t_text=draw(st.sampled_from(["+", "0", "00", "+0", "-"])) + str(t),
                               n_text=draw(st.sampled_from(["", "0", "+"])) + str(draw(st.integers(0, 7)))))
        elif kind == "big":
            big = draw(st.sampled_from(BIG_FIELDS))
            lines.append(event(t_text=big) if draw(st.booleans()) else event(n_text=big))
        elif kind == "control":
            c = draw(st.sampled_from(["\x0c", "\x1c", "\x85", "\u2028"]))
            lines.append(draw(st.sampled_from([c + event(), event() + c, f"{t}{c}1 2", f"1 {c}2{c}"])))
        else:
            lines.append(draw(st.sampled_from([f"{t} 1 2", f"{t}", "1.5 2", "x 1", "shape=8 duration=64",
                                               "shape=8x duration=64 label=0", "label=0 shape=8 duration=64"])))
    ends = [draw(st.sampled_from(["\n"] * 6 + ["\r\n", "\r"])) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""  # no final newline
    return "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=500, deadline=None)
@given(text=event_file_text(), block=st.integers(1, 16))
@example(text="shape=8 duration=64 label=0\n1 2\n9223372036854775808 0\n3 4\n", block=1 << 20)
@example(text="shape=8 duration=64 label=0\n0 1\n999999999999999999 0\n", block=1 << 20)
@example(text="shape=8 duration=64 label=0\r\n0 1\r2 3\x0c4 5\x1c\n6\x857\n", block=3)
def test_read_events_equals_line_loop_reference(tmp_path_factory, text, block):
    """Small blocks make runs and lines straddle block boundaries."""
    path = tmp_path_factory.mktemp("diff") / "e.events"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(events, "_BLOCK_CHARS", block):
        try:
            expected = read_events_reference(path)
        except EventFormatError as e:
            with pytest.raises(EventFormatError, match=f"^{re.escape(str(e))}$"):
                read_events(path)
        else:
            assert_same_samples(read_events(path), expected)


def test_event_run_not_two_fields_per_line_is_format_error(tmp_path):
    """A run that does not convert to two fields per line is an error, not
    reshaped into other events, whatever the run pattern lets through."""
    path = tmp_path / "e.events"
    path.write_text("shape=8 duration=64 label=0\n0 1\n1 2 3\n4 5\n")
    with mock.patch.object(events, "_EVENT_RUN", re.compile(r"(?:[0-9 ]+\n)+")):
        with pytest.raises(EventFormatError, match="^lines 2-4: read 7 event fields, expected 6$"):
            read_events(path)


def test_read_events_holds_one_block_of_text(tmp_path):
    """Peak memory of a read is its output arrays plus a few blocks of text,
    not the whole file's text, also when the file's last line is refused."""
    block = 1 << 16
    rng = np.random.default_rng(0)
    samples = []
    for label in range(150):
        t = np.sort(rng.integers(0, 1000, 2000))
        samples.append(LabeledSample((128, 128), 1000, label % 3, np.stack([t, rng.integers(0, 128 * 128, t.size)], 1)))
    path = tmp_path / "big.events"
    write_events(samples, path)
    assert path.stat().st_size > 40 * block
    output = sum(s.events.nbytes for s in samples)
    text = path.read_bytes()
    bad = tmp_path / "bad-last-line.events"
    bad.write_bytes(text + b"0 \xff")
    last = text.count(b"\n") + 1
    refused = pytest.raises(EventFormatError, match=f"^line {last}: bytes that are not UTF-8 text$")
    for read_path, expect in ((path, contextlib.nullcontext()), (bad, refused)):
        with mock.patch.object(events, "_BLOCK_CHARS", block):
            tracemalloc.start()
            try:
                with expect:
                    back = read_events(read_path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < output + 16 * block, (read_path.name, peak, output)
    assert_same_samples(back, samples)


def test_non_positive_shape_rejected(tmp_path):
    path = tmp_path / "bad.events"
    for shape in ("2x-2x-8", "0"):  # 2x-2x-8 still has 32 channels
        path.write_text(f"shape={shape} duration=3 label=0\n")
        with pytest.raises(EventFormatError, match="dimension below 1"):
            read_events(path)


def test_negative_duration_rejected(tmp_path):
    path = tmp_path / "bad.events"
    path.write_text("shape=3 duration=-3 label=0\n")
    with pytest.raises(EventFormatError, match="negative duration"):
        read_events(path)


def test_to_dense_counts_multiplicity():
    s = LabeledSample(shape=(2,), duration=3, label=0,
                      events=[SpikeEvent(1, 0), SpikeEvent(1, 0), SpikeEvent(2, 1)])
    dense = s.to_dense()
    assert dense.shape == (3, 2)
    assert dense[1, 0] == 2.0 and dense[2, 1] == 1.0 and dense.sum() == 3.0


def test_rate_encode_zero_feature_silent():
    assert rate_encode(np.array([0.0]), 100).shape == (0, 2)


def test_rate_encode_full_rate_interval():
    events = rate_encode(np.array([1.0]), 100, r_max=0.5)
    assert len(events) == 50
    assert events[:, 0].tolist() == list(range(0, 100, 2))
    assert not events[:, 1].any()


def test_rate_encode_half_feature_half_spikes():
    full = rate_encode(np.array([1.0]), 200, r_max=0.5)
    half = rate_encode(np.array([0.5]), 200, r_max=0.5)
    assert abs(len(half) - len(full) / 2) <= 1


def test_rate_encode_monotone_in_feature():
    counts = [len(rate_encode(np.array([f]), 300, r_max=0.2)) for f in np.linspace(0, 1, 11)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def rate_encode_reference(feats, duration, r_max):
    """``(t, channel)`` pairs of the regular-interval code, one step at a time.
    Where f*r_max underflows to 0, or its inverse overflows, the interval is
    infinite and the channel spikes at t = 0 only."""
    intervals = []
    for j, f in enumerate(feats):
        if f > 0.0:
            inverse = 1.0 / (f * r_max) if f * r_max else math.inf
            intervals.append((j, max(1, round(inverse)) if math.isfinite(inverse) else math.inf))
    return [[t, j] for t in range(duration) for j, interval in intervals if t % interval == 0]


@settings(max_examples=300, deadline=None)
@given(
    # down to the smallest subnormal and r_max = 1e-300, the intervals run past the duration or to infinity
    feats=st.lists(st.just(0.0) | st.floats(1e-9, 1.0) | st.floats(5e-324, 1e-9), max_size=12),
    duration=st.integers(0, 60) | st.integers(0, 400),
    r_max=st.floats(1e-3, 4.0) | st.floats(1e-300, 1e-3),
)
@example(feats=[], duration=400, r_max=0.2)
@example(feats=[5e-324, 1.0, 0.0], duration=3, r_max=1e-300)  # f*r_max underflows to 0 for the first
@example(feats=[1e-10, 1e-5], duration=400, r_max=1e-300)  # 1/(f*r_max) overflows to inf
@example(feats=[0.5, 1.0], duration=400, r_max=0.01)  # intervals of 200 and 100
def test_rate_encode_equals_scalar_reference(feats, duration, r_max):
    events = rate_encode(np.array(feats), duration, r_max=r_max)
    assert events.dtype == np.int64 and events.shape[1:] == (2,) and events.flags.c_contiguous
    assert events.tolist() == rate_encode_reference(feats, duration, r_max)


def test_rate_encode_validates_range():
    with pytest.raises(ValueError):
        rate_encode(np.array([1.2]), 10)
    with pytest.raises(ValueError):
        rate_encode(np.array([-0.1]), 10)


@pytest.mark.parametrize("feats, r_max, words", [
    ([math.nan, 0.5], 0.5, "NaN"),  # NaN compares false against both bounds: the channel was dropped silently
    ([0.5], math.nan, "r_max"),  # was an empty code
    ([0.5], math.inf, "r_max"),  # was a spike on every step
    ([0.5], 0.0, "r_max"),
])
def test_rate_encode_refuses_nan_features_and_r_max_not_positive_and_finite(feats, r_max, words):
    with pytest.raises(ValueError, match=words):
        rate_encode(np.array(feats), 10, r_max=r_max)


@pytest.mark.parametrize("duration", [10**19, 2**62])
def test_rate_encode_duration_past_numpy_sizes_fails_before_a_cast(duration):
    # a RuntimeWarning from casting a huge interval (an error under this suite) would come first
    with pytest.raises(ValueError, match="size"):
        rate_encode(np.array([0.0, 5e-324, 0.5]), duration, r_max=1e-300)


# SHA-256 over each sample's SHA-256 of its int64 events, in order, of configs/fewshot.yaml's synthetic
# task at episode seeds 0-4: pins the shipped data directly rather than through the training digests
SHIPPED_TASK_DIGESTS = {
    0: "efe1f51cf8d9021fe991236c8f581713c3a776133752cbffe9fc7a95b0c0cc56",
    1: "c49485cbce92536253092322adfd4a7624bc244e56f62886c7ad57bb12fdb5e1",
    2: "2934b96df32a5f2047b7f51d0798b3afcfd90d49e706c018e418f3add39194f0",
    3: "3465e1f1e3e35881b87193f60ac92b3fdc8271481b70f96efd35c9831a57db01",
    4: "66e6d6883b0512a7346fc1be138c27fb00d3789cd32b7ab6f3129371fe7bf868",
}


@pytest.mark.parametrize("seed", list(SHIPPED_TASK_DIGESTS))
def test_shipped_config_synthetic_task_is_pinned(seed):
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "fewshot.yaml")
    d, e = cfg["data"], cfg["episode"]
    samples = gen_synthetic_task(
        n_classes=e["n_way"] + e["m_pretrained"], n_per_class=d["n_per_class"], dim=d["dim"],
        separation=d["separation"], seed=d["seed_offset"] + seed, jitter=d["jitter"],
        duration=e["sample_duration"], r_max=d["r_max"], mode=d["mode"])
    assert len(samples) == 45
    digest = hashlib.sha256()
    for s in samples:
        assert s.events.dtype == np.int64
        digest.update(hashlib.sha256(s.events.tobytes()).digest())
    assert digest.hexdigest() == SHIPPED_TASK_DIGESTS[seed]


def test_generated_streams_satisfy_invariants():
    samples = gen_synthetic_task(4, 3, 16, separation=1.0, seed=3, duration=120)
    assert len(samples) == 12
    for s in samples:
        s.validate()
        assert s.duration == 120
        assert (np.diff(s.events[:, 0]) >= 0).all()


def test_same_seed_identical_dataset():
    a = gen_synthetic_task(3, 4, 8, separation=0.5, seed=9)
    b = gen_synthetic_task(3, 4, 8, separation=0.5, seed=9)
    assert_same_samples(a, b)


def test_zero_jitter_identical_instances():
    samples = gen_synthetic_task(2, 3, 8, separation=0.5, seed=1, jitter=1e-12)
    by_label = {}
    for s in samples:
        by_label.setdefault(s.label, []).append(s.events)
    for evs in by_label.values():
        assert all(np.array_equal(e, evs[0]) for e in evs)


def test_two_class_low_dim_feasible():
    samples = gen_synthetic_task(2, 1, 2, separation=1.0, seed=0)
    protos = {s.label for s in samples}
    assert protos == {0, 1}


def test_separation_infeasible_raises():
    with pytest.raises(ValueError, match="failed to place 10 prototypes"):
        gen_synthetic_task(10, 1, 2, separation=5.0, seed=0)


def test_balanced_mode_equal_brightness():
    samples = gen_synthetic_task(4, 1, 32, separation=0.8, seed=2, jitter=1e-12)
    counts = [len(s.events) for s in samples]
    assert max(counts) - min(counts) <= 2


def test_unknown_mode_rejected():
    for mode in ("gauss", "uniform"):  # an old config may still name "uniform"
        with pytest.raises(ValueError):
            gen_synthetic_task(2, 1, 4, separation=0.1, seed=0, mode=mode)


@pytest.fixture(scope="module")
def event_file(tmp_path_factory):
    samples = [
        LabeledSample(shape=(4,), duration=10, label=2,
                      events=[SpikeEvent(0, 1), SpikeEvent(3, 0), SpikeEvent(3, 2), SpikeEvent(9, 3)]),
        LabeledSample(shape=(2, 2, 1), duration=5, label=0, events=[SpikeEvent(1, 3)]),
        LabeledSample(shape=(3,), duration=0, label=1),
    ]
    path = tmp_path_factory.mktemp("events") / "e.events"
    write_events(samples, path)
    return path


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_truncated_or_flipped_file_is_format_error_or_valid(event_file, data):
    good = event_file.read_bytes()
    bad = event_file.with_name("bad.events")
    at = data.draw(st.integers(0, len(good) - 1), label="offset")
    if data.draw(st.booleans(), label="truncate"):
        bad.write_bytes(good[:at])
    else:
        flipped = bytearray(good)
        flipped[at] ^= data.draw(st.integers(1, 255), label="mask")
        bad.write_bytes(bytes(flipped))
    try:
        samples = read_events(bad)
    except EventFormatError:
        return
    for s in samples:
        s.validate()
