import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadsift import canbus
from roadsift.canbus import (
    AS_FAST_AS_POSSIBLE,
    BIG_ENDIAN,
    CSV_HEADER,
    DEFAULT_DBC,
    DEFAULT_MAPPING,
    LITTLE_ENDIAN,
    CanDatabase,
    CanMessageDef,
    CanSignalDef,
    CsvFormatError,
    DbcSyntaxError,
    MappingError,
    OverlappingSignals,
    REAL_TIME,
    PlaybackRecord,
    SignalMapping,
    SignalOutOfFrame,
    SinkError,
    ValueOutOfRange,
    convert_trace,
    decode_signal,
    encode_signal,
    open_sink,
    parse_dbc,
    playback,
    read_dbc,
    read_frames,
    read_mapping,
    read_playback_csv,
    write_playback_csv,
)
from roadsift.cli import main
from roadsift.oracle import (
    NO_TRACE,
    TRACE_COLUMNS,
    TRACE_KEYS,
    DriverConfig,
    build_dataset,
    generate_road,
    save_dataset,
    simulate_drive,
)

import reference_canbus
from conftest import trace_states

SPEED = TRACE_COLUMNS.index("speed")


class TestParseDbc:
    def test_example_message(self):
        text = ('BO_ 256 VEHICLE_DYNAMICS: 8 ECU\n'
                ' SG_ speed_kmh : 0|16@1+ (0.01,0) [0|655.35] "km/h" X\n')
        db = parse_dbc(text)
        assert len(db.messages) == 1
        msg = db.messages[0]
        assert msg.can_id == 0x100
        assert msg.dlc == 8
        sig = msg.signals[0]
        assert (sig.start_bit, sig.bit_length) == (0, 16)
        assert sig.byte_order == LITTLE_ENDIAN
        assert not sig.signed
        assert sig.scale == 0.01

    def test_empty_file(self):
        assert parse_dbc("") == CanDatabase(messages=())

    def test_unknown_lines_ignored(self):
        db = parse_dbc('VERSION "1.0"\nBU_: ECU\n' + DEFAULT_DBC)
        assert len(db.messages) == 3

    # any ASCII whitespace after the keyword, as the line patterns' \s+
    @pytest.mark.parametrize("space", ["\t", "  ", " \t"],
                             ids=["tab", "two_spaces", "space_tab"])
    def test_a_keyword_then_any_ascii_space_parses(self, space):
        text = (f"BO_{space}256 X: 8 E\n"
                f' SG_{space}s : 0|16@1+ (1,0) [0|1] "" D')
        assert parse_dbc(text) == parse_dbc(
            'BO_ 256 X: 8 E\n SG_ s : 0|16@1+ (1,0) [0|1] "" D')

    # keywords that start like BO_ or SG_, a bare keyword, and a keyword
    # followed by a space that is not ASCII
    @pytest.mark.parametrize("line", [
        "BO_TX_BU_ 256 : E;", "SG_MUL_VAL_ 256 s m 0-0;", "BO_", "SG_",
        "BO_\u00a0256 Z: 8 E"])
    def test_other_keywords_are_ignored(self, line):
        assert parse_dbc(DEFAULT_DBC + line + "\n") == parse_dbc(DEFAULT_DBC)

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(DbcSyntaxError) as err:
            parse_dbc("BO_ oops\n")
        assert err.value.line == 1
        with pytest.raises(DbcSyntaxError) as err:
            parse_dbc(DEFAULT_DBC + "SG_ broken\n")
        assert err.value.line == len(DEFAULT_DBC.splitlines()) + 1

    # digits int() and float() read that are not ASCII, and number text
    # outside the JSON grammar
    @pytest.mark.parametrize("old, new, line", [
        ("BO_ 256 VEHICLE_DYNAMICS: 8", "BO_ \u0662\u0665\u0666 VEHICLE_DYNAMICS: 8", 1),
        ("VEHICLE_DYNAMICS: 8", "VEHICLE_DYNAMICS: \u0668", 1),
        ("0|16@1+", "\u0660|16@1+", 2),
        ("(0.01,0)", "(0.0_1,0)", 2), ("(0.01,0)", "(0.01,\u0660)", 2),
        ("[0|655.35]", "[.0|655.35]", 2), ("[0|655.35]", "[0|655.35e]", 2),
        ("[0|655.35]", "[0|inf]", 2)])
    def test_number_text_outside_ascii_is_a_syntax_error(self, old, new, line):
        text = DEFAULT_DBC.replace(old, new, 1)
        assert text != DEFAULT_DBC
        with pytest.raises(DbcSyntaxError) as err:
            parse_dbc(text)
        assert err.value.line == line

    # names are C identifiers and spacing is ASCII
    @pytest.mark.parametrize("text, line", [
        ('BO_ 256 V\u00c9HICULE: 8 SIM\n SG_ s : 0|16@1+ (1,0) [0|1] "" D', 1),
        ('BO_ 256 VEHICLE: 8 SIM\n SG_ s\u00e9 : 0|16@1+ (1,0) [0|1] "" D', 2),
        ('BO_ 256 VEHICLE:\u00a08 SIM\n SG_ s : 0|16@1+ (1,0) [0|1] "" D', 1),
        ('BO_ 256 VEHICLE: 8 SIM\n SG_ s :\u20030|16@1+ (1,0) [0|1] "" D', 2)],
        ids=["message_name", "signal_name", "message_space", "signal_space"])
    def test_text_outside_ascii_is_a_syntax_error(self, text, line):
        with pytest.raises(DbcSyntaxError) as err:
            parse_dbc(text)
        assert err.value.line == line

    # str.strip() takes these spaces around a line; the format does not
    @pytest.mark.parametrize("text, line", [
        ('\u2003BO_ 256 X: 8 E\n SG_ s : 0|16@1+ (1,0) [0|1] "" D', 1),
        ('BO_ 256 X: 8 E\u00a0\n SG_ s : 0|16@1+ (1,0) [0|1] "" D', 1),
        ('BO_ 256 X: 8 E\n\u00a0SG_ s : 0|16@1+ (1,0) [0|1] "" D', 2),
        ('BO_ 256 X: 8 E\n SG_ s : 0|16@1+ (1,0) [0|1] "" D \u2003', 2)],
        ids=["message_lead", "message_trail", "signal_lead", "signal_trail"])
    def test_line_padded_outside_ascii_is_a_syntax_error(self, text, line):
        with pytest.raises(DbcSyntaxError) as err:
            parse_dbc(text)
        assert err.value.line == line
        assert parse_dbc(text.replace("\u2003", " ").replace("\u00a0", "\t")) \
            == parse_dbc('BO_ 256 X: 8 E\n SG_ s : 0|16@1+ (1,0) [0|1] "" D')

    # str.splitlines breaks at these too; a DBC line ends only at \n, \r\n
    # or \r, so the bad line keeps its number in the file
    @pytest.mark.parametrize("char", ["\f", "\x85", "\u2028"],
                             ids=["form_feed", "next_line", "line_separator"])
    def test_a_break_in_a_comment_keeps_the_line_numbers(self, char):
        text = DEFAULT_DBC + f'CM_ "a{char}b";\nBO_ 300 BAD: 9 X\n'
        line = DEFAULT_DBC.count("\n") + 2
        with pytest.raises(ValueError) as err:
            parse_dbc(text)
        assert str(err.value) == f"line {line}: BAD: dlc 9 outside 0..8"

    # a DBC string may hold line breaks; a keyword after one is comment text
    @pytest.mark.parametrize("comment", [
        "first line\nSG_ of the comment", "first line\nBO_ 300 Y: 8 E",
        "first line\r\nSG_ of\rthe comment"],
        ids=["signal_keyword", "message_keyword", "crlf_and_cr"])
    def test_a_string_across_lines_is_one_line(self, comment):
        text = 'BO_ 256 X: 8 E\n SG_ s : 0|16@1+ (1,0) [0|1] "" D\n'
        assert parse_dbc(text + f'CM_ SG_ 256 s "{comment}";\n') \
            == parse_dbc(text)

    def test_a_line_after_a_string_across_lines_keeps_its_number(self):
        text = DEFAULT_DBC + 'CM_ "a\nSG_ of the comment";\nBO_ 300 BAD: 9 X\n'
        line = DEFAULT_DBC.count("\n") + 3
        with pytest.raises(ValueError) as err:
            parse_dbc(text)
        assert str(err.value) == f"line {line}: BAD: dlc 9 outside 0..8"

    @pytest.mark.parametrize("text, line", [
        ('BO_ 256 X: 8 E\nCM_ "no end\n', 2),
        ('BO_ 256 X: 8 E\nCM_ "a\nb" "c\r\nd\n', 3),
        ('BO_ 256 X: 8 E\n SG_ s : 0|16@1+ (1,0) [0|1] "" D "', 2)],
        ids=["comment", "after_a_string_across_lines", "end_of_file"])
    def test_a_string_not_closed_names_the_line_it_opens(self, text, line):
        with pytest.raises(DbcSyntaxError) as err:
            parse_dbc(text)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: string not closed"

    # out of range, refused by the message or signal and named by its line
    @pytest.mark.parametrize("line, error", [
        ("BO_ 256 X: 9 E", "line 1: X: dlc 9 outside 0..8"),
        (' SG_ s : 0|0@1+ (1,0) [0|1] "" D',
         "line 2: s: bit_length 0 outside 1..64"),
        (' SG_ s : 0|65@1+ (1,0) [0|1] "" D',
         "line 2: s: bit_length 65 outside 1..64"),
        (' SG_ s : 64|8@1+ (1,0) [0|1] "" D',
         "line 2: s: start_bit 64 outside 0..63"),
        (' SG_ s : 0|8@1+ (1,0) [2|1] "" D', "line 2: s: min > max"),
        (' SG_ s : 0|8@1+ (1e-320,0) [0|1e300] "" D',
         "line 2: s: [min, max] has no finite raw values at this scale and "
         "offset")],
        ids=["dlc", "bit_length_0", "bit_length_65", "start_bit", "min_max",
             "no_finite_raw"])
    def test_a_value_out_of_range_names_its_line(self, line, error):
        text = (line if line.startswith("BO_") else "BO_ 256 X: 8 E\n" + line)
        with pytest.raises(ValueError) as err:
            parse_dbc(text)
        assert str(err.value) == error

    def test_file_read_as_its_text(self, tmp_path):
        path = tmp_path / "default.dbc"
        path.write_text(DEFAULT_DBC)
        assert read_dbc(path) == parse_dbc(DEFAULT_DBC)

    @pytest.mark.parametrize("second_line", [
        b"SG_ broken\n", b' SG_ speed : 0|16@1+ (1,0) [0|1] "\xb0" X\n'],
        ids=["syntax", "not_utf8"])
    def test_file_error_names_file_and_line(self, tmp_path, second_line):
        path = tmp_path / "bad.dbc"
        path.write_bytes(b"BO_ 256 X: 8 E\n" + second_line)
        with pytest.raises(ValueError) as err:
            read_dbc(path)
        assert str(path) in str(err.value) and "line 2:" in str(err.value)

    def test_overlapping_signals(self):
        text = ('BO_ 1 X: 8 E\n'
                ' SG_ a : 0|8@1+ (1,0) [0|255] "" R\n'
                ' SG_ b : 4|8@1+ (1,0) [0|255] "" R\n')
        with pytest.raises(OverlappingSignals):
            parse_dbc(text)

    def test_signal_out_of_frame(self):
        text = ('BO_ 1 X: 2 E\n'
                ' SG_ a : 8|16@1+ (1,0) [0|65535] "" R\n')
        with pytest.raises(SignalOutOfFrame):
            parse_dbc(text)

    def test_signed_big_endian_parse(self):
        text = ('BO_ 2 Y: 8 E\n'
                ' SG_ m : 7|16@0- (0.1,-10) [-100|100] "deg" R\n')
        sig = parse_dbc(text).messages[0].signals[0]
        assert sig.byte_order == BIG_ENDIAN
        assert sig.signed
        assert sig.offset == -10.0


class TestCodec:
    def test_speed_100_kmh_frame(self):
        db = parse_dbc(DEFAULT_DBC)
        sig = db.by_name("VEHICLE_DYNAMICS").signal("speed_kmh")
        frame = bytearray(8)
        encode_signal(sig, 100.0, frame)
        assert bytes(frame) == bytes([0x10, 0x27, 0, 0, 0, 0, 0, 0])
        assert decode_signal(sig, frame) == pytest.approx(100.0)

    def test_value_equal_offset_gives_zero_field(self):
        sig = CanSignalDef("s", 0, 16, LITTLE_ENDIAN, False, 0.5, 42.0, 42.0, 1000.0)
        frame = bytearray(8)
        encode_signal(sig, 42.0, frame)
        assert bytes(frame) == bytes(8)

    def test_signed_minus_one(self):
        sig = CanSignalDef("s8", 0, 8, LITTLE_ENDIAN, True, 1.0, 0.0, -128, 127)
        frame = bytearray(8)
        encode_signal(sig, -1.0, frame)
        assert frame[0] == 0xFF

    def test_clamping_and_strict_mode(self):
        sig = CanSignalDef("s", 0, 8, LITTLE_ENDIAN, False, 1.0, 0.0, 0.0, 100.0)
        frame = bytearray(8)
        encode_signal(sig, 250.0, frame)
        assert decode_signal(sig, frame) == 100.0
        with pytest.raises(ValueOutOfRange):
            encode_signal(sig, 250.0, frame, clamp=False)

    def test_frame_isolation_with_aa_prefill(self):
        db = parse_dbc(DEFAULT_DBC)
        msg = db.by_name("PEDALS")
        frame = bytearray([0xAA] * 8)
        encode_signal(msg.signal("throttle_pct"), 50.0, frame)
        own_bits = set(msg.signal("throttle_pct").bit_positions())
        for pos in range(64):
            byte_i, bit_i = divmod(pos, 8)
            bit = frame[byte_i] >> bit_i & 1
            if pos not in own_bits:
                assert bit == (0xAA >> bit_i) & 1

    def test_cross_endian_consistency(self):
        le = CanSignalDef("le16", 0, 16, LITTLE_ENDIAN, False, 1.0, 0.0, 0, 65535)
        be = CanSignalDef("be16", 7, 16, BIG_ENDIAN, False, 1.0, 0.0, 0, 65535)
        frame = bytearray(8)
        encode_signal(le, 0x1234, frame)
        swapped = bytearray(frame)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        assert decode_signal(be, swapped) == 0x1234

    def test_big_endian_round_trip(self):
        be = CanSignalDef("m", 7, 12, BIG_ENDIAN, True, 0.25, -10.0, -500.0, 500.0)
        frame = bytearray(8)
        encode_signal(be, -123.5, frame)
        assert abs(decode_signal(be, frame) - (-123.5)) <= 0.125

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_round_trip_within_half_scale(self, data):
        bit_length = data.draw(st.integers(1, 32))
        order = data.draw(st.sampled_from([LITTLE_ENDIAN, BIG_ENDIAN]))
        signed = data.draw(st.booleans())
        scale = data.draw(st.sampled_from([0.01, 0.1, 0.5, 1.0, 2.0]))
        offset = data.draw(st.sampled_from([-100.0, 0.0, 37.5]))
        if order == LITTLE_ENDIAN:
            start = data.draw(st.integers(0, 63 - bit_length + 1))
        else:
            # Motorola start bit: ensure the descending walk stays in frame
            start_byte = data.draw(st.integers(0, 7))
            start_bit_in_byte = data.draw(st.integers(0, 7))
            start = start_byte * 8 + start_bit_in_byte
            tail = start_byte * 8 + (7 - start_bit_in_byte) + bit_length
            if tail > 64:
                return
        if signed:
            raw_lo, raw_hi = -(2 ** (bit_length - 1)), 2 ** (bit_length - 1) - 1
        else:
            raw_lo, raw_hi = 0, 2 ** bit_length - 1
        lo = raw_lo * scale + offset
        hi = raw_hi * scale + offset
        sig = CanSignalDef("s", start, bit_length, order, signed, scale,
                           offset, lo, hi)
        value = data.draw(st.floats(min_value=lo, max_value=hi,
                                    allow_nan=False, allow_infinity=False))
        frame = bytearray(8)
        encode_signal(sig, value, frame)
        assert abs(decode_signal(sig, frame) - value) <= scale / 2 + 1e-9

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_reference_encoder(self, data):
        # wide fields, whose raw range ends are not all floats, with [min,
        # max] reaching past them; values at the ends, signed zeros,
        # infinities and NaNs, which must raise what the reference raises
        bit_length = data.draw(st.integers(54, 64) | st.integers(1, 64))
        order = data.draw(st.sampled_from([LITTLE_ENDIAN, BIG_ENDIAN]))
        # the raw LSB's bit in the frame read little-endian (Intel) or
        # big-endian (Motorola), where either signal's bits run upward
        lsb = data.draw(st.integers(0, 64 - bit_length))
        msb = lsb + bit_length - 1
        start = lsb if order == LITTLE_ENDIAN else (7 - msb // 8) * 8 + msb % 8
        ends = st.sampled_from([0.0, -0.0, 2.0 ** 53, 2.0 ** 63, 2.0 ** 64,
                                -2.0 ** 63, 1e25, -1e25])
        lo, hi = sorted(data.draw(st.lists(ends | st.floats(-1e25, 1e25),
                                           min_size=2, max_size=2)))
        sig = CanSignalDef("s", start, bit_length, order, data.draw(st.booleans()),
                           data.draw(st.sampled_from([0.25, 1.0, 3.0])),
                           data.draw(st.sampled_from([0.0, -100.0, 37.5])), lo, hi)
        specials = [math.nan, math.inf, -math.inf, 0.0, -0.0, lo, hi,
                    2.0 ** 63 - 1024, 2.0 ** 64 - 2048, -2.0 ** 63]
        value = data.draw(st.sampled_from(specials)
                          | st.floats(-1e25, 1e25) | st.floats())
        prefill = data.draw(st.binary(min_size=8, max_size=8))

        def outcome(encode):
            frame = bytearray(prefill)
            try:
                encode(sig, value, frame)
            except Exception as exc:
                return type(exc), str(exc)
            return bytes(frame)
        assert outcome(encode_signal) == outcome(reference_canbus.encode_signal)


def flat_trace(duration_s, dt=0.05, speed=10.0):
    steps = int(round(duration_s / dt))
    # t, x, y, heading, speed, steering, throttle, brake, lateral_offset
    return np.array([(i * dt, 0.0, 0.0, 0.05, speed, 0.02, 0.4, 0.0, 0.0)
                     for i in range(steps + 1)])


class TestConvertTrace:
    def test_record_count(self):
        db = parse_dbc(DEFAULT_DBC)
        records = convert_trace(flat_trace(10.0), db, DEFAULT_MAPPING,
                                sample_period_ms=100)
        assert len(records) == 101 * 3

    def test_empty_mapping(self):
        db = parse_dbc(DEFAULT_DBC)
        records = convert_trace(flat_trace(1.0), db,
                                SignalMapping(entries=()), 100)
        assert records == []

    @pytest.mark.parametrize("period", [0, -20])
    def test_period_below_one_rejected(self, period):
        db = parse_dbc(DEFAULT_DBC)
        with pytest.raises(ValueError, match=f"sample_period_ms .*{period}"):
            convert_trace(flat_trace(1.0), db, DEFAULT_MAPPING, period)

    def test_empty_trace_rejected(self):
        db = parse_dbc(DEFAULT_DBC)
        with pytest.raises(MappingError):
            convert_trace(NO_TRACE, db, DEFAULT_MAPPING, 100)

    def test_bad_mapping_rejected(self):
        db = parse_dbc(DEFAULT_DBC)
        bad = SignalMapping(entries=(("nope", "PEDALS", "brake_pct", 1.0),))
        with pytest.raises(MappingError):
            convert_trace(flat_trace(1.0), db, bad, 100)

    def test_lateral_offset_not_mappable(self):
        # a trace array has the column, but dataset files do not keep it
        # and load_dataset fills it with zeros
        db = parse_dbc(DEFAULT_DBC)
        bad = SignalMapping(entries=(("lateral_offset", "PEDALS", "brake_pct", 1.0),))
        with pytest.raises(MappingError):
            convert_trace(flat_trace(1.0), db, bad, 100)

    def test_decode_back_matches_resampled_values(self):
        db = parse_dbc(DEFAULT_DBC)
        out = simulate_drive(generate_road(2)[0], DriverConfig())
        records = convert_trace(out.trace, db, DEFAULT_MAPPING, 20)
        speed_sig = db.by_name("VEHICLE_DYNAMICS").signal("speed_kmh")
        dyn = [r for r in records if r.can_id == 0x100]
        states = trace_states(out.trace)
        for rec in dyn[:50]:
            # zero-order hold: last state at or before the instant
            state = max((s for s in states
                         if round(s.t * 1000.0) <= rec.timestamp_ms),
                        key=lambda s: s.t)
            expected = state.speed * 3.6
            assert abs(decode_signal(speed_sig, rec.data) - expected) <= 0.005 + 1e-9

    def test_times_going_back_hold_as_the_reference_does(self):
        # an instant holds the state before the first later one past it,
        # even when a state after that one is back in time
        db = parse_dbc(DEFAULT_DBC)
        trace = flat_trace(1.0)[:6]
        trace[:, 0] = [0.0, 0.1, 0.05, 0.2, 0.03, 0.3]
        trace[:, SPEED] = range(6)
        assert (convert_trace(trace, db, DEFAULT_MAPPING, 10)
                == reference_canbus.convert_trace(trace_states(trace), db,
                                                  DEFAULT_MAPPING, 10))

    # an infinity times a zero factor is a NaN, and a product past the
    # float range an infinity: the reference's outcome, with no warning
    @pytest.mark.parametrize("factor, value", [
        (0.0, math.inf), (100.0, 1e308), (-100.0, 1e308)])
    def test_products_outside_the_floats_convert_as_the_reference_does(
            self, factor, value):
        db = parse_dbc(DEFAULT_DBC)
        mapping = SignalMapping(entries=(
            ("speed", "VEHICLE_DYNAMICS", "speed_kmh", factor),))
        trace = flat_trace(0.0)
        trace[0, SPEED] = value

        def outcome(convert, trace):
            try:
                return convert(trace, db, mapping, 20)
            except Exception as exc:
                return type(exc), str(exc)
        assert (outcome(convert_trace, trace)
                == outcome(reference_canbus.convert_trace, trace_states(trace)))

    def test_sorted_by_timestamp_then_id(self):
        db = parse_dbc(DEFAULT_DBC)
        records = convert_trace(flat_trace(2.0), db, DEFAULT_MAPPING, 50)
        keys = [(r.timestamp_ms, r.can_id) for r in records]
        assert keys == sorted(keys)


def draw_message(data, can_id, name, bounds=st.floats(-5000.0, 5000.0)):
    """A message of random dlc with up to four signals (Intel and Motorola,
    signed and unsigned, up to 64 bits wide) at random places, each with
    [min, max] drawn from bounds; one that would overlap another or leave
    the frame is dropped."""
    # full frames, and fields within 7 bits of the frame's width, as often
    # as the rest: wide fields are rare in uniform draws
    dlc = data.draw(st.integers(1, 8) | st.just(8))
    used: set[int] = set()
    signals = []
    for k in range(data.draw(st.integers(1, 4))):
        order = data.draw(st.sampled_from([LITTLE_ENDIAN, BIG_ENDIAN]))
        top = min(64, dlc * 8)
        bit_length = data.draw(st.integers(1, top) | st.integers(top - 7, top))
        start = data.draw(st.integers(
            0, dlc * 8 - (bit_length if order == LITTLE_ENDIAN else 1)))
        lo, hi = sorted(data.draw(st.lists(bounds, min_size=2, max_size=2)))
        sig = CanSignalDef(
            f"s{k}", start, bit_length, order, data.draw(st.booleans()),
            data.draw(st.sampled_from([0.01, 0.25, 0.5, 1.0, 3.0])),
            data.draw(st.sampled_from([-100.0, 0.0, 37.5])), lo, hi)
        bits = set(sig.bit_positions())
        if max(bits) < dlc * 8 and not bits & used:
            used |= bits
            signals.append(sig)
    return CanMessageDef(can_id, name, dlc, tuple(signals))


class TestCompiledConversion:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_reference_converter(self, data):
        # few ids for several names, so ids are shared and name order
        # differs from id order
        names = data.draw(st.lists(
            st.sampled_from(["PEDALS", "STEERING", "A", "Z", "M"]),
            min_size=1, max_size=4, unique=True))
        db = CanDatabase(messages=tuple(
            draw_message(data, data.draw(st.integers(256, 259)), name)
            for name in names))
        targets = [(msg.name, sig.name) for msg in db.messages
                   for sig in msg.signals]
        mapping = SignalMapping(entries=tuple(
            (data.draw(st.sampled_from(TRACE_KEYS)), msg_name, sig_name,
             data.draw(st.sampled_from([1.0, -2.5, 3.6, 100.0, 1e-3])))
            for msg_name, sig_name in data.draw(
                st.lists(st.sampled_from(targets), min_size=1, max_size=8)
                if targets else st.just([]))))
        # repeated timestamps and steps below 1 ms round onto one instant
        t = data.draw(st.sampled_from([0.0, 0.0004, 0.013]))
        trace = []
        for _ in range(data.draw(st.integers(1, 25))):
            values = data.draw(st.lists(st.floats(-1000.0, 1000.0),
                                        min_size=7, max_size=7))
            trace.append((t, *values, 0.0))
            t += data.draw(st.sampled_from(
                [0.0, 0.0002, 0.0006, 0.001, 0.02, 0.05, 0.137]))
        trace = np.array(trace)
        period = data.draw(st.integers(1, 100))
        assert (convert_trace(trace, db, mapping, period)
                == reference_canbus.convert_trace(trace_states(trace), db,
                                                  mapping, period))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_tie_and_special_values_match_reference_converter(self, data):
        # with factors of +-1, a mapped value can be exactly a signal's
        # minimum or maximum, a signed zero, an infinity or a NaN, where only
        # the clamps' tie rule decides what is packed; a NaN reaches round()
        # and must raise what the reference raises
        bounds = st.floats(-5000.0, 5000.0) | st.sampled_from([0.0, -0.0])
        db = CanDatabase(messages=tuple(
            draw_message(data, can_id, name, bounds)
            for can_id, name in ((256, "A"), (257, "B"))))
        targets = [(msg.name, sig) for msg in db.messages
                   for sig in msg.signals]
        mapping = SignalMapping(entries=tuple(
            (data.draw(st.sampled_from(TRACE_KEYS[1:])), msg_name, sig.name,
             data.draw(st.sampled_from([1.0, -1.0])))
            for msg_name, sig in data.draw(
                st.lists(st.sampled_from(targets), min_size=1, max_size=6))))
        specials = [math.nan, math.inf, -math.inf, 0.0, -0.0] + [
            sign * end for _, sig in targets for end in (sig.minimum, sig.maximum)
            for sign in (1.0, -1.0)]
        values = st.sampled_from(specials) | st.floats(-1000.0, 1000.0)
        trace = np.array([(0.02 * i, *data.draw(st.lists(
                     values, min_size=7, max_size=7)), 0.0)
                 for i in range(data.draw(st.integers(1, 6)))])
        period = data.draw(st.integers(1, 50))

        def outcome(convert, trace):
            try:
                return convert(trace, db, mapping, period)
            except Exception as exc:
                return type(exc), str(exc)
        assert (outcome(convert_trace, trace)
                == outcome(reference_canbus.convert_trace, trace_states(trace)))


def dbc_text(db: CanDatabase) -> str:
    """The DBC text of a database, each number as its repr."""
    lines = []
    for msg in db.messages:
        lines.append(f"BO_ {msg.can_id} {msg.name}: {msg.dlc} E")
        for sig in msg.signals:
            order = 1 if sig.byte_order == LITTLE_ENDIAN else 0
            lines.append(
                f" SG_ {sig.name} : {sig.start_bit}|{sig.bit_length}@{order}"
                f"{'-' if sig.signed else '+'} ({sig.scale!r},{sig.offset!r}) "
                f'[{sig.minimum!r}|{sig.maximum!r}] "" D')
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def labelled_test():
    """One labelled test without its trace, to carry drawn traces."""
    return build_dataset(1, DriverConfig(), rng_seed=1, keep_traces=False)[0]


class TestCanConvertFiles:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_files_match_reference_converter_and_writer(
            self, labelled_test, tmp_path_factory, data):
        # a DBC and a mapping file, Intel and Motorola, signed and unsigned
        # signals up to 64 bits wide, with [min, max] and trace values past
        # 2**53 so that wide raw fields are exact or saturate; a trace with
        # repeated and sub-millisecond timestamps
        names = data.draw(st.lists(st.sampled_from(["PEDALS", "STEERING", "A", "Z"]),
                                   min_size=1, max_size=4, unique=True))
        ids = data.draw(st.lists(st.integers(256, 262), min_size=len(names),
                                 max_size=len(names), unique=True))
        wide = st.floats(-1e20, 1e20) | st.sampled_from(
            [2.0 ** 53 + 2, 2.0 ** 62, 2.0 ** 63, -2.0 ** 63, 2.0 ** 64,
             1e19, -1e19, 1e25, -1e25])
        db = CanDatabase(messages=tuple(
            draw_message(data, can_id, name, st.floats(-5000.0, 5000.0) | wide)
            for can_id, name in zip(ids, names)))
        targets = [(msg.name, sig.name) for msg in db.messages
                   for sig in msg.signals]
        entries = [
            {"field": data.draw(st.sampled_from(TRACE_KEYS)), "message": msg_name,
             "signal": sig_name,
             "factor": data.draw(st.sampled_from([1.0, -2.5, 3.6, 100.0, 1e-3]))}
            for msg_name, sig_name in data.draw(
                st.lists(st.sampled_from(targets), min_size=1, max_size=8)
                if targets else st.just([]))]
        t = data.draw(st.sampled_from([0.0, 0.0004, 0.013]))
        trace = []
        for _ in range(data.draw(st.integers(1, 25))):
            values = data.draw(st.lists(st.floats(-1000.0, 1000.0) | wide,
                                        min_size=7, max_size=7))
            trace.append((t, *values, 0.0))
            t += data.draw(st.sampled_from(
                [0.0, 0.0002, 0.0006, 0.001, 0.02, 0.05, 0.137]))
        trace = np.array(trace)
        period = data.draw(st.integers(1, 100))

        base = tmp_path_factory.getbasetemp()
        dbc, mapping_file, sim = (base / "drawn.dbc", base / "drawn_mapping.json",
                                  base / "drawn.full.json")
        dbc.write_text(dbc_text(db))
        assert parse_dbc(dbc.read_text()) == db
        mapping_file.write_text(json.dumps(entries))
        test = replace(labelled_test, outcome=replace(labelled_test.outcome,
                                                      trace=trace))
        save_dataset(sim, [test])
        out = base / "drawn_can"
        assert main(["can-convert", "--simulation", str(sim), "--dbc", str(dbc),
                     "--mapping", str(mapping_file), "--period-ms", str(period),
                     "--out", str(out)]) == 0
        reference = base / "drawn_reference.csv"
        reference_canbus.write_playback_csv(reference_canbus.convert_trace(
            trace_states(trace), db, read_mapping(mapping_file), period),
            reference)
        assert ((out / f"{test.id}.canplayback.csv").read_bytes()
                == reference.read_bytes())


class TestPlaybackCsv:
    def test_line_format(self, tmp_path):
        rec = PlaybackRecord(0, 0x100, 8,
                             bytes([0x10, 0x27, 0, 0, 0, 0, 0, 0]))
        path = tmp_path / "p.csv"
        write_playback_csv([rec], path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "0,100,8,1027000000000000"

    def test_roundtrip_random_records(self, tmp_path):
        rng = np.random.default_rng(0)
        ts = np.sort(rng.integers(0, 100000, 1000))
        records = [
            PlaybackRecord(int(t), int(rng.integers(0, 2048)), 8,
                           bytes(rng.integers(0, 256, 8, dtype=np.uint8)))
            for t in ts]
        path = tmp_path / "r.csv"
        write_playback_csv(records, path)
        assert read_playback_csv(path) == records

    def test_decreasing_timestamps_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n10,100,2,aabb\n5,100,2,aabb\n")
        with pytest.raises(CsvFormatError) as err:
            read_playback_csv(path)
        assert err.value.line == 3
        assert str(err.value).startswith(f"{path}, line 3: ")

    def test_dlc_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n0,100,3,aabb\n")
        with pytest.raises(CsvFormatError):
            read_playback_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n")
        with pytest.raises(CsvFormatError):
            read_playback_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        with pytest.raises(CsvFormatError) as err:
            read_playback_csv(path)
        assert err.value.line == 1 and str(path) in str(err.value)

    def test_not_utf8_names_file_and_line(self, tmp_path):
        # the bad byte lies past the first block a text reader decodes
        path = tmp_path / "bin.csv"
        rows = b"".join(b"%d,100,2,aabb\n" % (10 * i) for i in range(2000))
        path.write_bytes(CSV_HEADER.encode() + b"\n" + rows
                         + b"20000,100,2,aa\xffb\n")
        with pytest.raises(ValueError) as err:
            read_playback_csv(path)
        assert str(err.value).startswith(f"{path}, line 2002: ")

    # field text int() and bytes.fromhex() read that the writer never writes
    @pytest.mark.parametrize("row", [
        "1_0,100,2,aabb", "+10,100,2,aabb", "\u0661,100,2,aabb",
        "0,0x100,2,aabb", "0,1_00,2,aabb", "0, 100,2,aabb",
        "0,100, 2,aabb", "0,100,\u0662,aabb", "0,100,2,0a 0b"])
    def test_field_text_outside_the_writer_names_the_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"{CSV_HEADER}\n0,100,2,aabb\n{row}\n")
        with pytest.raises(CsvFormatError) as err:
            read_playback_csv(path)
        assert err.value.line == 3
        assert str(err.value).startswith(f"{path}, line 3: ")

    # a row is read as written: no space around it, ASCII or not
    @pytest.mark.parametrize("row", [" 0,100,2,aabb ", "\u00a00,100,2,aabb\u00a0"],
                             ids=["space", "nbsp"])
    def test_padded_row_names_the_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"{CSV_HEADER}\n{row}\n")
        with pytest.raises(CsvFormatError) as err:
            read_playback_csv(path)
        assert err.value.line == 2

    def test_a_timestamp_past_the_int_digit_limit_names_the_line(self,
                                                                  tmp_path):
        path = tmp_path / "long.csv"
        path.write_text(f"{CSV_HEADER}\n{'9' * 5000},100,2,aabb\n")
        with pytest.raises(CsvFormatError) as err:
            read_playback_csv(path)
        assert err.value.line == 2 and "digit" in str(err.value)

    def test_empty_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text(f"{CSV_HEADER}\n\n0,100,2,aabb\n\n")
        assert read_playback_csv(path) == [PlaybackRecord(0, 0x100, 2,
                                                          b"\xaa\xbb")]

    def test_crlf_lines_read(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(CSV_HEADER.encode() + b"\r\n0,100,2,aabb\r\n")
        assert read_playback_csv(path) == [PlaybackRecord(0, 0x100, 2,
                                                          b"\xaa\xbb")]

    @given(data=st.data())
    def test_matches_reference_writer(self, tmp_path_factory, data):
        # few frames, so records repeat them, and frames that share a
        # can_id, a dlc or a payload; a bytearray payload is not hashable
        # and still written
        frames = data.draw(st.lists(st.tuples(
            st.sampled_from([0x100, 0x101, canbus.MAX_U32]),
            st.sampled_from([0, 2, 8]),
            st.sampled_from([b"", b"\xaa\xbb"]) | st.binary(max_size=8)),
            min_size=1, max_size=6))
        records = []
        for ts in sorted(data.draw(st.lists(st.integers(0, canbus.MAX_U32),
                                            max_size=30))):
            can_id, dlc, payload = data.draw(st.sampled_from(frames))
            if data.draw(st.booleans()):
                payload = bytearray(payload)
            records.append(PlaybackRecord(ts, can_id, dlc, payload))
        base = tmp_path_factory.getbasetemp()
        write_playback_csv(records, base / "new.csv")
        reference_canbus.write_playback_csv(records, base / "reference.csv")
        assert ((base / "new.csv").read_bytes()
                == (base / "reference.csv").read_bytes())

    def test_header_only_is_empty_playback(self, tmp_path):
        path = tmp_path / "none.csv"
        write_playback_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"
        assert read_playback_csv(path) == []


class TestPlayback:
    def make_records(self, n=20):
        return [PlaybackRecord(i * 10, 0x100 + (i % 3), 4,
                               bytes([i % 256, 0, 1, 2])) for i in range(n)]

    def test_binary_framing_roundtrip(self):
        records = self.make_records()
        buf = io.BytesIO()
        report = playback(records, buf, AS_FAST_AS_POSSIBLE)
        assert report.frames_sent == len(records)
        assert read_frames(buf.getvalue()) == records

    def test_empty_records(self):
        report = playback([], io.BytesIO())
        assert report.frames_sent == 0
        assert report.mean_latency_ms == 0.0

    def test_unknown_pacing_is_refused_before_any_frame(self):
        buf = io.BytesIO()
        with pytest.raises(ValueError, match="'bogus'"):
            playback(self.make_records(), buf, "bogus")
        assert buf.getvalue() == b""

    # the second record cannot be framed: a dlc unlike its data's length
    # or past 8, or a timestamp_ms or can_id outside the wire's u32
    @pytest.mark.parametrize("record", [
        PlaybackRecord(0, 0x100, 2, b"\xaa\xbb\xcc"),
        PlaybackRecord(0, 0x100, 9, bytes(9)),
        PlaybackRecord(2 ** 32, 0x100, 0, b""),
        PlaybackRecord(-1, 0x100, 0, b""),
        PlaybackRecord(0, 2 ** 32, 0, b""),
        PlaybackRecord(0, -1, 0, b"")],
        ids=["dlc_not_data_length", "dlc_past_8", "timestamp_past_u32",
             "negative_timestamp", "can_id_past_u32", "negative_can_id"])
    def test_a_record_the_wire_cannot_carry_is_refused_before_any_frame(
            self, record):
        buf = io.BytesIO()
        with pytest.raises(ValueError, match="^record 1: "):
            playback([PlaybackRecord(0, 0x100, 0, b""), record], buf)
        assert buf.getvalue() == b""

    def test_a_timestamp_going_back_is_refused_before_any_frame(self):
        buf = io.BytesIO()
        with pytest.raises(ValueError,
                           match="^record 1: timestamp_ms 0 decreases from 20$"):
            playback([PlaybackRecord(20, 0x100, 0, b""),
                      PlaybackRecord(0, 0x100, 0, b"")], buf)
        assert buf.getvalue() == b""

    def test_an_unknown_sink_scheme_is_refused(self):
        with pytest.raises(ValueError, match="unsupported sink target 'udp://x:1'"):
            open_sink("udp://x:1")

    def test_sink_error_counts_frames(self):
        records = self.make_records()

        class FlakySink:
            def __init__(self):
                self.n = 0

            def write(self, blob):
                if self.n >= 7:
                    raise OSError("pipe closed")
                self.n += 1

        with pytest.raises(SinkError) as err:
            playback(records, FlakySink())
        assert err.value.frames_sent == 7

    def test_file_sink(self, tmp_path):
        target = f"file://{tmp_path / 'out.bin'}"
        sink = open_sink(target)
        records = self.make_records(5)
        playback(records, sink)
        sink.close()
        blob = (tmp_path / "out.bin").read_bytes()
        assert read_frames(blob) == records

    @pytest.mark.parametrize("target", [
        "tcp://localhost", "tcp://localhost:", "tcp://:8080",
        "tcp://localhost:0", "tcp://localhost:65536", "tcp://localhost:65616",
        "tcp://localhost:-1", "tcp://localhost: 80", "tcp://localhost:http",
        "tcp://localhost:٨٠", "tcp://::1:8080", "tcp://[::1]", "tcp://[::1]:",
        "tcp://[::1]8080", "tcp://[]:8080", "tcp://[::1:8080", "tcp://[::1]:0"])
    def test_a_bad_tcp_target_is_named_before_connecting(self, target,
                                                         monkeypatch):
        def connect(address):
            raise AssertionError(f"connected to {address}")
        monkeypatch.setattr(canbus.socket, "create_connection", connect)
        with pytest.raises(ValueError) as err:
            open_sink(target)
        assert repr(target) in str(err.value)

    def test_a_bracketed_ipv6_target_connects(self, monkeypatch):
        addresses = []

        class Socket:
            def makefile(self, mode):
                return io.BytesIO()

        def connect(address):
            addresses.append(address)
            return Socket()
        monkeypatch.setattr(canbus.socket, "create_connection", connect)
        open_sink("tcp://[::1]:8080")
        assert addresses == [("::1", 8080)]

    def test_a_tcp_target_connects_to_its_port(self, monkeypatch):
        addresses = []

        class Socket:
            def makefile(self, mode):
                return io.BytesIO()

        def connect(address):
            addresses.append(address)
            return Socket()
        monkeypatch.setattr(canbus.socket, "create_connection", connect)
        open_sink("tcp://localhost:65535")
        assert addresses == [("localhost", 65535)]

    @pytest.mark.parametrize("cut, offset", [(9 + 4 + 5, 13), (9 + 4 + 9 + 2, 13)],
                             ids=["header", "payload"])
    def test_truncated_frames_rejected(self, cut, offset):
        buf = io.BytesIO()
        playback(self.make_records(3), buf)
        with pytest.raises(ValueError, match=f"frame at byte {offset} cut after "):
            read_frames(buf.getvalue()[:cut])

    def test_realtime_pacing_does_not_drift(self, monkeypatch):
        # on a fake clock every write takes 5 ms; frames 20 ms apart must
        # still go out at their own timestamps, not 25 ms apart
        class FakeTime:
            now = 0.0

            def perf_counter(self):
                return self.now

            def sleep(self, seconds):
                self.now += seconds

        clock = FakeTime()
        monkeypatch.setattr(canbus, "time", clock)
        sent_at = []

        class SlowSink:
            def write(self, blob):
                sent_at.append(clock.now)
                clock.now += 0.005

        records = [PlaybackRecord(i * 20, 0x100, 4, bytes(4)) for i in range(50)]
        report = playback(records, SlowSink(), REAL_TIME)
        assert report.frames_sent == 50
        assert sent_at[-1] == pytest.approx(0.980, abs=1e-6)

    def test_non_decreasing_order_preserved(self):
        records = self.make_records(50)
        buf = io.BytesIO()
        playback(records, buf)
        ts = [r.timestamp_ms for r in read_frames(buf.getvalue())]
        assert ts == sorted(ts)
