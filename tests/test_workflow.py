import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from anticipation import (
    FeatureSpec,
    PhaseSpec,
    ProcedureSequence,
    SimConfig,
    TriggerRule,
    UsageRule,
    attach_features,
    generate_dataset,
    load_annotations,
    load_features,
    save_annotations,
    save_features,
)
from anticipation.errors import AnnotationParseError
from anticipation.workflow import _CHUNK_ROWS, emit_features, instrument_onsets

from oracles import (
    nearest_signature_decode,
    savetxt_features,
    scan_annotations,
    write_annotation_rows,
)


def basic_config(**overrides):
    fields = dict(
        instruments=2,
        phases=2,
        duration_mean=300.0,
        duration_std=0.0,
        phase_plan=(PhaseSpec(150.0), PhaseSpec(150.0)),
        usage_rules=(UsageRule(instrument=0, phase=0, probability=1.0, length_mean=10.0),),
        trigger_rules=(TriggerRule(trigger=0, target=1, delay_mean=60.0),),
        features=FeatureSpec(),
    )
    fields.update(overrides)
    return SimConfig(**fields)


class TestGeneration:
    def test_deterministic_for_config_and_seed(self):
        config = basic_config(duration_std=30.0)
        a = generate_dataset(config, 5, seed=123)
        b = generate_dataset(config, 5, seed=123)
        for x, y in zip(a, b):
            assert x.id == y.id
            np.testing.assert_array_equal(x.presence, y.presence)
            np.testing.assert_array_equal(x.features, y.features)
            np.testing.assert_array_equal(x.phase, y.phase)

    def test_serialized_determinism(self, tmp_path):
        config = basic_config(duration_std=20.0, features=FeatureSpec(noise_std=0.1))
        paths = []
        for run in range(2):
            seq = generate_dataset(config, 1, seed=9)[0]
            p = tmp_path / f"run{run}.csv"
            save_annotations(seq, str(p))
            save_features(seq.features, str(tmp_path / f"run{run}.feat.csv"))
            paths.append(p)
        assert paths[0].read_bytes() == (tmp_path / "run1.csv").read_bytes()
        assert (tmp_path / "run0.feat.csv").read_bytes() == (tmp_path / "run1.feat.csv").read_bytes()

    def test_trigger_delay_is_exact(self):
        """Firing probability 1, jitter 0: every target onset sits delay frames
        after a trigger onset."""
        config = basic_config()
        for seed in range(6):
            seq = generate_dataset(config, 1, seed=seed)[0]
            trig = set(instrument_onsets(seq.presence[:, 0]).tolist())
            for onset in instrument_onsets(seq.presence[:, 1]):
                assert onset - 60 in trig

    def test_first_target_onset_after_first_trigger(self):
        seq = generate_dataset(basic_config(), 1, seed=4)[0]
        first_a = instrument_onsets(seq.presence[:, 0])[0]
        first_b = instrument_onsets(seq.presence[:, 1])[0]
        assert first_b == first_a + 60

    def test_clipped_trigger_onset_is_dropped(self):
        config = basic_config(
            usage_rules=(UsageRule(0, 1, 1.0, length_mean=5.0),),  # A late in the timeline
            trigger_rules=(TriggerRule(0, 1, delay_mean=10_000.0),),
        )
        seq = generate_dataset(config, 1, seed=0)[0]
        assert not seq.presence[:, 1].any()

    def test_presence_budget_matches_counting_oracle(self):
        """Observed presence fractions stay within +-50% of the configured
        budget (probability x segments x mean length / mean duration)."""
        k = 5
        rules = tuple(
            UsageRule(instrument=j, phase=j % 2, probability=0.9, length_mean=120.0, length_std=10.0)
            for j in range(k)
        )
        config = basic_config(
            instruments=k, duration_mean=2000.0, duration_std=100.0,
            usage_rules=rules, trigger_rules=(),
        )
        data = generate_dataset(config, 20, seed=5)
        counts = np.zeros(k)
        frames = 0
        for seq in data:
            counts += seq.presence.sum(axis=0)
            frames += seq.n_frames
        observed = counts / frames
        budget = 0.9 * 120.0 / 2000.0
        assert (observed > 0.5 * budget).all() and (observed < 1.5 * budget).all()

    def test_rejects_invalid_config_naming_field(self):
        with pytest.raises(ValueError, match="probability"):
            basic_config(usage_rules=(UsageRule(0, 0, 1.5),)).validate()
        with pytest.raises(ValueError, match="duration_mean"):
            basic_config(duration_mean=-5.0).validate()
        with pytest.raises(ValueError, match="delay"):
            basic_config(trigger_rules=(TriggerRule(0, 1, delay_mean=-1.0),)).validate()

    def test_rejects_zero_sequences(self):
        with pytest.raises(ValueError, match="n must be"):
            generate_dataset(basic_config(), 0, seed=1)


class TestFeatures:
    def test_decodable_at_zero_noise(self):
        config = basic_config(
            instruments=4, phases=3,
            phase_plan=(PhaseSpec(100.0), PhaseSpec(100.0), PhaseSpec(100.0)),
            usage_rules=tuple(UsageRule(j, j % 3, 0.9, 20.0) for j in range(4)),
            trigger_rules=(),
            features=FeatureSpec(noise_std=0.0),
        )
        seq = generate_dataset(config, 1, seed=2)[0]
        decoded = nearest_signature_decode(seq.features, seq.phase, config)
        recovered = (decoded == seq.presence).mean()
        assert recovered >= 0.9

    def test_feature_file_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(40, 6))
        csv_path = str(tmp_path / "f.csv")
        save_features(feats, csv_path)
        np.testing.assert_array_equal(load_features(csv_path), feats)

    def test_stray_sidecar_is_ignored(self, tmp_path):
        """A ``.hdr`` file beside a feature CSV is not a second format."""
        feats = np.arange(12.0).reshape(4, 3)
        path = str(tmp_path / "f.features.csv")
        save_features(feats, path)
        with open(path + ".hdr", "w") as fh:
            fh.write("F=3 n=99\n")
        np.testing.assert_array_equal(load_features(path), feats)

    def test_malformed_feature_csv_names_the_file(self, tmp_path):
        path = str(tmp_path / "f.features.csv")
        with open(path, "w") as fh:
            fh.write("0.5,1.5\n0.5,oops\n")
        with pytest.raises(AnnotationParseError, match="malformed feature CSV") as info:
            load_features(path)
        assert str(info.value).startswith(path)

    def test_attach_from_file_and_length_mismatch(self, tmp_path):
        seq = generate_dataset(basic_config(), 1, seed=0)[0]
        path = str(tmp_path / "feats.csv")
        save_features(np.ones((seq.n_frames, 8)), path)
        out = attach_features(seq, path)
        assert out.feature_dim == 8
        np.testing.assert_array_equal(out.presence, seq.presence)

        save_features(np.ones((seq.n_frames - 1, 8)), path)
        with pytest.raises(AnnotationParseError) as info:
            attach_features(seq, path)
        assert str(info.value) == (f"{path}: feature rows ({seq.n_frames - 1}) "
                                   f"do not match sequence length ({seq.n_frames})")

    def test_emission_from_presence_and_phase(self):
        """At zero noise, emitting from a sequence's own tracks reproduces its features."""
        seq = generate_dataset(basic_config(), 1, seed=3)[0]
        feats = emit_features(seq.presence, seq.phase, basic_config(), np.random.default_rng(1))
        assert feats.shape == (seq.n_frames, 4)  # K + P
        np.testing.assert_array_equal(feats, seq.features)


class TestIngestion:
    def test_cholec80_tsv_reindexes_to_declared_fps(self, tmp_path):
        path = tmp_path / "video01.tsv"
        path.write_text(
            "Frame\tGrasper\tScissors\n0\t1\t0\n25\t0\t0\n50\t0\t1\n"
        )
        seq = load_annotations(str(path), format="cholec80_tool_tsv", fps=1.0)
        assert seq.n_frames == 3 and seq.fps == 1.0
        assert seq.names == ("Grasper", "Scissors")
        np.testing.assert_array_equal(seq.presence, [[1, 0], [0, 0], [0, 1]])

    def test_non_binary_value_reports_line(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("Frame\tTool\n0\t0\n25\t2\n")
        with pytest.raises(AnnotationParseError, match="line 3"):
            load_annotations(str(path), format="cholec80_tool_tsv")

    def test_non_monotonic_frame_index_reports_line(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("frame,tool\n0,0\n5,1\n5,0\n")
        with pytest.raises(AnnotationParseError, match="line 4"):
            load_annotations(str(path), format="generic_csv")

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("time,tool\n0,0\n")
        with pytest.raises(AnnotationParseError, match="line 1"):
            load_annotations(str(path), format="generic_csv")

    def test_generic_csv_round_trip(self, tmp_path):
        path = tmp_path / "v.csv"
        rows = ["frame,clipper", *[f"{i},0" for i in range(10)]]
        path.write_text("\n".join(rows) + "\n")
        seq = load_annotations(str(path), format="generic_csv")
        assert not seq.presence.any()
        out = tmp_path / "again.csv"
        save_annotations(seq, str(out))
        seq2 = load_annotations(str(out), format="generic_csv")
        assert seq2.n_frames == seq.n_frames
        np.testing.assert_array_equal(seq2.presence, seq.presence)

    def test_round_trip_with_phase(self, tmp_path):
        config = basic_config(duration_std=10.0)
        seq = generate_dataset(config, 1, seed=8)[0]
        path = str(tmp_path / "seq.csv")
        save_annotations(seq, path)
        again = load_annotations(path, format="generic_csv")
        np.testing.assert_array_equal(again.presence, seq.presence)
        np.testing.assert_array_equal(again.phase, seq.phase)
        assert again.n_frames == seq.n_frames

    @pytest.mark.parametrize("names", [
        ("a,b", "c"), (" a", "b"), ("a", "b\t"), ("a\nb", "c"), ("a", "b\r"), ("", "c"),
        ("a", "a"), ("frame", "b"), ("a", "phase"), ("a", "\ud800"),
    ])
    def test_names_that_cannot_round_trip_are_refused(self, tmp_path, names):
        seq = ProcedureSequence(id="s", presence=np.zeros((3, 2), dtype=bool), names=names)
        path = tmp_path / "s.csv"
        with pytest.raises(ValueError, match="instrument names"):
            save_annotations(seq, str(path))
        assert not path.exists()
        with pytest.raises(ValueError, match="instrument_names"):
            basic_config(instrument_names=names).validate()

    @settings(deadline=None, max_examples=80,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(names=st.lists(st.text(max_size=4), min_size=1, max_size=3))
    def test_names_round_trip_or_are_refused(self, tmp_path, names):
        """Every name list save_annotations accepts reads back as itself; it
        refuses any other before writing."""
        seq = ProcedureSequence(id="s", presence=np.zeros((2, len(names)), dtype=bool),
                                names=tuple(names))
        path = tmp_path / "s.csv"
        path.unlink(missing_ok=True)
        try:
            save_annotations(seq, str(path))
        except ValueError as exc:
            assert "instrument names" in str(exc) and not path.exists()
            return
        assert load_annotations(str(path)).names == tuple(names)


SPECIAL_FLOATS = (-0.0, np.nan, np.inf, -np.inf, 5e-324, -1.5e-310, 2.2250738585072009e-308,
                  1.7976931348623157e308, 0.1)


def random_sequence(n: int, k: int, seed: int, with_phase: bool, with_names: bool):
    """A sequence of n frames and k instruments whose features hold every special float."""
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, k)) * 10.0 ** rng.integers(-320, 300, size=(n, k))
    spots = rng.integers(0, n * k, size=2 * len(SPECIAL_FLOATS))
    feats.flat[spots] = np.resize(SPECIAL_FLOATS, spots.size)
    return ProcedureSequence(
        id="s", presence=rng.random((n, k)) < 0.3, features=feats,
        phase=np.sort(rng.integers(0, 12, size=n)) if with_phase else None,
        names=tuple(f"tool {j}" for j in range(k)) if with_names else None,
    )


def assert_writers_match_oracles(seq, tmp_path):
    files = {name: str(tmp_path / name) for name in ("a", "a_ref", "f", "f_ref")}
    save_annotations(seq, files["a"])
    write_annotation_rows(seq, files["a_ref"])
    save_features(seq.features, files["f"])
    savetxt_features(seq.features, files["f_ref"])
    with open(files["a"], "rb") as got, open(files["a_ref"], "rb") as ref:
        assert got.read() == ref.read()
    with open(files["f"], "rb") as got, open(files["f_ref"], "rb") as ref:
        assert got.read() == ref.read()


class TestDatasetFiles:
    """The array writers and the one-parse reader against the row-by-row oracles."""

    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(1, 2 * _CHUNK_ROWS + 3), k=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1), with_phase=st.booleans(), with_names=st.booleans())
    def test_writers_give_the_oracle_bytes(self, tmp_path, n, k, seed, with_phase, with_names):
        assert_writers_match_oracles(random_sequence(n, k, seed, with_phase, with_names), tmp_path)

    @pytest.mark.parametrize("n", [_CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1])
    @pytest.mark.parametrize("with_phase", [False, True])
    def test_writers_at_the_chunk_edges(self, tmp_path, n, with_phase):
        assert_writers_match_oracles(random_sequence(n, 3, n, with_phase, True), tmp_path)

    def test_save_features_memory_is_bounded_by_the_chunk(self, tmp_path):
        """The writer formats one chunk at a time, never the whole file."""
        feats = np.random.default_rng(0).normal(size=(50_000, 8))
        path = str(tmp_path / "f.csv")
        tracemalloc.start()
        try:
            save_features(feats, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # About 25 bytes of text plus a 24-byte float object per value, with room.
        bound = _CHUNK_ROWS * feats.shape[1] * 200
        assert peak < bound < os.path.getsize(path) / 4

    VALID = [
        ("canonical with phase", "generic_csv", "frame,a,b,phase\n0,1,0,0\n1,0,1,2\n2,0,0,2\n"),
        ("no phase, no final newline", "generic_csv", "frame,tool one\n0,1\n1,0"),
        ("blank lines", "generic_csv", "frame,a,b\n\n0,1,0\n   \n\t\n1,0,1\n\n\n"),
        ("padded cells", "generic_csv", "frame , a ,phase\n 0 , 1 , 3\n1,\t0\t,\u00a04\u00a0\n"),
        ("CRLF line ends", "generic_csv", "frame,a,phase\r\n0,1,0\r\n1,0,2\r\n"),
        ("signs and zero padding", "generic_csv", "frame,a,phase\n+3,1,+0\n007,0,01\n"),
        ("form feed splits lines", "generic_csv", "frame,a\n0,1\x0c1,0\n"),
        ("huge frame indices", "generic_csv", "frame,a\n0,1\n99999999999999999999999,0\n"),
        ("tsv with gaps", "cholec80_tool_tsv", "Frame\tGrasper\tHook\n0\t1\t0\n25\t0\t1\n100\t1\t1\n"),
        ("tsv blank lines", "cholec80_tool_tsv", "Frame\tA\n\t\t\n0\t1\n \n7\t 0 \n"),
    ]
    INVALID = [
        ("wrong field count", "generic_csv", "frame,a,b\n0,1,0\n1,1\n"),
        ("too many fields first", "generic_csv", "frame,a\n0,1,1\n1,x\n"),
        ("presence x", "generic_csv", "frame,a,b\n0,1,0\n1,1,x\n"),
        ("presence 2", "cholec80_tool_tsv", "Frame\tTool\n0\t0\n25\t2\n"),
        ("presence 01", "generic_csv", "frame,a\n0,01\n"),
        ("presence empty", "generic_csv", "frame,a,b\n0,1,\n"),
        ("presence with NUL", "generic_csv", "frame,a\n0,1\x00\n"),
        ("presence before a bad count", "generic_csv", "frame,a\n0,x\n1\n"),
        ("repeated frame index", "generic_csv", "frame,a\n0,0\n5,1\n5,0\n"),
        ("decreasing after blank lines", "generic_csv", "frame,a\n3,1\n\n\n2,0\n"),
        ("non-integer frame index", "generic_csv", "frame,a\n0,1\n1.5,0\n"),
        ("tsv non-integer frame index", "cholec80_tool_tsv", "Frame\tA\nx\t1\n1\t1\t1\n"),
        ("frame index before presence and phase", "generic_csv", "frame,a,phase\nx,2,-1\n"),
        ("presence before phase", "generic_csv", "frame,a,phase\n0,2,-1\n"),
        ("negative phase", "generic_csv", "frame,a,phase\n0,1,0\n1,1,-1\n"),
        ("non-integer phase", "generic_csv", "frame,a,phase\n0,1,1.0\n1,2,0\n"),
        ("tsv phase is an instrument", "cholec80_tool_tsv", "Frame\tA\tphase\n0\t1\t3\n"),
        ("header only", "generic_csv", "frame,a\n"),
        ("header and blank lines", "cholec80_tool_tsv", "Frame\tA\n\n \n"),
        ("empty file", "generic_csv", ""),
        ("bad header", "generic_csv", "time,a\n0,1\n"),
        ("no instrument", "generic_csv", "frame\n0\n"),
        ("only a phase column", "generic_csv", "frame,phase\n0,1\n"),
    ]

    @staticmethod
    def outcome(read, path, format):
        try:
            seq = read(path, format=format, fps=2.0)
        except AnnotationParseError as exc:
            return "error", str(exc)
        phase = None if seq.phase is None else (seq.phase.dtype.str, seq.phase.tolist())
        return ("sequence", seq.id, seq.fps, seq.names, seq.presence.dtype.str,
                seq.presence.tolist(), phase)

    @pytest.mark.parametrize("name, format, text", VALID + INVALID,
                             ids=[case[0] for case in VALID + INVALID])
    def test_reader_matches_the_line_scanner(self, tmp_path, name, format, text):
        path = str(tmp_path / "video01.txt")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        got = self.outcome(load_annotations, path, format)
        assert got == self.outcome(scan_annotations, path, format)
        assert got[0] == ("sequence" if (name, format, text) in self.VALID else "error")


class TestSequenceInvariants:
    def test_rejects_mismatched_feature_rows(self):
        with pytest.raises(ValueError):
            ProcedureSequence(id="x", presence=np.zeros((5, 2), dtype=bool),
                              features=np.zeros((4, 3)))

    def test_rejects_bad_fps(self):
        with pytest.raises(ValueError):
            ProcedureSequence(id="x", presence=np.zeros((5, 2), dtype=bool), fps=0.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ProcedureSequence(id="x", presence=np.zeros((0, 2), dtype=bool))
