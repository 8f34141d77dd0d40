import numpy as np
import pytest

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
from anticipation.workflow import emit_features, instrument_onsets

from oracles import nearest_signature_decode


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
