import math

import numpy as np
import pytest

from htks import (
    ClassifierConfig,
    JointId,
    SynthConfig,
    TouchLabel,
    calibration_scale,
    classify_baseline,
    classify_sequence,
    distance_profile,
    euclidean,
    generate,
)
from htks.synth import generate_frames


class TestSynthConfig:
    @pytest.mark.parametrize("kwargs", [
        {"seed": -1},
        {"torso_length": 0.0},
        {"torso_length": -3.0},
        {"jitter_stddev_ratio": -0.1},
        {"frames_per_class": 0},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SynthConfig(**kwargs)


class TestNoiselessGeometry:
    def setup_method(self):
        self.config = SynthConfig(seed=11, torso_length=300.0, frames_per_class=4)
        self.frames = generate(self.config)

    def test_frame_counts_and_ids(self):
        assert len(self.frames) == 16
        assert [pose.frame_id for pose, _ in self.frames] == list(range(16))
        per_class = {label: 0 for label in TouchLabel}
        for _, label in self.frames:
            per_class[label] += 1
        assert all(count == 4 for count in per_class.values())

    def test_head_class_zero_head_distance(self):
        pose, label = self.frames[0]
        assert label is TouchLabel.HEAD
        assert distance_profile(pose).d_head == 0.0

    def test_toes_class_bent_with_zero_ankle_distance(self):
        pose, label = self.frames[-1]
        assert label is TouchLabel.TOES
        head_hip = euclidean(pose[JointId.HEAD], pose[JointId.HIP])
        assert head_hip <= 0.4 * self.config.torso_length
        assert distance_profile(pose).d_ankles == 0.0

    def test_upright_classes_keep_full_torso(self):
        for pose, label in self.frames:
            head_hip = euclidean(pose[JointId.HEAD], pose[JointId.HIP])
            if label in (TouchLabel.HEAD, TouchLabel.SHOULDERS):
                assert head_hip == pytest.approx(self.config.torso_length)

    def test_class_geometry_separation(self):
        # Each frame's own profile entry is the strict minimum, or the
        # frame satisfies the rule-1 condition at the default threshold.
        scale = calibration_scale([pose for pose, _ in self.frames])
        threshold = ClassifierConfig().rule1_threshold_ratio * scale
        for pose, label in self.frames:
            profile = distance_profile(pose)
            own = profile.value(label)
            others = [profile.value(l) for l in TouchLabel if l is not label]
            bent = euclidean(pose[JointId.HEAD], pose[JointId.HIP]) < threshold
            assert all(own < other for other in others) or (
                label is TouchLabel.TOES and bent
            )

    def test_classifier_recovers_every_label(self):
        rows = classify_sequence([pose for pose, _ in self.frames], ClassifierConfig())
        for (_, decision), (_, truth) in zip(rows, self.frames):
            assert decision.label is truth


class TestDeterminism:
    def test_identical_configs_identical_output(self):
        a = generate(SynthConfig(seed=42, jitter_stddev_ratio=0.05, frames_per_class=20))
        b = generate(SynthConfig(seed=42, jitter_stddev_ratio=0.05, frames_per_class=20))
        assert a == b

    def test_different_seeds_differ(self):
        a = generate(SynthConfig(seed=1, jitter_stddev_ratio=0.05, frames_per_class=5))
        b = generate(SynthConfig(seed=2, jitter_stddev_ratio=0.05, frames_per_class=5))
        assert a != b

    def test_jitter_zero_reproduces_templates_regardless_of_seed(self):
        a = generate(SynthConfig(seed=1, frames_per_class=2))
        b = generate(SynthConfig(seed=2, frames_per_class=2))
        assert a == b


class TestJitter:
    def test_displacement_scales_exactly_with_ratio(self):
        # Same seed means the same unit noise, scaled by the ratio.
        base = generate(SynthConfig(seed=5, jitter_stddev_ratio=0.0, frames_per_class=10))
        small = generate(SynthConfig(seed=5, jitter_stddev_ratio=0.05, frames_per_class=10))
        large = generate(SynthConfig(seed=5, jitter_stddev_ratio=0.10, frames_per_class=10))
        # base + noise rounds once per coordinate, so the doubling is exact
        # only up to that rounding; 1e-9 px is far below the ~15 px signal.
        for (p0, _), (p1, _), (p2, _) in zip(base, small, large):
            for joint in JointId:
                dx1 = p1[joint].x - p0[joint].x
                dx2 = p2[joint].x - p0[joint].x
                assert dx2 == pytest.approx(2.0 * dx1, abs=1e-9)
                dy1 = p1[joint].y - p0[joint].y
                dy2 = p2[joint].y - p0[joint].y
                assert dy2 == pytest.approx(2.0 * dy1, abs=1e-9)

    @pytest.mark.parametrize("ratio", [0.02, 0.05])
    def test_mean_displacement_matches_rayleigh_theory(self, ratio):
        torso = 300.0
        config = SynthConfig(seed=77, jitter_stddev_ratio=ratio, frames_per_class=250,
                             torso_length=torso)
        base = generate(SynthConfig(seed=77, jitter_stddev_ratio=0.0, frames_per_class=250,
                                    torso_length=torso))
        jittered = generate(config)
        displacements = []
        for (p0, _), (p1, _) in zip(base, jittered):
            for joint in JointId:
                displacements.append(euclidean(p0[joint], p1[joint]))
        sigma = ratio * torso
        expected_mean = sigma * math.sqrt(math.pi / 2.0)
        rayleigh_std = sigma * math.sqrt((4.0 - math.pi) / 2.0)
        standard_error = rayleigh_std / math.sqrt(len(displacements))
        assert len(displacements) >= 1000 * 12
        assert abs(np.mean(displacements) - expected_mean) < 3.0 * standard_error


class TestConfusablePreset:
    def test_exact_knee_ankle_tie(self):
        frames = generate_frames(SynthConfig(seed=9, frames_per_class=5), confusable=True).pairs()
        assert len(frames) == 5
        for pose, label in frames:
            assert label is TouchLabel.TOES
            profile = distance_profile(pose)
            assert profile.d_knees == profile.d_ankles

    def test_tie_broken_by_configured_order(self):
        frames = generate_frames(SynthConfig(seed=9, frames_per_class=3), confusable=True).pairs()
        profile = distance_profile(frames[0][0])
        toes_first = classify_baseline(profile, ClassifierConfig())
        assert toes_first.label is TouchLabel.TOES and toes_first.tie_broken
        knees_first = classify_baseline(
            profile,
            ClassifierConfig(tie_break_order=(
                TouchLabel.KNEES, TouchLabel.TOES, TouchLabel.SHOULDERS, TouchLabel.HEAD)),
        )
        assert knees_first.label is TouchLabel.KNEES and knees_first.tie_broken
