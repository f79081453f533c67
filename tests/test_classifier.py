import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from htks import (
    BodyPose,
    ClassifierConfig,
    ConfigError,
    DegeneratePose,
    DistanceProfile,
    EmptyInput,
    EvaluationError,
    FrameDecision,
    InvalidScale,
    JointId,
    Normalization,
    Point2,
    SynthConfig,
    TouchLabel,
    calibration_scale,
    classify,
    classify_baseline,
    classify_sequence,
    distance_profile,
    generate,
)
from htks.classifier import _hypot
from htks.pose import _joint_array

from conftest import head_hip, make_pose, random_pose, scale_pose, translate_pose

H, S, K, T = TouchLabel.HEAD, TouchLabel.SHOULDERS, TouchLabel.KNEES, TouchLabel.TOES


# --- independent oracles -----------------------------------------------------
# Test-only recomputations, kept deliberately separate from the library's
# implementation: plain sqrt instead of hypot, and an in-order linear scan
# instead of a dict argmin.

def oracle_profile(pose):
    j = pose.joints

    def dist(a, b):
        return ((a.x - b.x) ** 2 + (a.y - b.y) ** 2) ** 0.5

    lw, rw = j[JointId.LEFT_WRIST], j[JointId.RIGHT_WRIST]
    return (
        (dist(lw, j[JointId.HEAD]) + dist(rw, j[JointId.HEAD])) / 2,
        (dist(lw, j[JointId.LEFT_SHOULDER]) + dist(rw, j[JointId.RIGHT_SHOULDER])) / 2,
        (dist(lw, j[JointId.LEFT_KNEE]) + dist(rw, j[JointId.RIGHT_KNEE])) / 2,
        (dist(lw, j[JointId.LEFT_ANKLE]) + dist(rw, j[JointId.RIGHT_ANKLE])) / 2,
    )


def oracle_argmin(profile, order):
    # Scanning in tie-break order with a strict < keeps the earliest
    # tied label, which is exactly the tie-break contract.
    best_label, best_value = None, None
    for label in order:
        value = profile.value(label)
        if best_value is None or value < best_value:
            best_label, best_value = label, value
    return best_label


def random_profile(rng, grid=None):
    if grid is None:
        values = rng.uniform(0.0, 100.0, size=4)
    else:
        values = rng.integers(0, grid, size=4).astype(float)
    return DistanceProfile(*values)


# --- distance profile --------------------------------------------------------


class TestDistanceProfile:
    def test_one_hand_exactly_on_head(self):
        pose = make_pose(head=(10.0, 10.0), left_wrist=(10.0, 10.0), right_wrist=(10.0, 12.0))
        assert distance_profile(pose).d_head == 1.0

    def test_axis_aligned_shoulder_components(self):
        pose = make_pose(
            left_wrist=(0.0, 0.0),
            right_wrist=(6.0, 0.0),
            left_shoulder=(0.0, 3.0),
            right_shoulder=(6.0, 4.0),
        )
        assert distance_profile(pose).d_shoulders == 3.5

    def test_sides_pair_left_with_left(self):
        # Crossed pairing would average ~12.2 here instead of 2.5.
        pose = make_pose(
            left_wrist=(0.0, 0.0), left_knee=(0.0, 0.0),
            right_wrist=(10.0, 0.0), right_knee=(14.0, 3.0),
        )
        assert distance_profile(pose).d_knees == 2.5

    def test_matches_brute_force_recomputation(self, rng):
        for _ in range(1000):
            pose = random_pose(rng)
            expected = oracle_profile(pose)
            actual = distance_profile(pose).as_tuple()
            for got, want in zip(actual, expected):
                assert got == pytest.approx(want, rel=1e-12)

    def test_rejects_negative_or_non_finite(self):
        with pytest.raises(ValueError):
            DistanceProfile(-1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            DistanceProfile(float("nan"), 0.0, 0.0, 0.0)


# --- baseline argmin ----------------------------------------------------------


class TestClassifyBaseline:
    def test_unique_minimum(self):
        decision = classify_baseline(DistanceProfile(5, 3, 9, 9), ClassifierConfig())
        assert decision.label is S
        assert not decision.tie_broken
        assert not decision.rule1_fired and not decision.rule2_applied

    def test_tie_resolved_by_configured_order(self):
        config = ClassifierConfig(tie_break_order=(H, S, K, T))
        decision = classify_baseline(DistanceProfile(4, 4, 9, 9), config)
        assert decision.label is H
        assert decision.tie_broken

    def test_tie_order_actually_matters(self):
        profile = DistanceProfile(4, 4, 9, 9)
        config = ClassifierConfig(tie_break_order=(S, H, K, T))
        assert classify_baseline(profile, config).label is S

    def test_agrees_with_linear_scan_oracle(self, rng):
        config = ClassifierConfig()
        for i in range(1000):
            # Small integer grids every few iterations force exact ties.
            profile = random_profile(rng, grid=4 if i % 3 == 0 else None)
            decision = classify_baseline(profile, config)
            assert decision.label is oracle_argmin(profile, config.tie_break_order)


# --- full classifier ----------------------------------------------------------


class TestClassify:
    def test_rule1_dominates_even_with_hands_on_head(self):
        pose = make_pose(head=(0.0, 0.0), hip=(0.0, 10.0),
                         left_wrist=(0.0, 0.0), right_wrist=(0.0, 0.0))
        decision = classify(pose, ClassifierConfig(rule1_threshold_ratio=0.5), scale=100.0)
        assert decision.label is T
        assert decision.rule1_fired
        assert not decision.rule2_applied  # short-circuited before the bias
        assert decision.profile.d_head == 0.0  # unadjusted profile is kept

    def test_rule2_bias_flips_shoulder_head_argmin(self):
        # d_head=5, d_shoulders=4, d_knees=50, d_ankles=60; bias 0.02*100=2
        pose = make_pose(
            head=(0.0, 0.0), left_wrist=(-5.0, 0.0), right_wrist=(5.0, 0.0),
            left_shoulder=(-5.0, 4.0), right_shoulder=(5.0, 4.0),
            left_knee=(-5.0, 50.0), right_knee=(5.0, 50.0),
            left_ankle=(-5.0, 60.0), right_ankle=(5.0, 60.0),
            hip=(0.0, 80.0),
        )
        profile = distance_profile(pose)
        assert profile.as_tuple() == (5.0, 4.0, 50.0, 60.0)
        config = ClassifierConfig(rule2_bias_ratio=0.02)
        decision = classify(pose, config, scale=100.0)
        assert decision.label is H
        assert decision.rule2_applied and not decision.rule1_fired
        assert decision.profile.d_shoulders == 4.0  # stored without the bias
        # without the bias the shoulders win
        base = ClassifierConfig(enable_rule1=False, enable_rule2=False)
        assert classify(pose, base, scale=100.0).label is S

    def test_noiseless_synthetic_frames_recovered(self):
        frames = generate(SynthConfig(seed=3, frames_per_class=50))
        rows = classify_sequence([p for p, _ in frames], ClassifierConfig())
        matches = sum(
            decision.label is truth for (_, decision), (_, truth) in zip(rows, frames)
        )
        assert matches / len(frames) >= 0.99

    def test_invalid_scale_rejected(self):
        pose = make_pose()
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidScale):
                classify(pose, ClassifierConfig(), scale=bad)

    def test_translation_invariance_exact(self, rng):
        config = ClassifierConfig()
        for _ in range(300):
            pose = random_pose(rng)
            shifted = translate_pose(pose, float(rng.integers(-10**6, 10**6)),
                                     float(rng.integers(-10**6, 10**6)))
            a = classify(pose, config, scale=500.0)
            b = classify(shifted, config, scale=500.0)
            assert a == b

    def test_scale_equivariance(self, rng):
        config = ClassifierConfig()
        for _ in range(300):
            pose = random_pose(rng)
            s = float(rng.uniform(0.1, 10.0))
            a = classify(pose, config, scale=500.0)
            b = classify(scale_pose(pose, s), config, scale=500.0 * s)
            assert a.label is b.label
            assert (a.rule1_fired, a.rule2_applied, a.tie_broken) == (
                b.rule1_fired, b.rule2_applied, b.tie_broken)
            for got, want in zip(b.profile.as_tuple(), a.profile.as_tuple()):
                assert got == pytest.approx(want * s, rel=1e-9)

    def test_rule1_dominance_on_bent_poses(self, rng):
        config = ClassifierConfig()
        for _ in range(300):
            bent = _with_hip_near_head(random_pose(rng), rng)
            decision = classify(bent, config, scale=100.0)
            assert decision.label is T and decision.rule1_fired

    def test_rule2_shoulder_wins_shrink_monotonically(self, rng):
        biased = ClassifierConfig(enable_rule1=False, enable_rule2=True)
        plain = ClassifierConfig(enable_rule1=False, enable_rule2=False)
        shoulder_wins = 0
        for _ in range(2000):
            profile = random_profile(rng, grid=6)
            if _classify_profile(profile, biased, scale=10.0) is S:
                shoulder_wins += 1
                assert _classify_profile(profile, plain, scale=10.0) is S
        assert shoulder_wins > 0  # the property was actually exercised

    def test_rules_disabled_equals_baseline_composition(self, rng):
        config = ClassifierConfig(enable_rule1=False, enable_rule2=False)
        for _ in range(500):
            pose = random_pose(rng)
            via_classify = classify(pose, config, scale=123.0)
            via_baseline = classify_baseline(distance_profile(pose), config)
            assert via_classify == via_baseline

    def test_deterministic(self):
        pose = make_pose()
        config = ClassifierConfig()
        assert classify(pose, config, 300.0) == classify(pose, config, 300.0)

    def test_degenerate_all_coincident_pose(self):
        coords = {j.value: (5.0, 5.0) for j in JointId}
        pose = make_pose(**coords)
        decision = classify(pose, ClassifierConfig(), scale=100.0)
        assert decision.label is T and decision.rule1_fired
        base = classify(pose, ClassifierConfig(enable_rule1=False, enable_rule2=False), 100.0)
        assert base.label is ClassifierConfig().tie_break_order[0]
        assert base.tie_broken


    def test_rule1_frame_is_never_tie_broken(self):
        # Every distance is 0, a four-way tie, but rule 1 decides first.
        pose = make_pose(**{j.value: (5.0, 5.0) for j in JointId})
        decision = classify(pose, ClassifierConfig(), scale=100.0)
        assert decision.rule1_fired and not decision.tie_broken
        assert not decision.rule2_applied


def _classify_profile(profile, config, scale):
    """Run classify on a pose constructed to have exactly this profile:
    both wrists at the origin, every target joint at its profile distance."""
    return classify(
        make_pose(
            left_wrist=(0.0, 0.0), right_wrist=(0.0, 0.0),
            head=(0.0, profile.d_head),
            left_shoulder=(0.0, profile.d_shoulders),
            right_shoulder=(0.0, profile.d_shoulders),
            left_knee=(0.0, profile.d_knees), right_knee=(0.0, profile.d_knees),
            left_ankle=(0.0, profile.d_ankles), right_ankle=(0.0, profile.d_ankles),
            hip=(0.0, 10.0 * scale),
        ),
        config,
        scale,
    ).label


def _with_hip_near_head(pose, rng):
    """Move the hip within rule-1 range of the head (threshold 0.5 * 100)."""
    head = pose.joints[JointId.HEAD]
    joints = dict(pose.joints)
    joints[JointId.HIP] = Point2(
        head.x + float(rng.integers(-30, 31)), head.y + float(rng.integers(-30, 31))
    )
    return BodyPose(frame_id=pose.frame_id, joints=joints)


# --- config and decision invariants -------------------------------------------


class TestClassifierConfig:
    def test_defaults_documented(self):
        config = ClassifierConfig()
        assert config.rule1_threshold_ratio == 0.5
        assert config.rule2_bias_ratio == 0.05
        assert config.enable_rule1 and config.enable_rule2
        assert config.tie_break_order == (T, K, S, H)
        assert config.normalization is Normalization.CALIBRATION_FRAME

    @pytest.mark.parametrize("kwargs", [
        {"rule1_threshold_ratio": 0.0},
        {"rule1_threshold_ratio": -0.5},
        {"rule2_bias_ratio": -0.01},
        {"tie_break_order": (H, H, K, T)},
        {"tie_break_order": (H, S, K)},
        {"normalization": "nope"},
        {"rule1_threshold_ratio": 10**400},  # an int too big for a float
        {"rule2_bias_ratio": 10**400},
        {"rule1_threshold_ratio": "0.5"},
        {"rule2_bias_ratio": True},
        {"enable_rule1": "no"},
        {"enable_rule2": 0},
        {"tie_break_order": "toes"},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ClassifierConfig(**kwargs)


class TestFrameDecision:
    def test_rule1_implies_toes(self):
        profile = DistanceProfile(1, 2, 3, 4)
        with pytest.raises(ValueError):
            FrameDecision(label=H, profile=profile, rule1_fired=True)
        FrameDecision(label=T, profile=profile, rule1_fired=True)


# --- calibration ---------------------------------------------------------------


class TestCalibrationScale:
    def test_max_head_hip_over_opening_window(self):
        poses = []
        for i in range(40):
            length = 100.0 + i if i < 30 else 10_000.0  # later frames must be ignored
            poses.append(make_pose(frame_id=i, head=(0.0, 0.0), hip=(0.0, length)))
        assert calibration_scale(poses) == 129.0
        assert calibration_scale(poses, window=5) == 104.0
        # (n, 12, 2) coordinates calibrate as the poses they hold.
        assert calibration_scale(_joint_array(poses)) == 129.0
        assert calibration_scale(_joint_array(poses), window=5) == 104.0

    def test_bent_opening_frames_do_not_win(self):
        poses = [make_pose(frame_id=0, head=(0.0, 0.0), hip=(0.0, 40.0)),
                 make_pose(frame_id=1, head=(0.0, 0.0), hip=(0.0, 300.0))]
        assert calibration_scale(poses) == 300.0

    def test_empty_sequence(self):
        with pytest.raises(EmptyInput):
            calibration_scale([])

    def test_all_degenerate(self):
        pose = make_pose(head=(1.0, 1.0), hip=(1.0, 1.0))
        with pytest.raises(DegeneratePose):
            calibration_scale([pose])
        # The 31st frame is past the window, so it cannot rescue the scale.
        poses = [make_pose(frame_id=i, head=(1.0, 1.0), hip=(1.0, 1.0)) for i in range(30)]
        with pytest.raises(DegeneratePose):
            list(classify_sequence([*poses, make_pose(frame_id=30)], ClassifierConfig()))

    def test_classify_sequence_uses_fixed_scale_when_configured(self):
        config = ClassifierConfig(normalization=Normalization.FIXED_PIXELS,
                                  rule1_threshold_ratio=5.0)
        # head-hip distance 300 >= 5.0 * 1.0, so rule 1 must not fire
        rows = list(classify_sequence([make_pose()], config))
        assert len(rows) == 1 and not rows[0][1].rule1_fired

    @pytest.mark.parametrize("normalization", list(Normalization))
    def test_classify_sequence_rejects_empty_input(self, normalization):
        with pytest.raises(EmptyInput):
            list(classify_sequence([], ClassifierConfig(normalization=normalization)))


# --- classify_sequence against the per-pose path ---------------------------------


def per_pose(poses, config):
    """The decisions of ``classify`` pose by pose, at the scale of the
    largest head-to-hip distance of the first 30 poses."""
    if config.normalization is Normalization.FIXED_PIXELS:
        scale = 1.0
    else:
        scale = max(map(head_hip, poses[:30]))
        assert calibration_scale(poses) == scale
    return [(p.frame_id, classify(p, config, scale)) for p in poses]


def mixed_poses(count):
    """``count`` jittered synthetic poses, the four classes interleaved."""
    frames = generate(SynthConfig(seed=6, frames_per_class=16, jitter_stddev_ratio=0.1))
    order = np.random.default_rng(6).permutation(len(frames))
    return [frames[i][0] for i in order[:count]]


class TestClassifySequence:
    @pytest.mark.parametrize("count", [1, 29, 30, 31, 61])
    @pytest.mark.parametrize("normalization", list(Normalization))
    def test_matches_the_per_pose_path(self, count, normalization):
        poses = mixed_poses(count)
        config = ClassifierConfig(normalization=normalization, rule1_threshold_ratio=0.6,
                                  rule2_bias_ratio=0.1)
        if normalization is Normalization.FIXED_PIXELS:
            config = ClassifierConfig(normalization=normalization, rule1_threshold_ratio=180.0,
                                      rule2_bias_ratio=15.0)
        rows = list(classify_sequence(poses, config))
        assert rows == per_pose(poses, config)
        assert [fid for fid, _ in rows] == [p.frame_id for p in poses]
        if count == 61:  # the rules and both outcomes of each are exercised
            for flag in ("rule1_fired", "rule2_applied"):
                assert {getattr(d, flag) for _, d in rows} == {True, False}

    @pytest.mark.parametrize("normalization", list(Normalization))
    def test_overflow_after_the_first_block(self, normalization):
        # Poses are classified 30 at a time: the error of pose 45 comes
        # after the decisions of the first block and before any of its own.
        poses = mixed_poses(61)
        bad = make_pose(frame_id=poses[45].frame_id, head=(1e308, -300.0),
                        left_wrist=(-1e308, -40.0), right_wrist=(-1e308, -40.0))
        poses[45] = bad
        config = ClassifierConfig(normalization=normalization)
        expected = per_pose(poses[:30], config)
        scale = 1.0 if normalization is Normalization.FIXED_PIXELS else calibration_scale(poses)
        with pytest.raises(EvaluationError) as per_pose_error:
            classify(bad, config, scale)
        rows = classify_sequence(poses, config)
        assert [next(rows) for _ in range(30)] == expected
        with pytest.raises(EvaluationError) as raised:
            next(rows)
        assert str(raised.value) == str(per_pose_error.value)
        assert str(raised.value).startswith(f"frame {bad.frame_id}: ")


@given(values=st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=4, max_size=4))
def test_baseline_label_attains_minimum(values):
    profile = DistanceProfile(*values)
    decision = classify_baseline(profile, ClassifierConfig())
    assert profile.value(decision.label) == min(values)


# Magnitudes at the edges of float64: signed zeros, subnormals, the
# smallest normal, the largest finite value, infinities and NaN.
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
          1.7976931348623157e308, -1e308, math.inf, -math.inf, math.nan, 1.0, -3.0]


def assert_hypot_is_math_hypot(x, y):
    x, y = np.asarray(x, np.float64), np.asarray(y, np.float64)
    expected = np.array(list(map(math.hypot, x.tolist(), y.tolist())), np.float64)
    assert _hypot(x, y).view(np.int64).tolist() == expected.view(np.int64).tolist()


class TestHypot:
    """``_hypot`` is ``math.hypot``, bit for bit, with no numpy warning."""

    @given(st.lists(st.tuples(st.one_of(st.floats(), st.sampled_from(_EDGES)),
                              st.one_of(st.floats(), st.sampled_from(_EDGES))), min_size=1))
    def test_any_pair(self, pairs):
        assert_hypot_is_math_hypot(*zip(*pairs))

    @given(st.floats(allow_nan=False, allow_infinity=False), st.integers(-3, 3))
    def test_near_equal_pairs(self, value, steps):
        other = value
        for _ in range(abs(steps)):
            other = math.nextafter(other, math.copysign(math.inf, steps))
        assert_hypot_is_math_hypot([value, -value, value], [other, other, value])

    def test_every_binary_exponent(self):
        rng = np.random.default_rng(11)
        x = np.ldexp(rng.uniform(0.5, 1.0, 200_000), rng.integers(-1074, 1024, 200_000))
        far = np.ldexp(rng.uniform(-1.0, 1.0, len(x)), rng.integers(-1074, 1024, len(x)))
        # A product above the largest float is inf, and hypot of it too.
        with np.errstate(over="ignore"):
            near = x * (1 + rng.normal(size=len(x)) * 1e-9)
            assert_hypot_is_math_hypot(np.concatenate([x, -x]), np.concatenate([near, far]))
        decimal = rng.uniform(-1, 1, (2, 200_000)) * 10.0 ** rng.integers(-300, 300, (2, 200_000))
        assert_hypot_is_math_hypot(*decimal)
        assert_hypot_is_math_hypot(*(rng.normal(size=(2, 200_000)) * 300))
