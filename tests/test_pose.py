import dataclasses

import pytest

from htks import (
    BodyPose,
    JointId,
    Point2,
    TouchLabel,
)

from conftest import make_pose


class TestJointId:
    def test_exactly_twelve_members(self):
        assert len(JointId) == 12

    def test_serialization_round_trips_every_member(self):
        for joint in JointId:
            assert JointId(joint.value) is joint

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            JointId("nose")
        with pytest.raises(ValueError):
            JointId("left_hand")


class TestTouchLabel:
    def test_exactly_four_members(self):
        assert [label.value for label in TouchLabel] == ["head", "shoulders", "knees", "toes"]

    def test_round_trip(self):
        for label in TouchLabel:
            assert TouchLabel(label.value) is label

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            TouchLabel("elbows")


class TestPoint2:
    def test_coerces_to_float(self):
        p = Point2(3, 4)
        assert isinstance(p.x, float) and isinstance(p.y, float)

    @pytest.mark.parametrize("x,y", [(float("nan"), 0), (0, float("inf")), (float("-inf"), 1)])
    def test_non_finite_rejected(self, x, y):
        with pytest.raises(ValueError):
            Point2(x, y)

    def test_immutable(self):
        p = Point2(1.0, 2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.x = 5.0


class TestBodyPose:
    def test_all_twelve_joints_required(self):
        joints = {j: Point2(0.0, float(i)) for i, j in enumerate(JointId)}
        del joints[JointId.LEFT_KNEE]
        with pytest.raises(ValueError, match="left_knee"):
            BodyPose(frame_id=0, joints=joints)

    def test_negative_frame_id_rejected(self):
        with pytest.raises(ValueError):
            make_pose(frame_id=-1)

    def test_non_integer_frame_id_rejected(self):
        joints = {j: Point2(0.0, float(i)) for i, j in enumerate(JointId)}
        with pytest.raises(ValueError):
            BodyPose(frame_id=1.5, joints=joints)

    def test_confidence_optional_and_partial(self):
        pose = make_pose(confidence={JointId.HEAD: 0.5})
        assert pose.confidence == {JointId.HEAD: 0.5}
        assert make_pose().confidence is None

    def test_confidence_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_pose(confidence={JointId.HEAD: 1.5})

    def test_getitem(self):
        pose = make_pose(head=(7.0, 8.0))
        assert pose[JointId.HEAD] == Point2(7.0, 8.0)

    def test_immutable(self):
        pose = make_pose()
        with pytest.raises(dataclasses.FrozenInstanceError):
            pose.frame_id = 3
