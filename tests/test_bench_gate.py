"""The machine calibration stamp recorded in every perfbench run."""

from repro.common.calibrate import calibration_score


class TestCalibration:
    def test_score_is_positive_and_repeatable(self):
        first = calibration_score()
        second = calibration_score()
        assert first > 0 and second > 0
        # same machine, same ballpark (best-of-three absorbs blips)
        assert abs(first - second) / max(first, second) < 0.5
