"""The one range rule: its message, every config field, and the public
functions that re-check a config field's range."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from dadkit import (AdamW, ArchConfig, DistillConfig, EvalConfig, HomographyTransfer, KeypointSet,
                    MatchSet, RewardConfig, SamplerConfig, SceneConfig, TrainConfig, auc, make_pair,
                    match_mutual_nn, normalize_rewards, polarity_recall, ransac_homography,
                    repeatability, subpixel_refine, total_loss_and_grad, toy_matches)
from dadkit.errors import InvalidParameterError, check_range


@pytest.mark.parametrize("bounds, value, message", [
    ({"ge": 1}, 0, "k must be >= 1, got 0"),
    ({"gt": 0}, -1.0, "k must be > 0, got -1.0"),
    ({"gt": 0, "le": 1}, 2.0, "k must be in (0, 1], got 2.0"),
    ({"ge": 0, "lt": 1}, 1.0, "k must be in [0, 1), got 1.0"),
    ({"ge": 0, "le": 1e6}, math.inf, "k must be in [0, 1e+06], got inf"),
    ({"gt": 0, "lt": math.inf}, math.nan, "k must be in (0, inf), got nan"),
])
def test_range_rule_names_the_field_its_range_and_the_value(bounds, value, message):
    with pytest.raises(InvalidParameterError) as e:
        check_range("k", value, **bounds)
    assert str(e.value) == message


@pytest.mark.parametrize("config", [SceneConfig, SamplerConfig, TrainConfig, ArchConfig, AdamW,
                                    RewardConfig, EvalConfig, DistillConfig],
                         ids=lambda c: c.__name__)
def test_no_numeric_config_field_takes_nan(config):
    """Every int or float field (bools excluded) of the default config
    refuses NaN with a message that starts with the field's name, so a field
    added without a check fails here."""
    base = config()
    numeric = [f.name for f in fields(base) if type(getattr(base, f.name)) in (int, float)]
    assert numeric
    for name in numeric:
        with pytest.raises(InvalidParameterError, match=f"^{name} "):
            replace(base, **{name: math.nan})


_SHAPE = (16, 16)
_KPS = KeypointSet([[3.0, 4.0], [9.0, 10.0], [12.0, 5.0]], [0.9, 0.5, 0.2], _SHAPE)
_LOGITS = np.zeros(_SHAPE)
_MASK = np.ones(_SHAPE, dtype=bool)
_MATCHES = MatchSet([0, 1], [0, 1], [0.0, 0.5])
_IDENTITY = HomographyTransfer(np.eye(3))
_SRC = np.array([[1.0, 1.0], [14.0, 2.0], [3.0, 13.0], [12.0, 12.0], [7.0, 5.0], [5.0, 9.0]])
_TOY = make_pair(SceneConfig.toy(size=32, num_light=2, num_dark=2), 0, 0)

# Each public function that checks a parameter of the same range as a config
# field: (config, field, the function called with that parameter).
_RECHECKS = {
    "subpixel_refine": (SamplerConfig, "subpixel_temp",
                        lambda v: subpixel_refine(_LOGITS, _KPS, v)),
    "normalize_rewards": (RewardConfig, "eps", lambda v: normalize_rewards([1.0, 0.0], v)),
    "total_loss_and_grad": (TrainConfig, "reg_weight",
                            lambda v: total_loss_and_grad(_LOGITS, _LOGITS, _MASK, _MASK, _KPS,
                                                          _KPS, _MATCHES, _MATCHES,
                                                          RewardConfig(), 1.0, v)),
    "toy_matches": (TrainConfig, "assign_radius",
                    lambda v: toy_matches(_TOY.gt_keypoints_a, _TOY.gt_keypoints_b, _TOY, v)),
    "repeatability": (EvalConfig, "match_threshold",
                      lambda v: repeatability(_KPS, _KPS, _IDENTITY, v)),
    "match_mutual_nn": (EvalConfig, "match_threshold",
                        lambda v: match_mutual_nn(_KPS, _KPS, _IDENTITY, v)),
    "ransac_homography": (EvalConfig, "ransac_threshold",
                          lambda v: ransac_homography(_SRC, _SRC + 1.0, v, rng=0)),
    "auc": (EvalConfig, "auc_threshold", lambda v: auc([0.5, math.inf], v)),
    "polarity_recall": (EvalConfig, "recall_radius",
                        lambda v: polarity_recall(_KPS, _KPS, ("light", "dark", "light"), v)),
}


@pytest.mark.parametrize("name", sorted(_RECHECKS))
def test_each_function_rejects_exactly_what_its_config_rejects(name):
    config, field, call = _RECHECKS[name]
    for value in (math.nan, math.inf, -math.inf, -1.0, 0.0, 1.0):
        try:
            config(**{field: value})
        except InvalidParameterError:
            with pytest.raises(InvalidParameterError):
                call(value)
        else:
            call(value)
