"""Descriptor-free keypoint detection: training, distillation, evaluation.

A detector is a small convolutional stack that turns a grayscale image into
a per-pixel logit grid.  Keypoints are sampled from the softmax of that grid
(density balancing, non-maximum suppression, top-K), trained with a
reinforcement objective that rewards geometric coincidence across image
pairs, and merged across specialized detectors by distilling the pointwise
maximum of their probability maps.  Everything runs on numpy/scipy with
hand-written gradients; a finite-difference audit ships alongside.
"""

from .core import (GRID_MAGIC, GRID_VERSION, KL_FLOOR, LogProbMap, Mask,
                   ProbMap, ScoreMap, gaussian_blur, gaussian_kernel_1d,
                   kl_divergence, masked_log_softmax, read_dadf, shifted,
                   softmax_2d, write_dadf)
from .distill import (MERGE_EXPONENTS, DistillConfig, KeypointFunction,
                      check_partner_merge, distill_loss_and_grad,
                      distill_target, generalized_mean, local_maxima,
                      make_bump, train_distilled)
from .errors import (ConfigError, DadkitError, DegenerateInputError,
                     DegenerateMaskError, DegenerateTransferError,
                     InsufficientDataError, InvalidInputError,
                     InvalidParameterError, PlacementError)
from .evaluate import (ErrorCurve, EvalConfig, auc, corner_epe,
                       detection_recall, dlt_homography, evaluate_detections,
                       polarity_recall, ransac_homography, repeatability,
                       write_report)
from .geometry import (HomographyTransfer, MatchSet, apply_transfer, covisible,
                       covisibility_mask, match_mutual_nn, read_homography,
                       transfer_points, write_homography)
from .gradcheck import GradCheckResult, fd_param_grads, max_rel_error, run_gradcheck
from .model import (AdamW, ArchConfig, ConvLayer, DetectorParams, OptState,
                    TrainConfig, backward, forward, init_params, load_weights,
                    optimizer_step, save_weights, train_loop, write_loss_csv)
from .objective import (LossReport, RewardConfig, normalize_rewards,
                        raw_reward, reg_loss_and_grad, reward_threshold,
                        rl_loss_and_grad, total_loss_and_grad)
from .sampler import (KeypointSet, SamplerConfig, kde_balance, nms,
                      read_keypoints_csv, sample_keypoints, subpixel_refine,
                      top_k, write_keypoints_csv)
from .synth import (HomographyMagnitude, PairSample, SceneConfig,
                    check_pair_consistency, classify_polarity,
                    expected_strategy_reward, gen_scene_pair, gen_toy_pair,
                    generate_dataset, generate_pairs, load_dataset, load_pair,
                    pair_rng, read_gt_csv, read_pgm, sample_homography,
                    save_pair, toy_matches, toy_pair_hits, write_gt_csv,
                    write_pgm)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
