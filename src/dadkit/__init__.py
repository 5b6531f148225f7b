"""Descriptor-free keypoint detection: training, distillation, evaluation.

A detector is a small convolutional stack that turns a grayscale image into
a per-pixel logit grid.  Keypoints are sampled from the softmax of that grid
(density balancing, non-maximum suppression, top-K), trained with a
reinforcement objective that rewards geometric coincidence across image
pairs, and merged across specialized detectors by distilling the pointwise
maximum of their probability maps.  Everything runs on numpy alone with
hand-written gradients; a finite-difference audit ships alongside.
"""

from .core import (KL_FLOOR, gaussian_blur, gaussian_kernel_1d, kl_divergence,
                   masked_log_softmax, shifted, softmax_2d)
from .distill import (MERGE_EXPONENTS, DistillConfig, KeypointFunction,
                      check_partner_merge, distill_loss_and_grad,
                      distill_target, generalized_mean, local_maxima,
                      make_bump, train_distilled)
from .errors import (ConfigError, DadkitError, DegenerateInputError,
                     DegenerateTransferError, InvalidInputError,
                     InvalidParameterError)
from .evaluate import (EvalConfig, auc, corner_epe, dlt_homography,
                       evaluate_detections, polarity_recall, ransac_homography, repeatability)
from .formats import (GRID_MAGIC, GRID_VERSION, generate_dataset, load_dataset, load_pair,
                      read_dadf, read_gt_csv, read_homography, read_keypoints_csv, read_pgm,
                      save_pair, write_dadf, write_gt_csv, write_homography,
                      write_keypoints_csv, write_loss_csv, write_pgm, write_report)
from .geometry import (HomographyTransfer, MatchSet, apply_transfer, covisible,
                       covisibility_mask, match_mutual_nn, transfer_points)
from .gradcheck import GradCheckResult, fd_param_grads, max_rel_error, run_gradcheck
from .model import (AdamW, ArchConfig, ConvLayer, DetectorParams, OptState,
                    TrainConfig, backward, fit, forward, init_params, load_weights,
                    optimizer_step, save_weights, train_loop)
from .objective import (LossReport, RewardConfig, normalize_rewards, raw_reward,
                        reg_loss_and_grad, rl_loss_and_grad, total_loss_and_grad)
from .sampler import (KeypointSet, SamplerConfig, kde_balance, nms, sample_keypoints,
                      subpixel_refine, top_k)
from .synth import (PairSample, SceneConfig, check_pair_consistency, classify_polarity,
                    expected_strategy_reward, gen_scene_pair, gen_toy_pair, generate_pairs,
                    make_pair, pair_rng, sample_homography, toy_matches, toy_pair_hits)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
