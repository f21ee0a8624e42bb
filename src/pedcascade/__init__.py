"""Pedestrian-detection cascade toolkit: channel-feature boosted-forest
proposals, exact forest-to-network compilation, a from-scratch convnet
rescorer, and detection evaluation metrics."""

from .cascade import (
    CascadeConfig,
    CascadeTrainConfig,
    NetRescorer,
    TimingReport,
    load_rescorer,
    propose,
    rescore,
    run_cascade,
    save_rescorer,
    train_cascade,
    train_rescorer,
)
from .channels import ChannelConfig, ChannelStack, compute_channels, integral_image, rect_sum
from .convnet import (
    NetModel,
    NetSpec,
    TrainConfig,
    default_cifarnet,
    loss_and_grads,
    read_net,
    save_net,
    sgd_train,
)
from .data import (
    BatchRatio,
    BatchSampler,
    FrameAnnotation,
    LabelingPolicy,
    WindowGeometry,
    extract_window,
    label_proposals,
    load_annotations,
    reasonable_filter,
)
from .evaluate import (
    EvalCurve,
    LamrConfig,
    average_precision,
    fp_overlap_histogram,
    height_histogram,
    lamr,
    recall_vs_iou,
    touching_fp_analysis,
)
from .forest import (
    ForestModel,
    SlidingWindowConfig,
    SplitNode,
    Tree2,
    detect,
    filter_proposals,
    load_forest,
    save_forest,
    train_forest,
)
from .forest2nn import CompiledNet, compile_forest, soften, to_netmodel, verify_equivalence
from .geometry import Box, Detection, iou, iou_matrix, match_detections, nms
from .imageops import Image, read_pnm, write_pnm
from .svm import SvmConfig, train_svm
from .synth import SynthSpec, synth_dataset

__version__ = "0.1.0"
