"""Sparse-voxel convolution engine and point-cloud place recognition pipeline."""

import os as _os

# One BLAS thread unless the environment sets a count: on 2 cores a second
# thread made embedding slower, and a training step ~7x slower beside another
# busy process.  The large ops already run as two halves on two threads
# (see layers._split), so more BLAS threads would oversubscribe the cores.
# numpy reads the count when it first loads, so this only takes effect when
# the package is imported before numpy.
if not any(var in _os.environ for var in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .autodiff import Tape, Var
from .data import (Dataset, PointCloudRecord, TrainingTuple, build_tuples,
                   load_cloud, load_index, synth_dataset, write_cloud,
                   write_index)
from .evaluate import (DescriptorDatabase, average_recall, knn,
                       load_database, one_percent_cutoff, recall_at_n,
                       recall_curve, save_database)
from .layers import (BatchNorm, SparseConv, relu, sparse_add, sparse_conv,
                     sparse_transposed_conv)
from .model import (Descriptor, MinkFPN, MinkLoc, ModelConfig, batch_tensor,
                    compute_descriptor, gem_pool, load_checkpoint, mac_pool,
                    save_checkpoint)
from .sparse import (KernelMap, PointCloud, SparseTensor, build_kernel_map,
                     downsample_coords, kernel_offsets, quantize)
from .train import (Adam, AugmentConfig, SimilarityMasks, TrainingConfig,
                    augment, batch_hard_mine, compute_masks,
                    dynamic_batch_expand, mined_triplet_loss,
                    partition_epoch, train, triplet_margin_loss)

__all__ = [name for name in dir() if not name.startswith("_")]
