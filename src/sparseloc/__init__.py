"""Sparse-voxel convolution engine and point-cloud place recognition pipeline."""

import os as _os
import sys as _sys

# One BLAS thread unless the environment sets a count: on 2 cores a second
# thread made embedding slower, and a training step ~7x slower beside another
# busy process.  The large ops and the recall screen already run as two
# halves on two threads (see layers._split), so more BLAS threads would
# oversubscribe the cores.  The halves give the bits of one thread: the
# ops' halves own their output rows, and a recall rank is exact whichever
# block screened its query.  numpy reads the variable when it first loads;
# when numpy came first, the count is set in its OpenBLAS instead, and the
# variable, which could no longer take effect, is left unset.
_BLAS_PRESET = any(var in _os.environ for var in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"))
_NUMPY_FIRST = "numpy" in _sys.modules
if not _BLAS_PRESET and not _NUMPY_FIRST:
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

if not _BLAS_PRESET and _NUMPY_FIRST:
    from .layers import _blas_threads
    _blas_threads(1)

__all__ = [name for name in dir() if not name.startswith("_")]
