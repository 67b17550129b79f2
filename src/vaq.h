#ifndef VAQ_VAQ_H_
#define VAQ_VAQ_H_

/// Umbrella header: the full public API of the VAQ library.
///
/// The primary entry points are:
///   vaq::VaqIndex      — the paper's scan index (TI + EA skipping)
///   vaq::VaqIvfIndex   — inverted-file index over VAQ primitives
///   vaq::ProductQuantizer / OptimizedProductQuantizer / BoltQuantizer /
///   PqFastScan / ItqLsh / VectorQuantizer — baselines
///   vaq::HnswIndex / InvertedMultiIndex / IsaxIndex / DsTreeIndex —
///   rival indexes
/// plus dataset generators (datasets/), evaluation utilities (eval/), and
/// the numeric substrates (linalg/, clustering/).

#include "common/cpu_features.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/timer.h"
#include "common/topk.h"
#include "core/allocation.h"
#include "core/balance.h"
#include "core/codebook.h"
#include "core/scan.h"
#include "core/subspace.h"
#include "core/ti_partition.h"
#include "core/vaq_index.h"
#include "datasets/synthetic.h"
#include "datasets/ucr_like.h"
#include "datasets/vector_io.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "eval/rerank.h"
#include "eval/stats.h"
#include "index/dstree.h"
#include "index/hnsw.h"
#include "index/imi.h"
#include "index/isax.h"
#include "index/vaq_ivf.h"
#include "linalg/pca.h"
#include "quant/bolt.h"
#include "quant/itq.h"
#include "quant/opq.h"
#include "quant/pq.h"
#include "quant/pqfs.h"
#include "quant/vq.h"

#endif  // VAQ_VAQ_H_
