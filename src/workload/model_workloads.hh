/**
 * @file
 * Per-layer sparsity profiles for the benchmark CNNs and the
 * construction of ready-to-run LayerWorkloads (synthetic operands
 * carrying the profile's DBB structure).
 *
 * The paper tunes W-DBB density per model (excluding the first
 * layer) and A-DBB density per layer, observing that activation
 * density falls from dense in early layers to 2/8 late (Sec. 5.2,
 * Table 3). The profiles below encode those published operating
 * points; the resulting whole-model average A-DBB densities land
 * close to Table 3's reported averages.
 */

#ifndef S2TA_WORKLOAD_MODEL_WORKLOADS_HH
#define S2TA_WORKLOAD_MODEL_WORKLOADS_HH

#include "arch/accelerator.hh"
#include "base/random.hh"
#include "nn/model_zoo.hh"

namespace s2ta {

/** Sparsity operating point of one layer. */
struct LayerSparsity
{
    /** Weight DBB NNZ per 8-block (8 = dense, first layers). */
    int wgt_nnz = 4;
    /** Activation DBB NNZ per 8-block (8 = dense bypass). */
    int act_nnz = 8;
};

/**
 * The per-layer sparsity profile for one of the five zoo models
 * (matched by ModelSpec::name). Fatal for unknown models.
 */
std::vector<LayerSparsity> sparsityProfile(const ModelSpec &spec);

/** Average A-DBB density (NNZ/8) over a profile, MAC-weighted. */
double averageActDensity(const ModelSpec &spec,
                         const std::vector<LayerSparsity> &profile);

/** A model plus generated operands for every layer. */
struct ModelWorkload
{
    ModelSpec spec;
    std::vector<LayerSparsity> profile;
    std::vector<LayerWorkload> layers;
};

/**
 * Build runnable workloads for a model: synthetic operands with
 * exactly the profile's DBB structure (dense entries get mild
 * unstructured sparsity so ZVCG baselines keep their realistic
 * benefit: ~35% zero activations, ~20% zero weights).
 */
ModelWorkload buildModelWorkload(const ModelSpec &spec, Rng &rng);

/** Same, with an explicit profile override. */
ModelWorkload buildModelWorkload(const ModelSpec &spec,
                                 std::vector<LayerSparsity> profile,
                                 Rng &rng);

/**
 * Batched variant of an existing workload: every layer shares its
 * weights (the same frozen storage and fingerprint) and keeps its
 * declared sparsity bounds (the deployed model is unchanged), and
 * its input is replicated @p batch times along a leading batch
 * dimension — the serving scenario of one request
 * carrying @p batch samples. Replication preserves the per-sample
 * DBB structure, so the batched workload satisfies exactly the
 * bounds the base one does. @p batch == 1 returns a plain copy.
 */
ModelWorkload withBatch(const ModelWorkload &base, int batch);

/**
 * Batched variant with *distinct* per-sample content — the real
 * serving scenario, where a request's samples are different images.
 * Every layer shares the deployed model's weights and keeps its
 * profile and declared sparsity bounds; its input gains a leading
 * batch dimension where sample 0 is the base input and sample s >= 1 is
 * freshly generated from an Rng seeded only by (@p seed, s) with
 * the layer's profile structure (same generator rules as
 * buildModelWorkload). Sample content is therefore a pure function
 * of (base, seed, sample index): batches of different sizes share
 * their common prefix of samples, and request arrival order can
 * never change what is served. @p batch == 1 returns a plain copy.
 */
ModelWorkload withDistinctBatch(const ModelWorkload &base,
                                int batch, uint64_t seed);

} // namespace s2ta

#endif // S2TA_WORKLOAD_MODEL_WORKLOADS_HH
