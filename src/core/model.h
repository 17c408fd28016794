// The m3 model (§3.4): a transformer encoder summarizes the per-hop
// background feature maps into a context vector; a two-layer MLP maps
// [foreground feature map, context, network spec] to the corrected
// foreground slowdown distribution (4 size buckets x 100 percentiles, in
// log-slowdown space).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "core/feature_map.h"
#include "core/net_config.h"
#include "ml/checkpoint.h"
#include "ml/layers.h"
#include "ml/optimizer.h"
#include "ml/transformer.h"
#include "util/status.h"

namespace m3 {

struct M3ModelConfig {
  int feat_dim = kFeatureDim;
  int d_model = 96;
  int num_heads = 4;
  int num_layers = 2;
  int ff_dim = 192;
  int spec_dim = kSpecDim;
  int mlp_hidden = 256;
  int out_dim = kNumOutputBuckets * kNumPercentiles;
  int max_seq = 8;
  std::uint64_t init_seed = 1234;
};

class M3Model {
 public:
  explicit M3Model(const M3ModelConfig& cfg = M3ModelConfig());

  /// Decoded slowdown percentiles per output bucket.
  using Percentiles = std::array<std::array<double, kNumPercentiles>, kNumOutputBuckets>;

  /// One input row of PredictBatch (the tensors are not owned).
  struct PredictInput {
    const ml::Tensor* fg_feat = nullptr;   // [1, feat_dim]
    const ml::Tensor* hops = nullptr;      // EmbedHops(bg_seq); unread without context
    const ml::Tensor* spec = nullptr;      // [1, spec_dim]
    const ml::Tensor* baseline = nullptr;  // [1, out_dim], or nullptr for zero
  };
  struct Prediction {
    Percentiles pct{};
    int num_nonfinite = 0;  // raw outputs that were NaN/inf before the decode clamp
  };

  /// Builds the training forward pass on an autograd tape. `bg_seq` is
  /// [n_hops, feat_dim] (n >= 1; pass a zero row if a hop has no background
  /// traffic). When `use_context` is false the context vector is replaced
  /// with zeros (the paper's "m3 w/o context" ablation, Fig. 16). Inference
  /// goes through PredictBatch instead; this is also its differential
  /// oracle.
  ml::Var Forward(ml::Graph& g, const ml::Tensor& fg_feat, const ml::Tensor& bg_seq,
                  const ml::Tensor& spec, bool use_context = true);

  /// The encoder's input layer for one path's `bg_seq` ([n_hops, feat_dim],
  /// n_hops in [1, max_seq]): [n_hops, d_model]. It runs per path, so a
  /// caller batching many paths keeps this compact tensor per path instead
  /// of the raw hop features. Throws std::invalid_argument on a bad shape.
  ml::Tensor EmbedHops(const ml::Tensor& bg_seq) const;

  /// Tape-free inference over many inputs at once (the sampled paths of one
  /// query). The encoder blocks run their projections, norms and
  /// feed-forward as one pass over every input's embedded hop rows, with
  /// attention and pooling per input, and the head runs once over all rows.
  /// The model output is a log-space *correction* added to each row's
  /// `baseline` (flowSim's own bucketed log-slowdown percentiles) and
  /// decoded; `num_nonfinite` counts raw values that were NaN/inf before the
  /// decode clamp, so a non-zero count marks a poisoned forward whose
  /// decoded floor values must not be trusted. Row i bitwise equals
  /// value(Forward(inputs[i]) + baseline) decoded, whatever the batch holds.
  /// Throws std::invalid_argument on a mis-shaped input. Thread-safe; the
  /// scratch lives for one call.
  std::vector<Prediction> PredictBatch(const std::vector<PredictInput>& inputs,
                                       bool use_context = true) const;

  /// One-row PredictBatch; pass nullptr `baseline` for an absolute
  /// prediction.
  Percentiles Predict(const ml::Tensor& fg_feat, const ml::Tensor& bg_seq,
                      const ml::Tensor& spec, bool use_context = true,
                      const ml::Tensor* baseline = nullptr,
                      int* num_nonfinite = nullptr) const;

  std::vector<ml::Parameter*> params();
  std::size_t num_parameters();

  /// Writes a params-only checkpoint (atomic; parent directories are
  /// created). TrainModel's checkpoint_path saves carry optimizer/trainer
  /// state as well — prefer those for resumable training runs.
  void Save(const std::string& path);
  /// Loads any checkpoint version; returns what the file carried (version,
  /// optimizer/trainer sections). Throws on corrupt or mismatched files
  /// without modifying the model.
  ml::CheckpointInfo Load(const std::string& path);

  /// Status-returning Load for service boundaries: kNotFound for a missing
  /// file, kDataLoss for corruption/truncation, kInvalidArgument when the
  /// checkpoint's tensors do not match this model's compiled dimensions.
  /// Never throws; on error the model is unchanged.
  StatusOr<ml::CheckpointInfo> TryLoad(const std::string& path);

  const M3ModelConfig& config() const { return cfg_; }

 private:
  M3ModelConfig cfg_;
  ml::TransformerEncoder bg_encoder_;
  ml::Mlp head_;
};

}  // namespace m3
