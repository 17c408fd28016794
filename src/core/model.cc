#include "core/model.h"

#include <cstring>
#include <stdexcept>

#include "ml/checkpoint.h"

namespace m3 {
namespace {

ml::TransformerConfig EncoderConfig(const M3ModelConfig& cfg) {
  ml::TransformerConfig tc;
  tc.input_dim = cfg.feat_dim;
  tc.d_model = cfg.d_model;
  tc.num_heads = cfg.num_heads;
  tc.num_layers = cfg.num_layers;
  tc.ff_dim = cfg.ff_dim;
  tc.max_seq = cfg.max_seq;
  return tc;
}

void CheckShape(const ml::Tensor* t, int rows, int cols, const char* what) {
  if (t == nullptr || t->rows() != rows || t->cols() != cols) {
    throw std::invalid_argument(std::string("M3Model::PredictBatch: bad ") + what + " shape");
  }
}

}  // namespace

M3Model::M3Model(const M3ModelConfig& cfg) : cfg_(cfg) {
  Rng rng(cfg.init_seed);
  Rng enc_rng = rng.Fork(1);
  Rng head_rng = rng.Fork(2);
  bg_encoder_ = ml::TransformerEncoder("bg", EncoderConfig(cfg), enc_rng);
  head_ = ml::Mlp("head", cfg.feat_dim + cfg.d_model + cfg.spec_dim, cfg.mlp_hidden,
                  cfg.out_dim, head_rng);
}

ml::Var M3Model::Forward(ml::Graph& g, const ml::Tensor& fg_feat, const ml::Tensor& bg_seq,
                         const ml::Tensor& spec, bool use_context) {
  // Upper bound on tape length: encoder prologue + per-block ops (which
  // grow with the head count) + the MLP head and loss nodes.
  g.Reserve(32 + static_cast<std::size_t>(cfg_.num_layers) *
                     (48 + 16 * static_cast<std::size_t>(cfg_.num_heads)));
  ml::Var ctx = use_context ? bg_encoder_.Encode(g, bg_seq)
                            : g.Input(ml::Tensor::Zeros(1, cfg_.d_model));
  ml::Var in = g.ConcatCols({g.Input(fg_feat), ctx, g.Input(spec)});
  return head_(g, in);
}

ml::Tensor M3Model::EmbedHops(const ml::Tensor& bg_seq) const {
  return bg_encoder_.Embed(bg_seq);
}

std::vector<M3Model::Prediction> M3Model::PredictBatch(const std::vector<PredictInput>& inputs,
                                                       bool use_context) const {
  const std::size_t rows = inputs.size();
  std::vector<Prediction> out(rows);
  if (rows == 0) return out;
  const std::size_t feat = static_cast<std::size_t>(cfg_.feat_dim);
  const std::size_t d = static_cast<std::size_t>(cfg_.d_model);
  const std::size_t spec = static_cast<std::size_t>(cfg_.spec_dim);
  const std::size_t out_dim = static_cast<std::size_t>(cfg_.out_dim);
  const std::size_t in_dim = feat + d + spec;

  std::vector<const ml::Tensor*> hops;
  for (const PredictInput& in : inputs) {
    CheckShape(in.fg_feat, 1, cfg_.feat_dim, "fg_feat");
    CheckShape(in.spec, 1, cfg_.spec_dim, "spec");
    if (in.baseline != nullptr) CheckShape(in.baseline, 1, cfg_.out_dim, "baseline");
    if (!use_context) continue;
    if (in.hops == nullptr) throw std::invalid_argument("M3Model::PredictBatch: no hops");
    hops.push_back(in.hops);
  }

  // Context rows: every input's hops through the encoder at once, or zeros
  // for the no-context ablation.
  ml::FloatVec ctx(rows * d, 0.0f);
  if (use_context) bg_encoder_.EncodeBatch(hops, ctx.data());

  // Head over [rows, fg | ctx | spec].
  ml::FloatVec head_in(rows * in_dim);
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = head_in.data() + r * in_dim;
    std::memcpy(row, inputs[r].fg_feat->data(), feat * sizeof(float));
    std::memcpy(row + feat, ctx.data() + r * d, d * sizeof(float));
    std::memcpy(row + feat + d, inputs[r].spec->data(), spec * sizeof(float));
  }
  ml::FloatVec hidden(rows * static_cast<std::size_t>(head_.hidden_features()));
  ml::FloatVec raw(rows * out_dim);
  head_.Infer(head_in.data(), static_cast<int>(rows), hidden.data(), raw.data());

  for (std::size_t r = 0; r < rows; ++r) {
    float* row = raw.data() + r * out_dim;
    if (const ml::Tensor* base = inputs[r].baseline; base != nullptr) {
      for (std::size_t j = 0; j < out_dim; ++j) row[j] += base->data()[j];
    }
    out[r].pct = DecodeOutput(row, &out[r].num_nonfinite);
  }
  return out;
}

M3Model::Percentiles M3Model::Predict(const ml::Tensor& fg_feat, const ml::Tensor& bg_seq,
                                      const ml::Tensor& spec, bool use_context,
                                      const ml::Tensor* baseline, int* num_nonfinite) const {
  const ml::Tensor hops = use_context ? EmbedHops(bg_seq) : ml::Tensor();
  const Prediction p = PredictBatch({{&fg_feat, &hops, &spec, baseline}}, use_context)[0];
  if (num_nonfinite != nullptr) *num_nonfinite = p.num_nonfinite;
  return p.pct;
}

std::vector<ml::Parameter*> M3Model::params() {
  std::vector<ml::Parameter*> out;
  bg_encoder_.CollectParams(out);
  head_.CollectParams(out);
  return out;
}

std::size_t M3Model::num_parameters() {
  std::size_t n = 0;
  for (const ml::Parameter* p : params()) n += p->value.size();
  return n;
}

void M3Model::Save(const std::string& path) { ml::SaveCheckpoint(path, params()); }
ml::CheckpointInfo M3Model::Load(const std::string& path) {
  return ml::LoadCheckpoint(path, params());
}

StatusOr<ml::CheckpointInfo> M3Model::TryLoad(const std::string& path) {
  try {
    return ml::LoadCheckpoint(path, params());
  } catch (const ml::CheckpointError& e) {
    return Status(e.code(), e.what()).Annotate("loading " + path);
  } catch (const std::exception& e) {
    return Status::Internal(e.what()).Annotate("loading " + path);
  }
}

}  // namespace m3
