#include "ml/transformer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "ml/kernels.h"

namespace m3::ml {

TransformerBlock::TransformerBlock(const std::string& name, const TransformerConfig& cfg,
                                   Rng& rng)
    : d_model_(cfg.d_model),
      num_heads_(cfg.num_heads),
      norm1_(name + ".norm1", cfg.d_model),
      wq_(name + ".wq", cfg.d_model, cfg.d_model, rng),
      wk_(name + ".wk", cfg.d_model, cfg.d_model, rng),
      wv_(name + ".wv", cfg.d_model, cfg.d_model, rng),
      wo_(name + ".wo", cfg.d_model, cfg.d_model, rng),
      norm2_(name + ".norm2", cfg.d_model),
      ff1_(name + ".ff1", cfg.d_model, cfg.ff_dim, rng),
      ff2_(name + ".ff2", cfg.ff_dim, cfg.d_model, rng) {
  if (cfg.d_model % cfg.num_heads != 0) {
    throw std::invalid_argument("d_model must be divisible by num_heads");
  }
}

Var TransformerBlock::operator()(Graph& g, Var x) {
  // Pre-norm multi-head self-attention with residual.
  Var h = norm1_(g, x);
  Var q = wq_(g, h);
  Var k = wk_(g, h);
  Var v = wv_(g, h);
  const int dh = d_model_ / num_heads_;
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  std::vector<Var> heads;
  heads.reserve(static_cast<std::size_t>(num_heads_));
  for (int head = 0; head < num_heads_; ++head) {
    Var qh = g.SliceCols(q, head * dh, dh);
    Var kh = g.SliceCols(k, head * dh, dh);
    Var vh = g.SliceCols(v, head * dh, dh);
    // q·k^T with no Transpose node, scale folded into the softmax pass.
    Var attn = g.SoftmaxScaled(g.MatMulNT(qh, kh), scale);
    heads.push_back(g.MatMul(attn, vh));
  }
  Var attn_out = wo_(g, g.ConcatCols(heads));
  Var x1 = g.Add(x, attn_out);

  // Pre-norm feed-forward with residual (GELU fused into ff1).
  Var ff = ff2_(g, ff1_(g, norm2_(g, x1), Act::kGelu));
  return g.Add(x1, ff);
}

EncodeScratch::EncodeScratch(const TransformerConfig& cfg, int rows, int max_len) {
  const std::size_t n = static_cast<std::size_t>(rows);
  const std::size_t d = static_cast<std::size_t>(cfg.d_model);
  const std::size_t head = static_cast<std::size_t>(max_len) *
                           static_cast<std::size_t>(cfg.d_model / cfg.num_heads);
  h.resize(n * d);
  q.resize(n * d);
  k.resize(n * d);
  v.resize(n * d);
  ff.resize(n * static_cast<std::size_t>(cfg.ff_dim));
  inv_r.resize(n);
  qh.resize(head);
  kh.resize(head);
  vh.resize(head);
  head_out.resize(head);
  scores.resize(static_cast<std::size_t>(max_len) * static_cast<std::size_t>(max_len));
}

void TransformerBlock::Infer(float* x, const std::vector<int>& seq_lens, int rows,
                             EncodeScratch& s) const {
  const std::size_t d = static_cast<std::size_t>(d_model_);
  const std::size_t size = static_cast<std::size_t>(rows) * d;
  float* h = s.h.data();
  float* q = s.q.data();
  float* k = s.k.data();
  float* v = s.v.data();
  norm1_.Infer(x, rows, h, s.inv_r.data());
  wq_.Infer(h, rows, q);
  wk_.Infer(h, rows, k);
  wv_.Infer(h, rows, v);

  // Attention per sequence and head, on contiguous copies of the head's
  // columns, exactly as the Graph's SliceCols -> MatMulNT -> SoftmaxScaled
  // -> MatMul -> ConcatCols chain computes it. The heads land in h, which
  // is free once q, k and v exist.
  const int dh = d_model_ / num_heads_;
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  const std::size_t head_bytes = static_cast<std::size_t>(dh) * sizeof(float);
  float* heads = h;
  std::size_t off = 0;
  for (const int n : seq_lens) {
    for (int head = 0; head < num_heads_; ++head) {
      const std::size_t col = static_cast<std::size_t>(head) * dh;
      for (int r = 0; r < n; ++r) {
        const std::size_t src = (off + r) * d + col;
        std::memcpy(s.qh.data() + r * dh, q + src, head_bytes);
        std::memcpy(s.kh.data() + r * dh, k + src, head_bytes);
        std::memcpy(s.vh.data() + r * dh, v + src, head_bytes);
      }
      std::fill(s.scores.begin(), s.scores.begin() + n * n, 0.0f);
      kernels::GemmAccumNT(s.qh.data(), s.kh.data(), s.scores.data(), n, dh, n);
      kernels::SoftmaxScaledRows(s.scores.data(), n, n, scale);
      std::fill(s.head_out.begin(), s.head_out.begin() + n * dh, 0.0f);
      kernels::GemmAccum(s.scores.data(), s.vh.data(), s.head_out.data(), n, n, dh);
      for (int r = 0; r < n; ++r) {
        std::memcpy(heads + (off + r) * d + col, s.head_out.data() + r * dh, head_bytes);
      }
    }
    off += static_cast<std::size_t>(n);
  }
  // q is free after attention: it takes each residual branch's output.
  wo_.Infer(heads, rows, q);
  for (std::size_t i = 0; i < size; ++i) x[i] += q[i];

  norm2_.Infer(x, rows, h, s.inv_r.data());
  ff1_.Infer(h, rows, s.ff.data(), Act::kGelu);
  ff2_.Infer(s.ff.data(), rows, q);
  for (std::size_t i = 0; i < size; ++i) x[i] += q[i];
}

void TransformerBlock::CollectParams(std::vector<Parameter*>& out) {
  norm1_.CollectParams(out);
  wq_.CollectParams(out);
  wk_.CollectParams(out);
  wv_.CollectParams(out);
  wo_.CollectParams(out);
  norm2_.CollectParams(out);
  ff1_.CollectParams(out);
  ff2_.CollectParams(out);
}

TransformerEncoder::TransformerEncoder(const std::string& name, const TransformerConfig& cfg,
                                       Rng& rng)
    : cfg_(cfg),
      in_proj_(name + ".in_proj", cfg.input_dim, cfg.d_model, rng),
      pos_emb_(name + ".pos_emb",
               Tensor::Randn(cfg.max_seq, cfg.d_model, rng, 0.02f)),
      final_norm_(name + ".final_norm", cfg.d_model) {
  blocks_.reserve(static_cast<std::size_t>(cfg.num_layers));
  for (int i = 0; i < cfg.num_layers; ++i) {
    blocks_.emplace_back(name + ".block" + std::to_string(i), cfg, rng);
  }
}

Var TransformerEncoder::Encode(Graph& g, const Tensor& sequence) {
  const int n = sequence.rows();
  if (n < 1 || n > cfg_.max_seq || sequence.cols() != cfg_.input_dim) {
    throw std::invalid_argument("TransformerEncoder: bad sequence shape");
  }
  Var x = in_proj_(g, g.Input(sequence));
  // Add the first n rows of the positional embedding (a direct row slice;
  // the old Transpose -> SliceCols -> Transpose chain materialized the
  // full embedding twice per episode).
  x = g.Add(x, g.SliceRows(g.Param(&pos_emb_), 0, n));
  for (auto& block : blocks_) x = block(g, x);
  return final_norm_(g, g.MeanRows(x));
}

Tensor TransformerEncoder::Embed(const Tensor& sequence) const {
  const int n = sequence.rows();
  if (n < 1 || n > cfg_.max_seq || sequence.cols() != cfg_.input_dim) {
    throw std::invalid_argument("TransformerEncoder: bad sequence shape");
  }
  Tensor x(n, cfg_.d_model);
  in_proj_.Infer(sequence.data(), n, x.data());
  const float* pos = pos_emb_.value.data();
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] += pos[i];
  return x;
}

void TransformerEncoder::EncodeBatch(const std::vector<const Tensor*>& embedded,
                                     float* ctx) const {
  std::vector<int> seq_lens;
  seq_lens.reserve(embedded.size());
  int rows = 0;
  for (const Tensor* seq : embedded) {
    const int n = seq->rows();
    if (n < 1 || n > cfg_.max_seq || seq->cols() != cfg_.d_model) {
      throw std::invalid_argument("TransformerEncoder: bad embedded sequence shape");
    }
    seq_lens.push_back(n);
    rows += n;
  }
  if (rows == 0) return;
  const std::size_t d = static_cast<std::size_t>(cfg_.d_model);
  FloatVec x(static_cast<std::size_t>(rows) * d);
  std::size_t off = 0;
  for (const Tensor* seq : embedded) {
    std::memcpy(x.data() + off * d, seq->data(), seq->size() * sizeof(float));
    off += static_cast<std::size_t>(seq->rows());
  }
  EncodeScratch s(cfg_, rows, *std::max_element(seq_lens.begin(), seq_lens.end()));
  for (const auto& block : blocks_) block.Infer(x.data(), seq_lens, rows, s);

  // Mean pool per sequence (Graph::MeanRows), then one final norm over all
  // pooled rows.
  const std::size_t num = seq_lens.size();
  FloatVec pooled(num * d, 0.0f);
  off = 0;
  for (std::size_t p = 0; p < num; ++p) {
    const int n = seq_lens[p];
    float* row = pooled.data() + p * d;
    kernels::ColSumAccum(row, x.data() + off * d, n, cfg_.d_model);
    for (std::size_t j = 0; j < d; ++j) row[j] /= static_cast<float>(n);
    off += static_cast<std::size_t>(n);
  }
  final_norm_.Infer(pooled.data(), static_cast<int>(num), ctx, s.inv_r.data());
}

void TransformerEncoder::CollectParams(std::vector<Parameter*>& out) {
  in_proj_.CollectParams(out);
  out.push_back(&pos_emb_);
  for (auto& block : blocks_) block.CollectParams(out);
  final_norm_.CollectParams(out);
}

}  // namespace m3::ml
