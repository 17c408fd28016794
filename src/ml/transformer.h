// A small pre-norm transformer encoder (the structural equivalent of the
// paper's tiny Llama-2): learned positional embeddings, multi-head
// self-attention, GELU feed-forward, RMS norms, and mean pooling into a
// fixed-size context vector. Sequence length is the number of hops on a
// path (<= 8), so this is tiny and fast on CPU.
#pragma once

#include <vector>

#include "ml/layers.h"

namespace m3::ml {

struct TransformerConfig {
  int input_dim = 1010;  // per-hop feature map (flattened) + counts
  int d_model = 96;
  int num_heads = 4;
  int num_layers = 2;
  int ff_dim = 192;
  int max_seq = 8;
};

/// Buffers of one TransformerEncoder::EncodeBatch call, sized for its rows
/// and its longest sequence.
struct EncodeScratch {
  EncodeScratch(const TransformerConfig& cfg, int rows, int max_len);

  FloatVec h, q, k, v, ff, inv_r;        // [rows, *] over all sequences
  FloatVec qh, kh, vh, scores, head_out;  // one head of one sequence
};

class TransformerBlock {
 public:
  TransformerBlock() = default;
  TransformerBlock(const std::string& name, const TransformerConfig& cfg, Rng& rng);

  Var operator()(Graph& g, Var x);  // [n, d] -> [n, d]
  /// Tape-free, in place on x[rows, d], where the rows stack sequences of
  /// `seq_lens` rows each: the projections, norms and feed-forward run over
  /// all rows at once, attention within each sequence.
  void Infer(float* x, const std::vector<int>& seq_lens, int rows, EncodeScratch& s) const;
  void CollectParams(std::vector<Parameter*>& out);

 private:
  int d_model_ = 0;
  int num_heads_ = 0;
  RmsNormLayer norm1_;
  Linear wq_, wk_, wv_, wo_;
  RmsNormLayer norm2_;
  Linear ff1_, ff2_;
};

class TransformerEncoder {
 public:
  TransformerEncoder() = default;
  TransformerEncoder(const std::string& name, const TransformerConfig& cfg, Rng& rng);

  /// Encodes a [n, input_dim] sequence into a [1, d_model] context vector.
  /// n must be in [1, max_seq].
  Var Encode(Graph& g, const Tensor& sequence);

  /// Tape-free Encode in two steps. Embed is the input layer of one
  /// [n, input_dim] sequence (n in [1, max_seq]): the input projection plus
  /// the positional embedding, [n, d_model]. EncodeBatch runs the rest for
  /// several embedded sequences at once: the blocks over their stacked rows,
  /// then the pool and final norm, one [1, d_model] context row per
  /// sequence into `ctx`. Each row bitwise equals Encode's value for that
  /// sequence alone.
  Tensor Embed(const Tensor& sequence) const;
  void EncodeBatch(const std::vector<const Tensor*>& embedded, float* ctx) const;

  void CollectParams(std::vector<Parameter*>& out);
  const TransformerConfig& config() const { return cfg_; }

 private:
  TransformerConfig cfg_;
  Linear in_proj_;
  Parameter pos_emb_;  // [max_seq, d_model]
  std::vector<TransformerBlock> blocks_;
  RmsNormLayer final_norm_;
};

}  // namespace m3::ml
