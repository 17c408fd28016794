// Trainable layers built on the autograd graph. Each layer also has a
// const, tape-free Infer() for inference: the same kernel calls as its
// Graph forward on row-major float buffers, with no tape, so every row it
// computes bitwise equals the Graph's value for that row (the row-invariance
// contract in ml/kernels.h makes this hold at any batch height).
#pragma once

#include <string>
#include <vector>

#include "ml/autograd.h"
#include "ml/tensor.h"
#include "util/rng.h"

namespace m3::ml {

/// y = act(x W + b), with Kaiming-ish init (stddev = 1/sqrt(in)). The
/// whole layer is one fused tape op (Graph::Linear), including the
/// optional activation.
class Linear {
 public:
  Linear() = default;
  Linear(const std::string& name, int in, int out, Rng& rng);

  Var operator()(Graph& g, Var x, Act act = Act::kNone);
  /// out[rows, out_features] = act(x[rows, in_features] W + b).
  void Infer(const float* x, int rows, float* out, Act act = Act::kNone) const;
  void CollectParams(std::vector<Parameter*>& out);

  int in_features() const { return w_.value.rows(); }
  int out_features() const { return w_.value.cols(); }

 private:
  Parameter w_;  // [in, out]
  Parameter b_;  // [1, out]
};

/// Row-wise RMS norm with a learned gain (Llama-style).
class RmsNormLayer {
 public:
  RmsNormLayer() = default;
  RmsNormLayer(const std::string& name, int dim);

  Var operator()(Graph& g, Var x);
  /// Normalizes x[rows, dim] into out; `inv_r` receives the [rows] 1/rms.
  void Infer(const float* x, int rows, float* out, float* inv_r) const;
  void CollectParams(std::vector<Parameter*>& out);

 private:
  Parameter gain_;  // [1, dim]
};

/// Two-layer MLP: in -> hidden (ReLU) -> out.
class Mlp {
 public:
  Mlp() = default;
  Mlp(const std::string& name, int in, int hidden, int out, Rng& rng);

  Var operator()(Graph& g, Var x);
  /// out[rows, out] from x[rows, in]; `hidden` is [rows, hidden] scratch.
  void Infer(const float* x, int rows, float* hidden, float* out) const;
  int hidden_features() const { return fc1_.out_features(); }
  void CollectParams(std::vector<Parameter*>& out);

 private:
  Linear fc1_;
  Linear fc2_;
};

}  // namespace m3::ml
