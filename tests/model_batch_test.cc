// Differential tests of the tape-free batched inference pass
// (M3Model::PredictBatch) against its oracle, the autograd training
// forward (M3Model::Forward on a Graph), for every available kernel
// implementation. Equality is bitwise: the batched pass makes the same
// kernel calls per row, and the GEMM row-invariance contract
// (ml/kernels.h) keeps a row's bits independent of the batch around it.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/model.h"
#include "ml/autograd.h"
#include "ml/kernels.h"
#include "util/rng.h"

namespace m3 {
namespace {

using ml::kernels::KernelImpl;

class ImplGuard {
 public:
  explicit ImplGuard(KernelImpl impl) : prev_(ml::kernels::GetKernelImpl()) {
    ml::kernels::SetKernelImpl(impl);
  }
  ~ImplGuard() { ml::kernels::SetKernelImpl(prev_); }

 private:
  KernelImpl prev_;
};

std::vector<KernelImpl> AvailableImpls() {
  std::vector<KernelImpl> impls;
  for (KernelImpl impl : {KernelImpl::kNaive, KernelImpl::kTiled, KernelImpl::kAvx2,
                          KernelImpl::kAvx512}) {
    if (ml::kernels::KernelImplAvailable(impl)) impls.push_back(impl);
  }
  return impls;
}

ml::Tensor RandomTensor(int rows, int cols, Rng& rng, double stddev) {
  ml::Tensor t(rows, cols);
  for (float& v : t.vec()) v = static_cast<float>(rng.Normal(0.0, stddev));
  return t;
}

// One path's model inputs; hop counts cycle through 1..max_seq and every
// other row carries a baseline.
struct Row {
  ml::Tensor fg, bg, hops, spec, baseline;
  bool has_baseline = false;

  M3Model::PredictInput Input() const {
    return {&fg, &hops, &spec, has_baseline ? &baseline : nullptr};
  }
};

std::vector<Row> MakeRows(const M3Model& model, int count, std::uint64_t seed) {
  const M3ModelConfig& cfg = model.config();
  Rng rng(seed);
  std::vector<Row> rows(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Row& r = rows[static_cast<std::size_t>(i)];
    r.fg = RandomTensor(1, cfg.feat_dim, rng, 1.0);
    r.bg = RandomTensor(i % cfg.max_seq + 1, cfg.feat_dim, rng, 1.0);
    r.spec = RandomTensor(1, cfg.spec_dim, rng, 1.0);
    r.baseline = RandomTensor(1, cfg.out_dim, rng, 0.5);
    r.has_baseline = i % 2 == 1;
  }
  return rows;
}

// Embeds every row's hops under the active kernel implementation.
void EmbedRows(const M3Model& model, std::vector<Row>& rows) {
  for (Row& r : rows) r.hops = model.EmbedHops(r.bg);
}

// The oracle: the Graph forward plus baseline, decoded.
M3Model::Prediction GraphPredict(M3Model& model, const Row& r, bool use_context) {
  ml::Graph g;
  ml::Tensor raw = g.value(model.Forward(g, r.fg, r.bg, r.spec, use_context));
  if (r.has_baseline) raw.AddInPlace(r.baseline);
  M3Model::Prediction p;
  p.pct = DecodeOutput(raw, &p.num_nonfinite);
  return p;
}

// True when every decoded value matches bitwise; reports the first miss.
::testing::AssertionResult SameBits(const M3Model::Prediction& got,
                                    const M3Model::Prediction& want) {
  if (got.num_nonfinite != want.num_nonfinite) {
    return ::testing::AssertionFailure()
           << "num_nonfinite " << got.num_nonfinite << " vs " << want.num_nonfinite;
  }
  for (int b = 0; b < kNumOutputBuckets; ++b) {
    for (int p = 0; p < kNumPercentiles; ++p) {
      const double g = got.pct[static_cast<std::size_t>(b)][static_cast<std::size_t>(p)];
      const double w = want.pct[static_cast<std::size_t>(b)][static_cast<std::size_t>(p)];
      if (std::memcmp(&g, &w, sizeof(double)) != 0) {
        return ::testing::AssertionFailure()
               << "bucket " << b << " pct " << p << ": " << g << " vs " << w;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(M3ModelBatch, RowsMatchGraphForwardBitwiseEveryKernel) {
  constexpr int kRows = 24;
  M3Model model;  // default (served) dimensions, random init
  std::vector<Row> rows = MakeRows(model, kRows, 11);
  for (KernelImpl impl : AvailableImpls()) {
    ImplGuard guard(impl);
    EmbedRows(model, rows);
    for (const bool use_context : {true, false}) {
      std::vector<M3Model::Prediction> want;
      for (const Row& r : rows) want.push_back(GraphPredict(model, r, use_context));
      // Batches of every size 1..24, each a different rotating window, so
      // each row is checked at many batch heights and offsets.
      for (int size = 1; size <= kRows; ++size) {
        const int start = (size * 7) % kRows;
        std::vector<M3Model::PredictInput> batch;
        std::vector<int> which;
        for (int j = 0; j < size; ++j) {
          which.push_back((start + j) % kRows);
          batch.push_back(rows[static_cast<std::size_t>(which.back())].Input());
        }
        const std::vector<M3Model::Prediction> got = model.PredictBatch(batch, use_context);
        ASSERT_EQ(got.size(), batch.size());
        for (int j = 0; j < size; ++j) {
          const std::size_t w = static_cast<std::size_t>(which[static_cast<std::size_t>(j)]);
          EXPECT_TRUE(SameBits(got[static_cast<std::size_t>(j)], want[w]))
              << ml::kernels::KernelImplName(impl) << " context=" << use_context
              << " batch " << size << " row " << w << " (" << rows[w].bg.rows() << " hops)";
        }
      }
    }
  }
}

TEST(M3ModelBatch, PredictIsAOneRowBatch) {
  M3ModelConfig cfg;
  cfg.d_model = 32;
  cfg.num_layers = 1;
  cfg.ff_dim = 64;
  cfg.mlp_hidden = 64;
  M3Model model(cfg);
  std::vector<Row> rows = MakeRows(model, 2 * cfg.max_seq, 5);
  EmbedRows(model, rows);
  std::vector<M3Model::PredictInput> batch;
  for (const Row& r : rows) batch.push_back(r.Input());
  const std::vector<M3Model::Prediction> all = model.PredictBatch(batch);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    M3Model::Prediction one;
    one.pct = model.Predict(rows[i].fg, rows[i].bg, rows[i].spec, true,
                            rows[i].has_baseline ? &rows[i].baseline : nullptr,
                            &one.num_nonfinite);
    EXPECT_TRUE(SameBits(all[i], one)) << "row " << i;
    EXPECT_TRUE(SameBits(one, GraphPredict(model, rows[i], true))) << "row " << i;
  }
}

TEST(M3ModelBatch, NonFiniteCountIsPerRow) {
  M3ModelConfig cfg;
  cfg.d_model = 32;
  cfg.num_layers = 1;
  cfg.ff_dim = 64;
  cfg.mlp_hidden = 64;
  M3Model model(cfg);
  std::vector<Row> rows = MakeRows(model, 3, 9);
  EmbedRows(model, rows);
  rows[1].has_baseline = true;
  rows[1].baseline.at(0, 0) = std::numeric_limits<float>::quiet_NaN();
  rows[1].baseline.at(0, 7) = std::numeric_limits<float>::infinity();
  std::vector<M3Model::PredictInput> batch;
  for (const Row& r : rows) batch.push_back(r.Input());
  const std::vector<M3Model::Prediction> got = model.PredictBatch(batch);
  EXPECT_EQ(got[0].num_nonfinite, 0);
  EXPECT_EQ(got[1].num_nonfinite, 2);
  EXPECT_EQ(got[2].num_nonfinite, 0);
  // A poisoned row leaves its neighbours' bits untouched.
  EXPECT_TRUE(SameBits(got[0], GraphPredict(model, rows[0], true)));
  EXPECT_TRUE(SameBits(got[2], GraphPredict(model, rows[2], true)));
}

TEST(M3ModelBatch, RejectsMisshapedInputs) {
  M3ModelConfig cfg;
  cfg.d_model = 32;
  cfg.num_layers = 1;
  cfg.ff_dim = 64;
  cfg.mlp_hidden = 64;
  M3Model model(cfg);
  EXPECT_TRUE(model.PredictBatch({}).empty());
  EXPECT_THROW(model.EmbedHops(ml::Tensor(cfg.max_seq + 1, cfg.feat_dim)),
               std::invalid_argument);
  EXPECT_THROW(model.EmbedHops(ml::Tensor(0, cfg.feat_dim)), std::invalid_argument);
  EXPECT_THROW(model.EmbedHops(ml::Tensor(2, cfg.feat_dim + 1)), std::invalid_argument);

  std::vector<Row> rows = MakeRows(model, 2, 3);
  EmbedRows(model, rows);
  const auto run = [&](bool use_context) {
    std::vector<M3Model::PredictInput> batch;
    for (const Row& r : rows) batch.push_back(r.Input());
    return model.PredictBatch(batch, use_context);
  };
  rows[1].hops = ml::Tensor(cfg.max_seq + 1, cfg.d_model);
  EXPECT_THROW(run(true), std::invalid_argument);
  EXPECT_NO_THROW(run(false));  // without context the hops are never read
  rows[1].hops = ml::Tensor(2, cfg.d_model + 1);
  EXPECT_THROW(run(true), std::invalid_argument);
  rows[1].hops = model.EmbedHops(rows[1].bg);
  rows[0].fg = ml::Tensor(1, cfg.feat_dim - 1);
  EXPECT_THROW(run(true), std::invalid_argument);
  rows[0].fg = ml::Tensor(1, cfg.feat_dim);
  rows[0].has_baseline = true;
  rows[0].baseline = ml::Tensor(1, cfg.out_dim - 1);
  EXPECT_THROW(run(true), std::invalid_argument);
  rows[0].baseline = ml::Tensor(1, cfg.out_dim);
  EXPECT_NO_THROW(run(true));
}

}  // namespace
}  // namespace m3
