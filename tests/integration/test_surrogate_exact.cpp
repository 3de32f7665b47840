// The surrogate's predictions are pinned bit for bit: the default 64-tree
// forest on a 100-row LU Westmere RS trace must predict the recorded
// values below through predict(), predict_batch() and rank_pool(). The
// literals were computed by the pointer-linked per-tree walk that the
// compact forest replaced; every benchmark digest and CRN test relies on
// them staying equal under ==, not within a tolerance.
#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "ml/forest.hpp"
#include "tuner/random_search.hpp"
#include "tuner/sampler.hpp"
#include "tuner/search_loop.hpp"
#include "tuner/transfer.hpp"

namespace portatune {
namespace {

constexpr std::uint64_t kPoolSeed = 20160401;
constexpr std::size_t kPool = 10000;
constexpr std::size_t kStride = 625;  ///< kPool / 16

/// Predictions for pool rows 0, 625, 1250, ..., 9375.
constexpr double kExpected[16] = {
    0x1.414ebde904457p+2, 0x1.a73b87dbd0689p+1, 0x1.bd2ec620267e8p+1,
    0x1.d57edf96a4e21p+1, 0x1.0ab5913cbcdd8p+2, 0x1.23c0692739ce6p+2,
    0x1.db92060794df1p+1, 0x1.b1ab534527f97p+1, 0x1.ea47065079403p+1,
    0x1.f54e3dbfa34e7p+1, 0x1.015fc9b26802cp+2, 0x1.0e91bc5521b11p+3,
    0x1.7ed78b848a4fcp+1, 0x1.ecf558f3ecd23p+1, 0x1.c25ea4b5676bep+2,
    0x1.9de2f9f2c8ec7p+2,
};

struct LuSurrogate {
  tuner::EvaluatorPtr eval = apps::make_simulated_evaluator("LU", "Westmere");
  tuner::SearchTrace ta;
  ml::RegressorPtr model;

  LuSurrogate() {
    tuner::SearchOptions opt;
    opt.max_evals = 100;
    opt.seed = 7;
    ta = tuner::random_search(*eval, opt);
    model = tuner::fit_surrogate(ta, eval->space(), ml::ForestParams{});
  }
};

TEST(SurrogateExact, PoolPredictionsMatchRecordedValues) {
  const LuSurrogate lu;
  ASSERT_EQ(lu.ta.size(), 100u);
  const tuner::ParamSpace& space = lu.eval->space();
  tuner::ConfigStream stream(space, kPoolSeed);
  ml::Dataset rows(space.num_params());
  for (std::size_t i = 0; i < kPool; ++i)
    rows.add_row(space.features(*stream.next()), 0.0);

  const std::vector<double> batch = lu.model->predict_batch(rows);
  ASSERT_EQ(batch.size(), kPool);
  for (std::size_t k = 0; k < 16; ++k) {
    EXPECT_EQ(batch[k * kStride], kExpected[k]) << "row " << k * kStride;
    EXPECT_EQ(lu.model->predict(rows.row(k * kStride)), kExpected[k]);
  }
  for (std::size_t i = 0; i < kPool; ++i)
    ASSERT_EQ(lu.model->predict(rows.row(i)), batch[i]) << "row " << i;

  // rank_pool draws the same stream, encodes it itself and must land on
  // the same predictions.
  const tuner::RankedPool pool =
      tuner::rank_pool(lu.model.get(), space, kPoolSeed, kPool);
  EXPECT_EQ(pool.predicted, batch);
}

TEST(SurrogateExact, DiagnosticsMatchRecordedValues) {
  const LuSurrogate lu;
  const auto& forest = dynamic_cast<const ml::RandomForest&>(*lu.model);
  const ml::Dataset data = lu.ta.to_dataset(lu.eval->space());
  EXPECT_EQ(forest.oob_rmse(data), 0x1.19741cf30ea66p+1);
  const std::vector<double> expected = {
      0x1.b700f95fa45edp-5, 0x1.bfddecbbbb2cep-6, 0x1.07e5086c3b743p-1,
      0x1.5f6771fad7e7ep-5, 0x1.56007737a1402p-4, 0x1.23e0def90218fp-4,
      0x1.f5dcb61332ca3p-5, 0x1.adfd967e6bf07p-4, 0x1.45bd88129d82p-5,
  };
  EXPECT_EQ(forest.feature_importances(data), expected);
}

}  // namespace
}  // namespace portatune
