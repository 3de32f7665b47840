// Session-API parity: a TuningSession is a configuration of the same
// search loop and draw sources as the free-function searches, so a cold
// session stepped to exhaustion is exactly random_search() and a warm one
// exactly biased_random_search(), whatever the step granularity.
#include <gtest/gtest.h>

#include "apps/tuning_config.hpp"
#include "tuner/random_search.hpp"
#include "tuner/session.hpp"
#include "tuner/transfer.hpp"

namespace portatune::tuner {
namespace {

void expect_traces_equal(const SearchTrace& a, const SearchTrace& b,
                         const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entry(i).config, b.entry(i).config) << what << " entry " << i;
    EXPECT_DOUBLE_EQ(a.entry(i).seconds, b.entry(i).seconds)
        << what << " entry " << i;
    EXPECT_EQ(a.entry(i).draw_index, b.entry(i).draw_index)
        << what << " entry " << i;
  }
}

TEST(SessionAdapter, ColdSessionSteppedToExhaustionIsRandomSearch) {
  const apps::TuningConfig cfg =
      apps::TuningConfig{}.problem("LU").machine("Power7").max_evals(40)
          .seed(9);

  auto stack_rs = cfg.make_stack();
  RandomSearchOptions rs_opt;
  static_cast<SearchCommon&>(rs_opt) = cfg.search_common();
  const SearchTrace rs = random_search(*stack_rs, rs_opt);

  auto stack_session = cfg.make_stack();
  TuningSession session(*stack_session, cfg.session_options("parity"));
  // Ragged window sizes: the step granularity must not change the trace.
  for (std::size_t n : {1u, 7u, 3u, 20u, 40u}) {
    if (session.step(n).exhausted) break;
  }
  while (!session.step(10).exhausted) {
  }
  session.close();

  expect_traces_equal(session.trace(), rs, "cold session vs RS");
}

TEST(SessionAdapter, WarmSessionSteppedToExhaustionIsBiasedSearch) {
  // The surrogate comes from another machine's RS trace, as the store's
  // nearest-machine forest would.
  const apps::TuningConfig source_cfg =
      apps::TuningConfig{}.problem("LU").machine("Westmere").max_evals(60)
          .seed(4);
  auto source_stack = source_cfg.make_stack();
  RandomSearchOptions src_opt;
  static_cast<SearchCommon&>(src_opt) = source_cfg.search_common();
  const SearchTrace source = random_search(*source_stack, src_opt);
  ml::ForestParams fp;
  fp.num_trees = 16;
  fp.seed = 4;
  const auto model = fit_surrogate(source, source_stack->space(), fp);

  const apps::TuningConfig cfg = apps::TuningConfig{}
                                     .problem("LU")
                                     .machine("Sandybridge")
                                     .max_evals(35)
                                     .pool_size(1500)
                                     .seed(17);
  auto stack_rs = cfg.make_stack();
  BiasedSearchOptions b_opt;
  static_cast<SearchCommon&>(b_opt) = cfg.search_common();
  b_opt.pool_size = cfg.pool_size();
  const SearchTrace biased = biased_random_search(*stack_rs, *model, b_opt);

  auto stack_session = cfg.make_stack();
  SessionOptions opt = cfg.session_options("warm");
  opt.warm_model = model.get();
  TuningSession session(*stack_session, opt);
  ASSERT_TRUE(session.warm());
  for (std::size_t n : {2u, 9u, 1u, 13u}) {
    if (session.step(n).exhausted) break;
  }
  while (!session.step(6).exhausted) {
  }
  session.close();

  expect_traces_equal(session.trace(), biased, "warm session vs RS_b");
}

TEST(SessionAdapter, SuggestReportInterleavesWithStepLosslessly) {
  const apps::TuningConfig cfg =
      apps::TuningConfig{}.problem("LU").machine("Westmere").max_evals(30)
          .seed(21);

  // Pure service-side stepping.
  auto stack_a = cfg.make_stack();
  TuningSession pure(*stack_a, cfg.session_options("pure"));
  while (!pure.step(10).exhausted) {
  }

  // First few draws measured externally via suggest/report, rest stepped.
  auto stack_b = cfg.make_stack();
  auto stack_meter = cfg.make_stack();  // the "external" measurement rig
  TuningSession hybrid(*stack_b, cfg.session_options("hybrid"));
  for (const auto& c : hybrid.suggest(3)) {
    const EvalResult r = stack_meter->evaluate(c);
    if (r.ok) hybrid.report(c, r.seconds);
  }
  while (!hybrid.step(10).exhausted) {
  }

  // Reported results carry the same draw identity step() would have
  // assigned, so the two traces are identical.
  expect_traces_equal(hybrid.trace(), pure.trace(), "hybrid vs pure");
}

TEST(SessionAdapter, CheckpointResumeReproducesTheUninterruptedTrace) {
  const apps::TuningConfig cfg =
      apps::TuningConfig{}.problem("LU").machine("Sandybridge").max_evals(40)
          .seed(33);

  auto stack_ref = cfg.make_stack();
  TuningSession reference(*stack_ref, cfg.session_options("ref"));
  while (!reference.step(10).exhausted) {
  }

  auto stack_a = cfg.make_stack();
  SearchCheckpoint snapshot;
  {
    TuningSession first(*stack_a, cfg.session_options("interrupted"));
    first.step(15);
    snapshot = first.checkpoint();
  }

  auto stack_b = cfg.make_stack();
  SessionOptions opt = cfg.session_options("resumed");
  opt.resume = &snapshot;
  TuningSession resumed(*stack_b, opt);
  EXPECT_EQ(resumed.trace().size(), snapshot.trace.size());
  while (!resumed.step(10).exhausted) {
  }

  expect_traces_equal(resumed.trace(), reference.trace(), "resumed vs ref");
}

}  // namespace
}  // namespace portatune::tuner
