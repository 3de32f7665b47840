// EvaluatorStack wiring: each layer materializes exactly when requested,
// the ordering contract (faults innermost, parallel outermost) holds, and
// the stack behaves like the hand-assembled chain it replaced.
#include "apps/evaluator_factory.hpp"

#include <gtest/gtest.h>

#include "tuner/random_search.hpp"
#include "tuner/sampler.hpp"

namespace portatune::apps {
namespace {

TEST(EvaluatorFactory, BareBackendHasNoDecorators) {
  EvaluatorStackOptions opt;
  auto stack = make_evaluator_stack(opt);
  EXPECT_EQ(stack->fault_layer(), nullptr);
  EXPECT_EQ(stack->observed_layer(), nullptr);
  EXPECT_EQ(stack->resilient_layer(), nullptr);
  EXPECT_EQ(stack->parallel_layer(), nullptr);
  EXPECT_EQ(stack->problem_name(), "LU");
  EXPECT_EQ(stack->machine_name(), "Westmere");
  // Simulated backends are pure functions: safe to fan out, width 1.
  EXPECT_TRUE(stack->capabilities().thread_safe);
}

TEST(EvaluatorFactory, FullStackMaterializesEveryLayerInOrder) {
  EvaluatorStackOptions opt;
  opt.faults.transient_rate = 0.1;
  opt.observe = true;
  opt.resilient = true;
  opt.eval_threads = 2;
  auto stack = make_evaluator_stack(opt);
  ASSERT_NE(stack->fault_layer(), nullptr);
  ASSERT_NE(stack->observed_layer(), nullptr);
  ASSERT_NE(stack->resilient_layer(), nullptr);
  ASSERT_NE(stack->parallel_layer(), nullptr);

  // find_layer walks the forwarding chain from the stack itself down to
  // the backend: parallel must come before resilient, resilient before
  // the fault injector.
  tuner::Evaluator* top = stack->inner_evaluator();
  EXPECT_EQ(top, stack->parallel_layer());
  EXPECT_EQ(tuner::find_layer<tuner::ResilientEvaluator>(stack.get()),
            stack->resilient_layer());
  EXPECT_EQ(tuner::find_layer<tuner::FaultInjectingEvaluator>(stack.get()),
            stack->fault_layer());
  EXPECT_EQ(stack->parallel_layer()->threads(), 2u);
}

TEST(EvaluatorFactory, StackMatchesBareBackendResults) {
  EvaluatorStackOptions bare;
  bare.problem = "ATAX";
  bare.machine = "Sandybridge";
  auto plain = make_evaluator_stack(bare);

  auto decorated_opt = bare;
  decorated_opt.resilient = true;
  decorated_opt.eval_threads = 4;
  auto decorated = make_evaluator_stack(decorated_opt);

  tuner::ConfigStream stream(plain->space(), 5);
  for (int i = 0; i < 20; ++i) {
    const auto c = *stream.next();
    EXPECT_DOUBLE_EQ(plain->evaluate(c).seconds,
                     decorated->evaluate(c).seconds);
  }
}

TEST(EvaluatorFactory, SearchOverStackIsThreadCountInvariant) {
  tuner::SearchOptions opt;
  opt.max_evals = 25;
  opt.seed = 9;

  EvaluatorStackOptions serial_opt;
  serial_opt.problem = "LU";
  serial_opt.machine = "Power7";
  auto serial = make_evaluator_stack(serial_opt);
  const auto ts = tuner::random_search(*serial, opt);

  auto parallel_opt = serial_opt;
  parallel_opt.eval_threads = 4;
  auto parallel = make_evaluator_stack(parallel_opt);
  const auto tp = tuner::random_search(*parallel, opt);

  ASSERT_EQ(ts.size(), tp.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(ts.entry(i).config, tp.entry(i).config);
    EXPECT_DOUBLE_EQ(ts.entry(i).seconds, tp.entry(i).seconds);
    EXPECT_EQ(ts.entry(i).draw_index, tp.entry(i).draw_index);
  }
}

}  // namespace
}  // namespace portatune::apps
