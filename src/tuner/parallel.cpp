#include "tuner/parallel.hpp"

#include <algorithm>
#include <thread>

#include "support/thread_pool.hpp"

namespace portatune::tuner {

ParallelEvaluator::ParallelEvaluator(Evaluator& inner, ParallelOptions opt)
    : inner_(inner), opt_(opt) {
  std::size_t threads = opt_.threads;
  if (threads == 0)
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (threads > 1 && inner_.capabilities().thread_safe)
    pool_ = std::make_unique<ThreadPool>(threads);
}

// Defined where ThreadPool is complete (unique_ptr member).
ParallelEvaluator::~ParallelEvaluator() = default;

std::size_t ParallelEvaluator::threads() const noexcept {
  return pool_ ? pool_->size() : 1;
}

EvalCapabilities ParallelEvaluator::capabilities() const {
  EvalCapabilities caps = inner_.capabilities();
  if (!pool_) return caps;
  caps.preferred_batch =
      opt_.batch_width != 0 ? opt_.batch_width : 2 * pool_->size();
  return caps;
}

std::vector<EvalResult> ParallelEvaluator::evaluate_batch(
    std::span<const ParamConfig> batch) {
  if (!pool_ || batch.size() <= 1) {
    // Serial path, cancellation-aware: stop *between* evaluations once
    // cancellation is requested and return the prefix evaluated so far.
    std::vector<EvalResult> out;
    out.reserve(batch.size());
    for (const auto& config : batch) {
      if (opt_.cancel.cancelled()) break;
      out.push_back(inner_.evaluate(config));
    }
    return out;
  }

  std::vector<EvalResult> out(batch.size());
  // Which slots actually ran: workers skip (not fail) evaluations once
  // cancellation is requested, and the result vector is truncated at the
  // first skipped slot so the search still sees a clean draw-order
  // prefix — exactly what the serial path would have produced had it
  // been cancelled at that draw.
  std::vector<char> ran(batch.size(), 1);
  // At most pool-width evaluations at once, the calling thread included.
  pool_->parallel_for(
      0, batch.size(),
      [&](std::size_t i) {
        if (opt_.cancel.cancelled()) {
          ran[i] = 0;
          return;
        }
        out[i] = inner_.evaluate(batch[i]);
      },
      pool_->size());
  std::size_t keep = batch.size();
  for (std::size_t i = 0; i < batch.size(); ++i)
    if (!ran[i]) {
      keep = i;
      break;
    }
  out.resize(keep);
  return out;
}

}  // namespace portatune::tuner
