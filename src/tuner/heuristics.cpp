#include "tuner/heuristics.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <unordered_map>

#include "support/error.hpp"
#include "support/stats.hpp"
#include "tuner/observe.hpp"
#include "tuner/search_loop.hpp"

namespace portatune::tuner {

namespace {

// Search hyperparameters. Nothing tunes them yet, so they are constants
// rather than options.
constexpr std::size_t kSeedPool = 2000;  ///< pool a surrogate ranks for starts
constexpr double kCrossoverRate = 0.8;   ///< GA
constexpr double kMutationRate = 0.1;    ///< GA, per gene
constexpr std::size_t kTournament = 3;   ///< GA
constexpr double kInitialTemp = 1.0;     ///< SA, relative to the first run time
constexpr double kCooling = 0.95;        ///< SA, geometric per step
constexpr double kExploration = 1.4;     ///< ensemble UCB constant (OpenTuner)
constexpr double kReflection = 1.0;      ///< NM
constexpr double kExpansion = 2.0;       ///< NM
constexpr double kContraction = 0.5;     ///< NM
constexpr double kShrink = 0.5;          ///< NM

/// Draw `count` starting configurations: either the surrogate's best
/// predictions over a random pool, or plain uniform draws.
std::vector<ParamConfig> seeded_starts(const ParamSpace& space,
                                       const ml::Regressor* surrogate,
                                       std::size_t count, Rng& rng) {
  std::vector<ParamConfig> out;
  out.reserve(count);
  if (surrogate == nullptr) {
    for (std::size_t i = 0; i < count; ++i)
      out.push_back(space.random_config(rng));
    return out;
  }
  const RankedPool pool = rank_pool(surrogate, space, rng(), kSeedPool);
  for (std::size_t i = 0; i < pool.order.size() && out.size() < count; ++i)
    out.push_back(pool.configs[pool.order[i]]);
  return out;
}

/// Runs each proposal through the search loop as a one-draw window (the
/// next proposal depends on this one's result). Results are remembered
/// by configuration: a repeated proposal returns the known value without
/// spending budget, and a failed one is not retried.
class Proposals {
 public:
  Proposals(Evaluator& eval, SearchTrace& trace, const SearchOptions& opt)
      : space_(eval.space()),
        trace_(trace),
        max_evals_(opt.max_evals),
        loop_(eval, trace, opt.failure_budget, opt.cancel, 1) {}

  /// The budget is spent, or the loop stopped the search (failure budget
  /// or cancellation; either leaves a stop reason on the trace).
  bool exhausted() const {
    return trace_.size() >= max_evals_ || !trace_.stop_reason().empty();
  }

  /// Returns the run time, or nullopt on failure/budget end.
  std::optional<double> operator()(const ParamConfig& c) {
    if (exhausted()) return std::nullopt;
    const auto [known, fresh] = seen_.try_emplace(space_.config_hash(c));
    if (!fresh) return known->second;
    // Draw index = trace position at record time.
    const std::size_t index = trace_.size();
    bool drawn = false;
    FnSource one([&](Draw& out) {
      if (drawn) return false;
      drawn = true;
      out = {c, index};
      return true;
    });
    loop_.run(one, index + 1);
    if (trace_.size() > index) known->second = trace_.entry(index).seconds;
    return known->second;
  }

 private:
  const ParamSpace& space_;
  SearchTrace& trace_;
  std::size_t max_evals_;
  SearchLoop loop_;
  std::unordered_map<std::uint64_t, std::optional<double>> seen_;
};

}  // namespace

SearchTrace genetic_search(Evaluator& eval, const SearchOptions& opt,
                           const ml::Regressor* surrogate) {
  PT_REQUIRE(opt.population >= 2, "population too small");
  SearchTrace trace("GA", eval.problem_name(), eval.machine_name());
  SearchSpanGuard span(trace);
  const ParamSpace& space = eval.space();
  Rng rng(opt.seed);
  Proposals run(eval, trace, opt);

  struct Member {
    ParamConfig config;
    double fitness;  // run time; lower is better
  };
  std::vector<Member> pop;
  for (auto& c : seeded_starts(space, surrogate, opt.population, rng)) {
    if (auto y = run(c)) pop.push_back({std::move(c), *y});
    if (run.exhausted()) return trace;
  }
  if (pop.size() < 2) return trace;

  const auto tournament = [&]() -> const Member& {
    const Member* best = &pop[rng.below(pop.size())];
    for (std::size_t i = 1; i < kTournament; ++i) {
      const Member& challenger = pop[rng.below(pop.size())];
      if (challenger.fitness < best->fitness) best = &challenger;
    }
    return *best;
  };

  const std::size_t max_steps = opt.max_evals * 200;
  for (std::size_t step = 0; step < max_steps && !run.exhausted();
       ++step) {
    const Member& a = tournament();
    const Member& b = tournament();
    ParamConfig child = a.config;
    if (rng.uniform() < kCrossoverRate) {
      for (std::size_t g = 0; g < child.size(); ++g)
        if (rng.uniform() < 0.5) child[g] = b.config[g];
    }
    for (std::size_t g = 0; g < child.size(); ++g)
      if (rng.uniform() < kMutationRate)
        child[g] = static_cast<int>(
            rng.below(space.param(g).values.size()));
    const auto y = run(child);
    if (!y) continue;
    // Steady state: replace the worst member if the child beats it.
    auto worst = std::max_element(
        pop.begin(), pop.end(),
        [](const Member& l, const Member& r) { return l.fitness < r.fitness; });
    if (*y < worst->fitness) *worst = {std::move(child), *y};
  }
  return trace;
}

SearchTrace annealing_search(Evaluator& eval, const SearchOptions& opt,
                             const ml::Regressor* surrogate) {
  SearchTrace trace("SA", eval.problem_name(), eval.machine_name());
  SearchSpanGuard span(trace);
  const ParamSpace& space = eval.space();
  Rng rng(opt.seed);
  Proposals run(eval, trace, opt);

  auto starts = seeded_starts(space, surrogate, 1, rng);
  ParamConfig current = starts.front();
  std::optional<double> current_y = run(current);
  // If the start fails, retry with fresh random points.
  while (!current_y && !run.exhausted()) {
    current = space.random_config(rng);
    current_y = run(current);
  }
  if (!current_y) return trace;

  double temp = kInitialTemp * *current_y;
  // Proposal cap: cached duplicates cost no budget, so an exhausted local
  // neighborhood at low temperature would otherwise loop forever.
  const std::size_t max_steps = opt.max_evals * 200;
  for (std::size_t step = 0; step < max_steps && !run.exhausted();
       ++step) {
    // Neighbor: one parameter stepped by +-1.
    ParamConfig next = current;
    const std::size_t g = rng.below(space.num_params());
    const auto card = space.param(g).values.size();
    if (card > 1) {
      int step = rng.uniform() < 0.5 ? -1 : 1;
      int v = next[g] + step;
      if (v < 0) v = 1;
      if (static_cast<std::size_t>(v) >= card)
        v = static_cast<int>(card) - 2;
      next[g] = v;
    }
    const auto y = run(next);
    if (!y) {
      temp *= kCooling;
      continue;
    }
    const double delta = *y - *current_y;
    if (delta <= 0.0 ||
        rng.uniform() < std::exp(-delta / std::max(temp, 1e-12))) {
      current = std::move(next);
      current_y = *y;
    }
    temp *= kCooling;
  }
  return trace;
}

SearchTrace pattern_search(Evaluator& eval, const SearchOptions& opt,
                           const ml::Regressor* surrogate) {
  SearchTrace trace("PS", eval.problem_name(), eval.machine_name());
  SearchSpanGuard span(trace);
  const ParamSpace& space = eval.space();
  Rng rng(opt.seed);
  Proposals run(eval, trace, opt);

  auto starts = seeded_starts(space, surrogate, 4, rng);
  std::size_t start_idx = 0;

  const std::size_t max_restarts = opt.max_evals * 50;
  for (std::size_t restart = 0;
       restart < max_restarts && !run.exhausted(); ++restart) {
    ParamConfig center = start_idx < starts.size()
                             ? starts[start_idx++]
                             : space.random_config(rng);
    auto center_y = run(center);
    if (!center_y) continue;

    bool improved = true;
    while (improved && !run.exhausted()) {
      improved = false;
      ParamConfig best_n;
      double best_y = *center_y;
      for (const auto& n : space.neighbors(center)) {
        if (run.exhausted()) break;
        const auto y = run(n);
        if (y && *y < best_y) {
          best_y = *y;
          best_n = n;
          improved = true;
        }
      }
      if (improved) {
        center = std::move(best_n);
        center_y = best_y;
      }
    }
  }
  return trace;
}

SearchTrace ensemble_search(Evaluator& eval, const SearchOptions& opt,
                            const ml::Regressor* surrogate) {
  SearchTrace trace("Ensemble", eval.problem_name(), eval.machine_name());
  SearchSpanGuard span(trace);
  const ParamSpace& space = eval.space();
  Rng rng(opt.seed);
  Proposals run(eval, trace, opt);

  // Shared incumbent across techniques.
  ParamConfig best_config;
  double best_y = std::numeric_limits<double>::infinity();

  const auto consider = [&](const ParamConfig& c,
                            double y) {  // track the incumbent
    if (y < best_y) {
      best_y = y;
      best_config = c;
      return true;
    }
    return false;
  };

  enum { kRandom = 0, kMutate = 1, kStep = 2, kNumTechniques = 3 };
  double wins[kNumTechniques] = {};
  double plays[kNumTechniques] = {};

  // Seed the incumbent (surrogate-guided when available).
  for (auto& c :
       seeded_starts(space, surrogate, 3, rng)) {
    if (auto y = run(c)) consider(c, *y);
    if (run.exhausted()) return trace;
  }

  std::size_t round = 0;
  const std::size_t max_rounds = opt.max_evals * 200;
  while (!run.exhausted() && round < max_rounds) {
    ++round;
    // UCB1 technique selection.
    int pick = 0;
    double best_score = -1.0;
    for (int t = 0; t < kNumTechniques; ++t) {
      const double mean = plays[t] > 0 ? wins[t] / plays[t] : 1.0;
      const double bonus =
          plays[t] > 0
              ? kExploration *
                    std::sqrt(std::log(static_cast<double>(round)) /
                              plays[t])
              : 10.0;
      if (mean + bonus > best_score) {
        best_score = mean + bonus;
        pick = t;
      }
    }

    ParamConfig candidate;
    if (pick == kRandom || best_config.empty()) {
      candidate = space.random_config(rng);
    } else if (pick == kMutate) {
      candidate = best_config;
      for (std::size_t g = 0; g < candidate.size(); ++g)
        if (rng.uniform() < 0.15)
          candidate[g] =
              static_cast<int>(rng.below(space.param(g).values.size()));
    } else {
      const auto neighbors = space.neighbors(best_config);
      candidate = neighbors.empty()
                      ? space.random_config(rng)
                      : neighbors[rng.below(neighbors.size())];
    }
    plays[pick] += 1.0;
    if (const auto y = run(candidate))
      if (consider(candidate, *y)) wins[pick] += 1.0;
  }
  return trace;
}

namespace {

/// Round a continuous index-coordinate point to a valid configuration.
ParamConfig round_to_config(const ParamSpace& space,
                            std::span<const double> x) {
  ParamConfig c(space.num_params());
  for (std::size_t p = 0; p < space.num_params(); ++p) {
    const auto card = static_cast<double>(space.param(p).values.size());
    double v = std::round(x[p]);
    if (v < 0) v = 0;
    if (v > card - 1) v = card - 1;
    c[p] = static_cast<int>(v);
  }
  return c;
}

}  // namespace

SearchTrace nelder_mead_search(Evaluator& eval, const SearchOptions& opt,
                               const ml::Regressor* surrogate) {
  SearchTrace trace("NM", eval.problem_name(), eval.machine_name());
  SearchSpanGuard span(trace);
  const ParamSpace& space = eval.space();
  const std::size_t dim = space.num_params();
  Rng rng(opt.seed);
  Proposals run(eval, trace, opt);

  using Point = std::vector<double>;
  struct Vertex {
    Point x;
    double y;
  };

  const auto eval_point = [&](const Point& x) -> std::optional<double> {
    return run(round_to_config(space, x));
  };
  const auto random_point = [&] {
    Point x(dim);
    for (std::size_t p = 0; p < dim; ++p)
      x[p] = rng.uniform(0.0, static_cast<double>(
                                  space.param(p).values.size() - 1));
    return x;
  };

  auto starts = seeded_starts(space, surrogate, 1, rng);
  const std::size_t max_restarts = opt.max_evals * 20;
  for (std::size_t restart = 0;
       restart < max_restarts && !run.exhausted(); ++restart) {
    // Initial simplex: start point + dim vertices offset along each axis.
    std::vector<Vertex> simplex;
    Point base(dim);
    if (restart == 0 && !starts.empty()) {
      for (std::size_t p = 0; p < dim; ++p)
        base[p] = static_cast<double>(starts[0][p]);
    } else {
      base = random_point();
    }
    for (std::size_t v = 0; v <= dim && !run.exhausted(); ++v) {
      Point x = base;
      if (v > 0) {
        const auto card =
            static_cast<double>(space.param(v - 1).values.size());
        x[v - 1] = std::min(card - 1.0, x[v - 1] + std::max(1.0, card / 4));
      }
      if (const auto y = eval_point(x)) simplex.push_back({x, *y});
    }
    if (simplex.size() < 3) continue;

    const std::size_t max_iters = opt.max_evals * 4;
    for (std::size_t it = 0; it < max_iters && !run.exhausted(); ++it) {
      std::sort(simplex.begin(), simplex.end(),
                [](const Vertex& a, const Vertex& b) { return a.y < b.y; });
      Vertex& worst = simplex.back();

      // Centroid of all but the worst vertex.
      Point centroid(dim, 0.0);
      for (std::size_t v = 0; v + 1 < simplex.size(); ++v)
        for (std::size_t p = 0; p < dim; ++p)
          centroid[p] += simplex[v].x[p];
      for (auto& c : centroid)
        c /= static_cast<double>(simplex.size() - 1);

      const auto blend = [&](double coeff) {
        Point x(dim);
        for (std::size_t p = 0; p < dim; ++p)
          x[p] = centroid[p] + coeff * (centroid[p] - worst.x[p]);
        return x;
      };

      const Point reflected = blend(kReflection);
      const auto yr = eval_point(reflected);
      if (!yr) break;  // budget or persistent failure
      if (*yr < simplex.front().y) {
        const Point expanded = blend(kExpansion);
        const auto ye = eval_point(expanded);
        if (ye && *ye < *yr)
          worst = {expanded, *ye};
        else
          worst = {reflected, *yr};
      } else if (*yr < simplex[simplex.size() - 2].y) {
        worst = {reflected, *yr};
      } else {
        const Point contracted = blend(-kContraction);
        const auto yc = eval_point(contracted);
        if (yc && *yc < worst.y) {
          worst = {contracted, *yc};
        } else {
          // Shrink toward the best vertex.
          for (std::size_t v = 1; v < simplex.size(); ++v) {
            for (std::size_t p = 0; p < dim; ++p)
              simplex[v].x[p] =
                  simplex[0].x[p] +
                  kShrink * (simplex[v].x[p] - simplex[0].x[p]);
            if (const auto y = eval_point(simplex[v].x))
              simplex[v].y = *y;
          }
        }
      }
      // Collapse test: restart once the simplex spans < 1 index step.
      double span = 0.0;
      for (std::size_t p = 0; p < dim; ++p) {
        double lo = simplex[0].x[p], hi = simplex[0].x[p];
        for (const auto& v : simplex) {
          lo = std::min(lo, v.x[p]);
          hi = std::max(hi, v.x[p]);
        }
        span = std::max(span, hi - lo);
      }
      if (span < 1.0) break;
    }
  }
  return trace;
}

SearchTrace orthogonal_search(Evaluator& eval, const SearchOptions& opt,
                              const ml::Regressor* surrogate) {
  SearchTrace trace("OS", eval.problem_name(), eval.machine_name());
  SearchSpanGuard span(trace);
  const ParamSpace& space = eval.space();
  Rng rng(opt.seed);
  Proposals run(eval, trace, opt);

  auto starts = seeded_starts(space, surrogate, 2, rng);
  std::size_t start_idx = 0;
  const std::size_t max_restarts = opt.max_evals * 20;
  for (std::size_t restart = 0;
       restart < max_restarts && !run.exhausted(); ++restart) {
    ParamConfig current = start_idx < starts.size()
                              ? starts[start_idx++]
                              : space.random_config(rng);
    auto current_y = run(current);
    if (!current_y) continue;

    bool improved_any = true;
    while (improved_any && !run.exhausted()) {
      improved_any = false;
      for (std::size_t p = 0; p < space.num_params() && !run.exhausted();
           ++p) {
        // Sweep every value of parameter p (the "orthogonal array" row).
        int best_v = current[p];
        double best_y = *current_y;
        for (std::size_t v = 0; v < space.param(p).values.size(); ++v) {
          if (static_cast<int>(v) == current[p]) continue;
          if (run.exhausted()) break;
          ParamConfig candidate = current;
          candidate[p] = static_cast<int>(v);
          const auto y = run(candidate);
          if (y && *y < best_y) {
            best_y = *y;
            best_v = static_cast<int>(v);
          }
        }
        if (best_v != current[p]) {
          current[p] = best_v;
          current_y = best_y;
          improved_any = true;
        }
      }
    }
  }
  return trace;
}

}  // namespace portatune::tuner

