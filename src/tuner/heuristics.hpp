// Extension search algorithms (paper Sec. II lists them as the standard
// autotuning search family; Sec. VII names testing the transfer approach
// with them as future work — implemented here).
//
// All six share one signature. Each reads max_evals, seed,
// failure_budget and cancel from SearchOptions (the genetic search also
// `population`); their own hyperparameters are fixed constants in
// heuristics.cpp. An optional *surrogate* seeds them: when a fitted
// source-machine model is supplied, the initial population / starting
// points are the best predicted configurations of a sampled pool instead
// of uniform draws. This is the paper's biasing idea transplanted into
// population and local searches.
//
// Every proposal is evaluated through the search loop
// (tuner/search_loop.hpp) as a one-draw window, so the heuristics share
// its failure-budget accounting, its "search.window" spans and its
// cancellation: a cancelled token stops a heuristic right after the
// evaluation in flight, with kCancelledStopReason on the trace. A
// repeated proposal costs no budget and is not re-evaluated; a failed
// one is not retried.
#pragma once

#include "ml/model.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/search_options.hpp"
#include "tuner/trace.hpp"

namespace portatune::tuner {

/// The signature all six share, for tables of heuristics.
using HeuristicSearch = SearchTrace (*)(Evaluator&, const SearchOptions&,
                                        const ml::Regressor*);

/// Steady-state genetic algorithm with tournament selection, uniform
/// crossover and per-gene mutation. Infeasible offspring are discarded.
SearchTrace genetic_search(Evaluator& eval, const SearchOptions& opt,
                           const ml::Regressor* surrogate = nullptr);

/// Simulated annealing over the one-step neighborhood of ParamSpace.
SearchTrace annealing_search(Evaluator& eval, const SearchOptions& opt,
                             const ml::Regressor* surrogate = nullptr);

/// Coordinate pattern search: probe +-1 step along every parameter, move
/// to the best improving neighbor, restart from a fresh random point on
/// local minima until the budget is exhausted.
SearchTrace pattern_search(Evaluator& eval, const SearchOptions& opt,
                           const ml::Regressor* surrogate = nullptr);

/// OpenTuner-style multi-technique search: random sampling, mutation
/// hill-climbing, and pattern steps run under a UCB bandit that shifts
/// the evaluation budget toward whichever technique has recently
/// produced improvements.
SearchTrace ensemble_search(Evaluator& eval, const SearchOptions& opt,
                            const ml::Regressor* surrogate = nullptr);

/// Nelder–Mead simplex adapted to the discrete index grid: the simplex
/// lives in continuous index coordinates, every evaluation rounds to the
/// nearest valid configuration. Restarts from a fresh random simplex when
/// it collapses, until the budget is exhausted.
SearchTrace nelder_mead_search(Evaluator& eval, const SearchOptions& opt,
                               const ml::Regressor* surrogate = nullptr);

/// Orthogonal (cyclic coordinate) search: sweep each parameter in turn,
/// trying every allowed value with the others held fixed, and commit the
/// best; repeat rounds until the budget is exhausted or a full round
/// yields no improvement (then restart from a random point).
SearchTrace orthogonal_search(Evaluator& eval, const SearchOptions& opt,
                              const ml::Regressor* surrogate = nullptr);

}  // namespace portatune::tuner
