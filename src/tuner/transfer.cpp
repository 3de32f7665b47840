#include "tuner/transfer.hpp"

#include "obs/scoped_timer.hpp"
#include "support/error.hpp"

namespace portatune::tuner {

ml::RegressorPtr fit_surrogate(const SearchTrace& source,
                               const ParamSpace& space,
                               const ml::ForestParams& params) {
  PT_REQUIRE(!source.empty(), "cannot fit a surrogate on an empty trace");
  obs::ScopedTimer span("transfer.fit_surrogate", "ml",
                        {{"source_machine", source.machine()},
                         {"problem", source.problem()},
                         {"rows", source.size()},
                         {"trees", params.num_trees}});
  auto model = std::make_unique<ml::RandomForest>(params);
  model->fit(source.to_dataset(space));
  return model;
}

ml::Dataset hybrid_dataset(const SearchTrace* source,
                           const SearchTrace& target,
                           const ParamSpace& space,
                           std::size_t target_weight) {
  PT_REQUIRE(target_weight > 0, "target weight must be positive");
  ml::Dataset data(space.num_params(), space.names());
  if (source != nullptr)
    for (const auto& e : source->entries())
      data.add_row(space.features(e.config), e.seconds);
  for (const auto& e : target.entries())
    for (std::size_t w = 0; w < target_weight; ++w)
      data.add_row(space.features(e.config), e.seconds);
  return data;
}

ml::RegressorPtr fit_hybrid_surrogate(const SearchTrace* source,
                                      const SearchTrace& target,
                                      const ParamSpace& space,
                                      std::size_t target_weight,
                                      const ml::ForestParams& params) {
  const auto data = hybrid_dataset(source, target, space, target_weight);
  PT_REQUIRE(!data.empty(), "cannot fit a hybrid surrogate with no rows");
  obs::ScopedTimer span("transfer.fit_hybrid", "ml",
                        {{"source_rows",
                          source != nullptr ? source->size()
                                            : std::size_t{0}},
                         {"target_rows", target.size()},
                         {"target_weight", target_weight},
                         {"training_rows", data.num_rows()}});
  auto model = std::make_unique<ml::RandomForest>(params);
  model->fit(data);
  return model;
}

}  // namespace portatune::tuner
