// Tuning parameter space.
//
// The feasible set D of the paper: a Cartesian product of ordered discrete
// parameters (unroll factors, power-of-two tile sizes, binary flags, ...).
// A configuration x is stored as a vector of *value indices*; the feature
// encoding used by the surrogate model maps indices to the actual values
// (so e.g. cache tiles enter the model as 1..2048, not 0..11).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "support/rng.hpp"

namespace portatune::tuner {

/// A configuration: one value index per parameter.
using ParamConfig = std::vector<int>;

/// One tunable parameter with its ordered set of allowed values.
struct ParamDef {
  std::string name;
  std::vector<double> values;
};

/// Ordered integer values lo..hi inclusive.
std::vector<double> range_values(int lo, int hi);
/// Powers of two 2^lo_exp .. 2^hi_exp inclusive.
std::vector<double> pow2_values(int lo_exp, int hi_exp);
/// Binary flag {0, 1}.
std::vector<double> flag_values();

class ParamSpace {
 public:
  ParamSpace() = default;

  /// Append a parameter; returns its index.
  std::size_t add(std::string name, std::vector<double> values);

  std::size_t num_params() const noexcept { return params_.size(); }
  const ParamDef& param(std::size_t i) const { return params_.at(i); }
  const std::vector<ParamDef>& params() const noexcept { return params_; }

  /// |D| as a double (spaces here reach 1e12).
  double cardinality() const;

  /// Parameter names, in order (feature names for the surrogate).
  std::vector<std::string> names() const;

  /// The configuration with every parameter at its first value — by
  /// convention the untransformed default.
  ParamConfig default_config() const;

  /// Uniform random configuration.
  ParamConfig random_config(Rng& rng) const;

  /// Value of parameter `p` under configuration `c`.
  double value(const ParamConfig& c, std::size_t p) const;
  /// Value looked up by parameter name (throws if absent).
  double value(const ParamConfig& c, const std::string& name) const;
  /// Index of the named parameter (throws if absent).
  std::size_t index_of(const std::string& name) const;

  /// Feature vector (actual values) for the surrogate model.
  std::vector<double> features(const ParamConfig& c) const;
  /// features() written into `out` (num_params() slots), e.g. one row of
  /// a pool's feature matrix.
  void encode(const ParamConfig& c, std::span<double> out) const;

  /// Stable 64-bit hash of a configuration (noise keys, dedup sets).
  std::uint64_t config_hash(const ParamConfig& c) const;

  /// Throws portatune::Error unless `c` is well-formed for this space.
  void validate(const ParamConfig& c) const;

  /// All configurations reachable by stepping one parameter one index up
  /// or down (pattern-search / local-search neighborhood).
  std::vector<ParamConfig> neighbors(const ParamConfig& c) const;

  /// Human-readable "name=value, ..." rendering.
  std::string describe(const ParamConfig& c) const;

 private:
  std::vector<ParamDef> params_;
};

}  // namespace portatune::tuner
