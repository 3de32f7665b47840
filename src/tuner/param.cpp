#include "tuner/param.hpp"

#include <sstream>

#include "support/error.hpp"
#include "support/hash.hpp"

namespace portatune::tuner {

std::vector<double> range_values(int lo, int hi) {
  PT_REQUIRE(lo <= hi, "empty range");
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(hi - lo + 1));
  for (int i = lo; i <= hi; ++i) v.push_back(i);
  return v;
}

std::vector<double> pow2_values(int lo_exp, int hi_exp) {
  PT_REQUIRE(lo_exp <= hi_exp && lo_exp >= 0 && hi_exp < 63,
             "bad power-of-two range");
  std::vector<double> v;
  for (int e = lo_exp; e <= hi_exp; ++e)
    v.push_back(static_cast<double>(std::int64_t{1} << e));
  return v;
}

std::vector<double> flag_values() { return {0.0, 1.0}; }

std::size_t ParamSpace::add(std::string name, std::vector<double> values) {
  PT_REQUIRE(!values.empty(), "parameter needs at least one value");
  for (const auto& p : params_)
    PT_REQUIRE(p.name != name, "duplicate parameter name: " + name);
  params_.push_back({std::move(name), std::move(values)});
  return params_.size() - 1;
}

double ParamSpace::cardinality() const {
  double card = 1.0;
  for (const auto& p : params_)
    card *= static_cast<double>(p.values.size());
  return card;
}

std::vector<std::string> ParamSpace::names() const {
  std::vector<std::string> out;
  out.reserve(params_.size());
  for (const auto& p : params_) out.push_back(p.name);
  return out;
}

ParamConfig ParamSpace::default_config() const {
  return ParamConfig(params_.size(), 0);
}

ParamConfig ParamSpace::random_config(Rng& rng) const {
  ParamConfig c(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i)
    c[i] = static_cast<int>(rng.below(params_[i].values.size()));
  return c;
}

double ParamSpace::value(const ParamConfig& c, std::size_t p) const {
  validate(c);
  return params_[p].values[static_cast<std::size_t>(c[p])];
}

std::size_t ParamSpace::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < params_.size(); ++i)
    if (params_[i].name == name) return i;
  throw Error("unknown parameter: " + name);
}

double ParamSpace::value(const ParamConfig& c, const std::string& name) const {
  return value(c, index_of(name));
}

std::vector<double> ParamSpace::features(const ParamConfig& c) const {
  std::vector<double> f(params_.size());
  encode(c, f);
  return f;
}

void ParamSpace::encode(const ParamConfig& c, std::span<double> out) const {
  validate(c);
  PT_REQUIRE(out.size() == params_.size(), "feature buffer arity mismatch");
  for (std::size_t i = 0; i < params_.size(); ++i)
    out[i] = params_[i].values[static_cast<std::size_t>(c[i])];
}

std::uint64_t ParamSpace::config_hash(const ParamConfig& c) const {
  return hash_ints(c, 0x70617261ULL);
}

void ParamSpace::validate(const ParamConfig& c) const {
  PT_REQUIRE(c.size() == params_.size(), "configuration arity mismatch");
  for (std::size_t i = 0; i < c.size(); ++i)
    PT_REQUIRE(c[i] >= 0 && static_cast<std::size_t>(c[i]) <
                                params_[i].values.size(),
               "value index out of range for " + params_[i].name);
}

std::vector<ParamConfig> ParamSpace::neighbors(const ParamConfig& c) const {
  validate(c);
  std::vector<ParamConfig> out;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (c[i] > 0) {
      ParamConfig n = c;
      --n[i];
      out.push_back(std::move(n));
    }
    if (static_cast<std::size_t>(c[i]) + 1 < params_[i].values.size()) {
      ParamConfig n = c;
      ++n[i];
      out.push_back(std::move(n));
    }
  }
  return out;
}

std::string ParamSpace::describe(const ParamConfig& c) const {
  validate(c);
  std::ostringstream os;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (i) os << ", ";
    os << params_[i].name << "="
       << params_[i].values[static_cast<std::size_t>(c[i])];
  }
  return os.str();
}

}  // namespace portatune::tuner
