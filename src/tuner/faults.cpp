#include "tuner/faults.hpp"

#include <chrono>
#include <thread>

#include "support/cancellation.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/signal.hpp"

namespace portatune::tuner {

namespace {

// Distinct salts keep the fault channels statistically independent even
// though they share the (seed, config, attempt) key.
constexpr std::uint64_t kDeterministicSalt = 0xdead0001u;
constexpr std::uint64_t kTransientSalt = 0xdead0002u;
constexpr std::uint64_t kDelaySalt = 0xdead0003u;
constexpr std::uint64_t kSpikeSalt = 0xdead0004u;
constexpr std::uint64_t kHangSalt = 0xdead0005u;

double channel_unit(std::uint64_t seed, std::uint64_t salt,
                    std::uint64_t config_hash, std::uint64_t attempt) {
  std::uint64_t h = mix64(seed ^ salt);
  h = hash_combine(h, config_hash);
  h = hash_combine(h, attempt);
  return hash_to_unit(h);
}

void check_rate(double rate, const char* name) {
  PT_REQUIRE(rate >= 0.0 && rate <= 1.0,
             std::string(name) + " rate must lie in [0, 1]");
}

}  // namespace

FaultProfile parse_fault_spec(const std::string& spec, FaultProfile base) {
  PT_REQUIRE(!spec.empty(), "empty fault spec");
  FaultProfile p = base;
  // Historic spelling: a bare number is the transient rate.
  if (spec.find(':') == std::string::npos) {
    try {
      p.transient_rate = std::stod(spec);
    } catch (const std::exception&) {
      throw Error("bad fault spec: " + spec);
    }
    return p;
  }
  std::size_t start = 0;
  while (start <= spec.size()) {
    const auto comma = spec.find(',', start);
    const std::string item = spec.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    start = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    if (item.empty()) continue;
    const auto colon = item.find(':');
    PT_REQUIRE(colon != std::string::npos,
               "fault spec entry '" + item + "' is missing a ':'");
    const std::string key = item.substr(0, colon);
    const std::string value = item.substr(colon + 1);
    double v = 0.0;
    try {
      v = std::stod(value);
    } catch (const std::exception&) {
      throw Error("bad value in fault spec entry '" + item + "'");
    }
    if (key == "transient") p.transient_rate = v;
    else if (key == "deterministic" || key == "det") p.deterministic_rate = v;
    else if (key == "hang") p.hang_rate = v;
    else if (key == "hang-stall") p.hang_stall_seconds = v;
    else if (key == "delay") p.delay_rate = v;
    else if (key == "delay-seconds") p.delay_seconds = v;
    else if (key == "spike") p.spike_rate = v;
    else if (key == "spike-factor") p.spike_factor = v;
    else if (key == "seed") p.seed = static_cast<std::uint64_t>(v);
    else throw Error("unknown fault spec key: " + key);
  }
  return p;
}

FaultInjectingEvaluator::FaultInjectingEvaluator(Evaluator& inner,
                                                 FaultProfile profile)
    : inner_(inner), profile_(profile) {
  check_rate(profile_.transient_rate, "transient");
  check_rate(profile_.deterministic_rate, "deterministic");
  check_rate(profile_.hang_rate, "hang");
  check_rate(profile_.delay_rate, "delay");
  check_rate(profile_.spike_rate, "spike");
  PT_REQUIRE(profile_.spike_factor >= 1.0, "spike factor must be >= 1");
  PT_REQUIRE(profile_.hang_stall_seconds >= 0.0,
             "hang stall must be >= 0 seconds");
}

bool FaultInjectingEvaluator::is_deterministically_failing(
    const ParamConfig& config) const {
  const auto h = inner_.space().config_hash(config);
  return channel_unit(profile_.seed, kDeterministicSalt, h, 0) <
         profile_.deterministic_rate;
}

EvalResult FaultInjectingEvaluator::evaluate(const ParamConfig& config) {
  const std::uint64_t h = inner_.space().config_hash(config);

  // Deterministic channel: a function of the configuration only — the
  // same config fails on every attempt, in every run, forever.
  if (is_deterministically_failing(config)) {
    std::lock_guard lock(mutex_);
    ++stats_.calls;
    ++stats_.deterministic_injected;
    return EvalResult::failure("injected deterministic failure");
  }

  std::uint64_t attempt = 0;
  bool hang = false, delay = false, transient = false;
  {
    std::lock_guard lock(mutex_);
    ++stats_.calls;
    attempt = attempt_counts_[h]++;
    hang = channel_unit(profile_.seed, kHangSalt, h, attempt) <
           profile_.hang_rate;
    delay = channel_unit(profile_.seed, kDelaySalt, h, attempt) <
            profile_.delay_rate;
    transient = channel_unit(profile_.seed, kTransientSalt, h, attempt) <
                profile_.transient_rate;
    if (hang) ++stats_.hangs_injected;
    else if (delay) ++stats_.delays_injected;
    if (!hang && transient) ++stats_.transient_injected;
  }

  // Hang channel: the attempt is stuck. Park on the ambient cancellation
  // token (the attempt's deadline), or on the shutdown token when none is
  // installed, so a stuck evaluation never blocks a graceful shutdown;
  // otherwise the full stall elapses. Return a Timeout failure either
  // way: the *result* is a pure function of the fault schedule, only the
  // wall-clock cost depends on which wake (if any) ended it, so serial,
  // parallel, deadline-woken and resumed traces all record the same
  // thing. The stall happens outside the lock so one hung attempt stalls
  // one thread, not the whole window.
  if (hang) {
    CancellationToken token = current_cancellation_token();
    if (!token.valid()) token = shutdown_token();
    token.wait_for(profile_.hang_stall_seconds);
    return EvalResult::failure(
        "injected hang (attempt " + std::to_string(attempt) + ")",
        FailureKind::Timeout);
  }

  // Delay channel: slow motion. Sleep, then evaluate normally.
  if (delay)
    std::this_thread::sleep_for(
        std::chrono::duration<double>(profile_.delay_seconds));

  // Transient channel: fails this attempt; a retry draws a fresh value.
  if (transient)
    return EvalResult::transient_failure(
        "injected transient failure (attempt " + std::to_string(attempt) +
        ")");

  EvalResult r = inner_.evaluate(config);

  // Spike channel: the run "succeeds" but the measurement is an outlier.
  if (r.ok && channel_unit(profile_.seed, kSpikeSalt, h, attempt) <
                  profile_.spike_rate) {
    {
      std::lock_guard lock(mutex_);
      ++stats_.spikes_injected;
    }
    r.seconds *= profile_.spike_factor;
  }
  return r;
}

}  // namespace portatune::tuner
