// portatune_chaosproxy — standalone socket-level fault injector.
//
// Sits between protocol clients and a `portatune_cli serve` daemon,
// injecting the transport failures the exactly-once protocol must
// survive (service/chaos_proxy.hpp): delayed replies, torn replies,
// mid-reply hangups, and blackholed requests. Faults are seeded, so a
// run is replayable.
//
//   portatune_cli serve --socket /tmp/pt.sock --data-dir svc &
//   portatune_chaosproxy --listen /tmp/pt.chaos --upstream /tmp/pt.sock
//       --seed 42 --tear-rate 0.08 --hangup-rate 0.05
//       --blackhole-rate 0.03 --delay-rate 0.1 --delay-seconds 0.02 &
//   portatune_loadgen --socket /tmp/pt.chaos ...
//
// (three commands; the indented lines continue the one above them)
//
// Runs until SIGTERM/SIGINT, then prints the fault tally and exits 0.
// (`portatune_loadgen --chaos` forks one of these in-process instead —
// this tool exists for driving chaos by hand or from shell tests.)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "service/chaos_proxy.hpp"
#include "support/error.hpp"
#include "support/signal.hpp"

namespace {

void usage() {
  std::printf(
      "usage: portatune_chaosproxy --listen <socket> --upstream <socket>\n"
      "                            [--seed N]\n"
      "                            [--delay-rate R] [--delay-seconds S]\n"
      "                            [--tear-rate R] [--hangup-rate R]\n"
      "                            [--blackhole-rate R]\n"
      "                            [--blackhole-hold-seconds S]\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace portatune;
  std::string listen, upstream;
  service::ChaosProxyOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return 1;
    }
    const std::string value = argv[++i];
    if (arg == "--listen") listen = value;
    else if (arg == "--upstream") upstream = value;
    else if (arg == "--seed") opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (arg == "--delay-rate") opt.delay_rate = std::atof(value.c_str());
    else if (arg == "--delay-seconds") opt.delay_seconds = std::atof(value.c_str());
    else if (arg == "--tear-rate") opt.tear_rate = std::atof(value.c_str());
    else if (arg == "--hangup-rate") opt.hangup_rate = std::atof(value.c_str());
    else if (arg == "--blackhole-rate") opt.blackhole_rate = std::atof(value.c_str());
    else if (arg == "--blackhole-hold-seconds")
      opt.blackhole_hold_seconds = std::atof(value.c_str());
    else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      usage();
      return 1;
    }
  }
  if (listen.empty() || upstream.empty()) {
    usage();
    return 1;
  }
  try {
    install_shutdown_signal_handler();
    service::ChaosProxy proxy(listen, upstream, opt);
    std::printf("chaosproxy: %s -> %s (seed %llu)\n", listen.c_str(),
                upstream.c_str(),
                static_cast<unsigned long long>(opt.seed));
    std::fflush(stdout);
    proxy.run(shutdown_token());
    const service::ChaosStats s = proxy.stats();
    std::printf(
        "chaosproxy: %llu connections, %llu requests forwarded, "
        "%llu delays, %llu tears, %llu hangups, %llu blackholes\n",
        static_cast<unsigned long long>(s.connections),
        static_cast<unsigned long long>(s.requests),
        static_cast<unsigned long long>(s.delays),
        static_cast<unsigned long long>(s.tears),
        static_cast<unsigned long long>(s.hangups),
        static_cast<unsigned long long>(s.blackholes));
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "chaosproxy: %s\n", e.what());
    return 1;
  }
}
