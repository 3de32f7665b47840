#include "support/cancellation.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace portatune {
namespace {

TEST(Cancellation, DefaultTokenIsInertButSleeps) {
  CancellationToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.cancelled());
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(token.wait_for(0.02));  // degrades to a plain sleep
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(waited, 0.02);
}

TEST(Cancellation, TokenObservesItsSource) {
  CancellationSource source;
  const CancellationToken token = source.token();
  EXPECT_TRUE(token.valid());
  EXPECT_FALSE(token.cancelled());
  source.request_cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(source.cancel_requested());
  // Idempotent.
  source.request_cancel();
  EXPECT_TRUE(token.cancelled());
}

TEST(Cancellation, WaitForWakesImmediatelyOnCancel) {
  CancellationSource source;
  const CancellationToken token = source.token();
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    source.request_cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(token.wait_for(30.0));  // returns long before 30 s
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(waited, 5.0);
  canceller.join();
}

TEST(Cancellation, WaitForOnAlreadyCancelledReturnsAtOnce) {
  CancellationSource source;
  source.request_cancel();
  EXPECT_TRUE(source.token().wait_for(30.0));
}

TEST(Cancellation, ScopeInstallsAndRestoresAmbientToken) {
  EXPECT_FALSE(current_cancellation_token().valid());
  CancellationSource source;
  {
    CancellationScope scope(source.token());
    EXPECT_TRUE(current_cancellation_token().valid());
    source.request_cancel();
    EXPECT_TRUE(current_cancellation_token().cancelled());
    {
      CancellationScope inner(CancellationToken{});  // nested override
      EXPECT_FALSE(current_cancellation_token().valid());
    }
    EXPECT_TRUE(current_cancellation_token().cancelled());
  }
  EXPECT_FALSE(current_cancellation_token().valid());
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(Cancellation, DeadlineWakesWaitFor) {
  // Nothing cancels the domain: the token's own deadline ends the wait.
  CancellationSource source;
  const auto start = std::chrono::steady_clock::now();
  const CancellationToken token = source.token().with_deadline(
      start + std::chrono::milliseconds(20));
  EXPECT_TRUE(token.wait_for(30.0));
  EXPECT_GE(seconds_since(start), 0.02);
  EXPECT_LT(seconds_since(start), 5.0);
  EXPECT_TRUE(token.cancelled());
  EXPECT_FALSE(source.cancel_requested());  // the domain is untouched
  EXPECT_FALSE(source.token().cancelled());
}

TEST(Cancellation, DomainCancelBeatsALongDeadline) {
  CancellationSource source;
  const CancellationToken token = source.token().with_deadline(
      std::chrono::steady_clock::now() + std::chrono::seconds(30));
  EXPECT_FALSE(token.cancelled());
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    source.request_cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(token.wait_for(60.0));
  EXPECT_LT(seconds_since(start), 5.0);
  canceller.join();
}

TEST(Cancellation, DeadlineWithoutADomainSleepsToTheEarlierBound) {
  const auto start = std::chrono::steady_clock::now();
  const CancellationToken soon =
      CancellationToken{}.with_deadline(start + std::chrono::milliseconds(20));
  EXPECT_TRUE(soon.valid());
  EXPECT_TRUE(soon.wait_for(30.0));  // the deadline comes first
  EXPECT_GE(seconds_since(start), 0.02);
  EXPECT_LT(seconds_since(start), 5.0);

  const auto later = std::chrono::steady_clock::now();
  const CancellationToken far =
      CancellationToken{}.with_deadline(later + std::chrono::seconds(30));
  EXPECT_FALSE(far.wait_for(0.02));  // the duration comes first
  EXPECT_GE(seconds_since(later), 0.02);
  EXPECT_FALSE(far.cancelled());
}

}  // namespace
}  // namespace portatune
