// string utilities and the thread pool (incl. partial-aggregate-style
// parallel reductions and reentrancy).
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/string_util.h"
#include "common/thread_pool.h"

namespace gola {
namespace {

TEST(StringUtilTest, CaseConversion) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_EQ(ToUpper("abc1"), "ABC1");
}

TEST(StringUtilTest, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x y \t\n"), "x y");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("abc"), "abc");
}

TEST(StringUtilTest, Format) {
  EXPECT_EQ(Format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(Format("%.2f", 1.005), "1.00");
}

TEST(StringUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_FALSE(EqualsIgnoreCase("SELECT", "selec"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "b"));
}

TEST(StringUtilTest, JsonEscapeCoversEveryControlByte) {
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("\n\r\t"), "\\n\\r\\t");
  EXPECT_EQ(JsonEscape("us\x01"), "us\\u0001");
  for (int c = 0; c < 0x20; ++c) {
    const std::string escaped = JsonEscape(std::string(1, static_cast<char>(c)));
    EXPECT_EQ(escaped[0], '\\') << "byte " << c;
    for (char e : escaped) EXPECT_GE(static_cast<unsigned char>(e), 0x20) << c;
  }
  EXPECT_EQ(JsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");  // UTF-8 passes through
}

TEST(StringUtilTest, JsonNumberHasNoInfOrNan) {
  EXPECT_EQ(JsonNumber(0.25), "0.25");
  EXPECT_EQ(JsonNumber(1.0 / 3, 3), "0.333");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(ThreadPoolTest, ParallelForRunsEveryIteration) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(100, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelReductionMatchesSequential) {
  ThreadPool pool(4);
  const size_t kParts = 64;
  std::vector<double> partials(kParts, 0.0);
  pool.ParallelFor(kParts, [&](size_t p) {
    double sum = 0;
    for (size_t i = p * 1000; i < (p + 1) * 1000; ++i) sum += static_cast<double>(i);
    partials[p] = sum;
  });
  double total = 0;
  for (double v : partials) total += v;
  double n = kParts * 1000;
  EXPECT_DOUBLE_EQ(total, n * (n - 1) / 2);
}

TEST(ThreadPoolTest, ReentrantCallsRunInline) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.ParallelFor(4, [&](size_t) {
    // Nested use from a worker must not deadlock.
    pool.ParallelFor(4, [&](size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPoolTest, WorkerExceptionRethrownOnCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(64,
                       [&](size_t i) {
                         if (i == 13) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool must stay usable after a failed ParallelFor.
  std::atomic<int> count{0};
  pool.ParallelFor(32, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPoolTest, WorkerExceptionAbandonsRemainingIterations) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.ParallelFor(100000,
                                [&](size_t) {
                                  ran.fetch_add(1);
                                  throw std::runtime_error("first");
                                }),
               std::runtime_error);
  // Cancellation is best-effort but must kick in well before the end.
  EXPECT_LT(ran.load(), 100000);
}

TEST(ThreadPoolTest, InlinePathPropagatesException) {
  ThreadPool pool(2);
  // n == 1 runs inline on the caller; the exception must still surface.
  EXPECT_THROW(
      pool.ParallelFor(1, [](size_t) { throw std::runtime_error("inline"); }),
      std::runtime_error);
}

TEST(ThreadPoolTest, ZeroAndOneIterations) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL(); });
  int runs = 0;
  pool.ParallelFor(1, [&](size_t) { ++runs; });
  EXPECT_EQ(runs, 1);
}

}  // namespace
}  // namespace gola
