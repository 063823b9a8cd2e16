#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "support/threads.hpp"

namespace mpidetect {
namespace {

// ---------------------------------------------------------------- check
TEST(Check, PassingCheckDoesNotThrow) { EXPECT_NO_THROW(MPIDETECT_CHECK(1 + 1 == 2)); }

TEST(Check, FailingCheckThrowsContractViolation) {
  EXPECT_THROW(MPIDETECT_CHECK(false), ContractViolation);
}

TEST(Check, FailingExpectsMentionsExpression) {
  try {
    MPIDETECT_EXPECTS(2 < 1);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("2 < 1"), std::string::npos);
  }
}

// ------------------------------------------------------------------ rng
TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformIntCoversFullRangeInclusive) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(0, 3));
  EXPECT_EQ(seen, (std::set<std::int64_t>{0, 1, 2, 3}));
}

TEST(Rng, UniformIntRespectsNegativeBounds) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.uniform_int(-5, -2);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, -2);
  }
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(9, 9), 9);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(17);
  const int n = 20000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(29);
  Rng child = parent.fork();
  // Draw from the child; the parent stream must continue deterministically
  // compared against a reference that forked but never used the child.
  Rng parent2(29);
  Rng child2 = parent2.fork();
  (void)child2;
  for (int i = 0; i < 16; ++i) (void)child.next();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(parent.next(), parent2.next());
}

TEST(Rng, IndexRequiresPositiveSize) {
  Rng rng(1);
  EXPECT_THROW(rng.index(0), ContractViolation);
}

TEST(Rng, Fnv1aStableKnownValue) {
  // FNV-1a of empty string is the offset basis.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(fnv1a64("MPI_Send"), fnv1a64("MPI_Recv"));
}

TEST(Rng, Mix64AvalanchesSingleBit) {
  EXPECT_NE(mix64(1), mix64(2));
  EXPECT_NE(mix64(0), 0u);
}

// ------------------------------------------------------------------ str
TEST(Str, SplitPreservesEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Str, JoinRoundTripsSplit) {
  EXPECT_EQ(join(split("x;y;z", ';'), ";"), "x;y;z");
}

TEST(Str, TrimBothEnds) { EXPECT_EQ(trim("  hi\t\n"), "hi"); }

TEST(Str, TrimAllWhitespaceYieldsEmpty) { EXPECT_EQ(trim(" \t "), ""); }

TEST(Str, StartsEndsWith) {
  EXPECT_TRUE(starts_with("MPI_Send", "MPI_"));
  EXPECT_FALSE(starts_with("Send", "MPI_"));
  EXPECT_TRUE(ends_with("prog.c", ".c"));
  EXPECT_FALSE(ends_with(".c", "prog.c"));
}

TEST(Str, FmtDoublePrecision) {
  EXPECT_EQ(fmt_double(0.9174, 3), "0.917");
  EXPECT_EQ(fmt_double(1.0, 1), "1.0");
}

TEST(Str, FmtPercent) { EXPECT_EQ(fmt_percent(0.917, 1), "91.7%"); }

TEST(Str, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcde", 3), "abcde");  // never truncates
}

TEST(Str, ReplaceAll) {
  EXPECT_EQ(replace_all("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
}

// ---------------------------------------------------------------- table
TEST(Table, AlignsAndPrintsAllRows) {
  Table t({"Model", "Acc"});
  t.add_row({"IR2vec", "0.917"});
  t.add_separator();
  t.add_row({"GNN", "0.914"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("IR2vec"), std::string::npos);
  EXPECT_NE(s.find("GNN"), std::string::npos);
  EXPECT_NE(s.find("0.917"), std::string::npos);
  EXPECT_EQ(t.row_count(), 3u);
}

TEST(Table, ShortRowsArePadded) {
  Table t({"A", "B", "C"});
  t.add_row({"x"});
  std::ostringstream os;
  EXPECT_NO_THROW(t.print(os));
}

TEST(Table, OversizedRowRejected) {
  Table t({"A"});
  EXPECT_THROW(t.add_row({"x", "y"}), ContractViolation);
}

TEST(Table, CsvOutput) {
  Table t({"A", "B"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "A,B\n1,2\n");
}

// ---------------------------------------------------------------- stats
TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(stddev(xs), 2.138, 1e-3);
}

TEST(Stats, MeanOfEmptyIsZero) { EXPECT_EQ(mean({}), 0.0); }

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 2.5);
}

TEST(Stats, FiveNumberSummaryOrdering) {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);
  const auto s = five_number_summary(xs);
  EXPECT_LE(s.min, s.q1);
  EXPECT_LE(s.q1, s.median);
  EXPECT_LE(s.median, s.q3);
  EXPECT_LE(s.q3, s.max);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
}

TEST(Stats, HistogramCountsEverySample) {
  const std::vector<double> xs{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const auto h = histogram(xs, 5);
  std::size_t total = 0;
  for (const auto c : h) total += c;
  EXPECT_EQ(total, xs.size());
}

TEST(Stats, HistogramSingleValueGoesToOneBin) {
  const std::vector<double> xs{3, 3, 3};
  const auto h = histogram(xs, 4);
  EXPECT_EQ(h[0], 3u);
}

TEST(Stats, SparklineNonEmpty) {
  const std::vector<double> xs{1, 2, 2, 3, 3, 3};
  EXPECT_FALSE(sparkline(xs, 8).empty());
}

// -------------------------------------------------------------- threads
TEST(Threads, ResolveCapsAtTheProbe) {
  const unsigned hw = hardware_probe();
  EXPECT_GE(hw, 1u);
  EXPECT_EQ(resolve_threads(0), hw);
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(hw + 7), hw);
}

#if defined(__linux__)
TEST(Threads, ProbeHonorsTheAffinityMask) {
  // The "threadsafe" style re-executes this binary for the child, so the
  // child pins itself before its first (cached) probe.
  const std::string style = ::testing::GTEST_FLAG(death_test_style);
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) != 0) std::_Exit(2);
        int cpu = 0;
        while (!CPU_ISSET(cpu, &set)) ++cpu;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        if (sched_setaffinity(0, sizeof(one), &one) != 0) std::_Exit(2);
        std::_Exit(hardware_probe() == 1 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  ::testing::GTEST_FLAG(death_test_style) = style;
}
#endif

TEST(Threads, AlternatingJobsRunEveryIndexExactlyOnce) {
  // Short jobs right after long ones are where a worker that wakes late
  // would run a finished job's closure over the next job's indices.
  std::array<std::atomic<int>, 64> hits{};
  std::atomic<std::size_t> out_of_range{0};
  std::size_t bad_jobs = 0;
  for (int job = 0; job < 100000; ++job) {
    const std::size_t n = job % 2 == 0 ? 64 : 3;
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    parallel_for(n, 4, [&](std::size_t i) {
      if (i >= n) {
        out_of_range.fetch_add(1);
        return;
      }
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      if (hits[i].load() != (i < n ? 1 : 0)) {
        ++bad_jobs;
        break;
      }
    }
  }
  EXPECT_EQ(out_of_range.load(), 0u);
  EXPECT_EQ(bad_jobs, 0u);
}

TEST(Threads, WidthCapsTheParticipants) {
  std::mutex mu;
  std::set<std::thread::id> ids;
  parallel_for(4096, 2, [&](std::size_t) {
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_LE(ids.size(), 2u);
}

TEST(Threads, NestedCallRunsInline) {
  std::atomic<std::size_t> foreign{0};
  std::atomic<std::size_t> out_of_order{0};
  parallel_for(8, 0, [&](std::size_t) {
    const auto self = std::this_thread::get_id();
    std::vector<std::size_t> order;
    parallel_for(16, 0, [&](std::size_t j) {
      if (std::this_thread::get_id() != self) foreign.fetch_add(1);
      order.push_back(j);
    });
    for (std::size_t j = 0; j < order.size(); ++j) {
      if (order[j] != j) out_of_order.fetch_add(1);
    }
    if (order.size() != 16) out_of_order.fetch_add(1);
  });
  EXPECT_EQ(foreign.load(), 0u);
  EXPECT_EQ(out_of_order.load(), 0u);
}

TEST(Threads, ConcurrentTopLevelCallersBothFinish) {
  constexpr std::size_t kN = 4096;
  constexpr int kRounds = 200;
  std::vector<std::atomic<int>> a(kN), b(kN);
  const auto rounds = [&](std::vector<std::atomic<int>>& hits) {
    for (int r = 0; r < kRounds; ++r) {
      parallel_for(kN, 0, [&](std::size_t i) { hits[i].fetch_add(1); });
    }
  };
  std::thread other([&] { rounds(a); });
  rounds(b);
  other.join();
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(a[i].load(), kRounds) << "index " << i;
    ASSERT_EQ(b[i].load(), kRounds) << "index " << i;
  }
}

TEST(Threads, FirstExceptionReachesTheCaller) {
  EXPECT_THROW(parallel_for(1000, 0,
                            [](std::size_t i) {
                              if (i == 500) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  // The pool is released and keeps working afterwards.
  std::atomic<std::size_t> sum{0};
  parallel_for(100, 0, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950u);
}

}  // namespace
}  // namespace mpidetect
