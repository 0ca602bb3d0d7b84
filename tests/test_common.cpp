// Unit tests for common utilities: strings, ids, logging, statistics
// and random distributions.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ripple/common/error.hpp"
#include "ripple/common/ids.hpp"
#include "ripple/common/json.hpp"
#include "ripple/common/logging.hpp"
#include "ripple/common/random.hpp"
#include "ripple/common/statistics.hpp"
#include "ripple/common/strutil.hpp"

namespace {

using namespace ripple;
using common::Distribution;
using common::Rng;

// ---------------------------------------------------------------------------
// strutil
// ---------------------------------------------------------------------------

TEST(Strutil, SplitKeepsEmptyFields) {
  EXPECT_EQ(strutil::split("a.b..c", '.'),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(strutil::split("", '.'), (std::vector<std::string>{""}));
  EXPECT_EQ(strutil::split("one", '.'), (std::vector<std::string>{"one"}));
}

TEST(Strutil, JoinInvertsSplit) {
  const std::vector<std::string> parts{"a", "b", "c"};
  EXPECT_EQ(strutil::join(parts, "."), "a.b.c");
  EXPECT_EQ(strutil::split(strutil::join(parts, ","), ','), parts);
  EXPECT_EQ(strutil::join({}, "."), "");
}

TEST(Strutil, Trim) {
  EXPECT_EQ(strutil::trim("  a b  "), "a b");
  EXPECT_EQ(strutil::trim("\t\n x \r"), "x");
  EXPECT_EQ(strutil::trim("   "), "");
  EXPECT_EQ(strutil::trim(""), "");
}

TEST(Strutil, StartsEndsWith) {
  EXPECT_TRUE(strutil::starts_with("task.000001", "task."));
  EXPECT_FALSE(strutil::starts_with("task", "task."));
  EXPECT_TRUE(strutil::ends_with("file.csv", ".csv"));
  EXPECT_FALSE(strutil::ends_with("csv", ".csv"));
}

TEST(Strutil, Padding) {
  EXPECT_EQ(strutil::pad_left("ab", 5), "   ab");
  EXPECT_EQ(strutil::pad_right("ab", 5), "ab   ");
  EXPECT_EQ(strutil::pad_left("abcdef", 3), "abcdef");
  EXPECT_EQ(strutil::zero_pad(42, 6), "000042");
}

/// zero_pad's stream rendering, which it reproduces byte for byte.
std::string streamed_zero_pad(std::uint64_t value, int width) {
  std::ostringstream os;
  os << std::setw(width) << std::setfill('0') << value;
  return os.str();
}

TEST(Strutil, ZeroPadMatchesTheStreamRendering) {
  // Every digit count from 1 to 20, at and around each power of ten.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::uint64_t> values{0, kMax};
  for (std::uint64_t power = 1;; power *= 10) {
    values.insert(values.end(), {power - 1, power, power + 1});
    if (power > kMax / 10) break;
  }
  for (const int width : {4, 6}) {
    for (const std::uint64_t value : values) {
      EXPECT_EQ(strutil::zero_pad(value, width),
                streamed_zero_pad(value, width))
          << value << " at width " << width;
    }
  }
}

/// format_fixed's stream rendering, which it reproduces byte for byte.
std::string streamed_fixed(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

TEST(Strutil, FormatFixedMatchesTheStreamRendering) {
  using limits = std::numeric_limits<double>;
  const double specials[] = {0.0,           -0.0,
                             0.5,           1.5,
                             2.5,           -2.5,
                             0.125,         0.375,
                             1e-7,          -1e-7,
                             0.05,          2.675,
                             123456789.875, 1e15,
                             1e22,          1e300,
                             limits::max(), -limits::max(),
                             limits::min(), limits::denorm_min(),
                             limits::infinity(), -limits::infinity(),
                             limits::quiet_NaN(), -limits::quiet_NaN()};
  for (int precision = 0; precision <= 6; ++precision) {
    for (const double value : specials) {
      EXPECT_EQ(strutil::format_fixed(value, precision),
                streamed_fixed(value, precision))
          << value << " at precision " << precision;
    }
  }
  // Seeded sweep: random magnitudes and signs, and exact binary
  // fractions k / 2^e, whose decimal expansions end in 5 and so land on
  // rounding ties at some precision.
  Rng rng(29);
  for (int i = 0; i < 5000; ++i) {
    const double scale = std::pow(10.0, rng.uniform_int(-8, 12));
    const double random = rng.uniform(-1.0, 1.0) * scale;
    const double tie =
        static_cast<double>(rng.uniform_int(-100000, 100000)) /
        std::ldexp(1.0, static_cast<int>(rng.uniform_int(1, 12)));
    for (int precision = 0; precision <= 6; ++precision) {
      ASSERT_EQ(strutil::format_fixed(random, precision),
                streamed_fixed(random, precision))
          << random << " at precision " << precision;
      ASSERT_EQ(strutil::format_fixed(tie, precision),
                streamed_fixed(tie, precision))
          << tie << " at precision " << precision;
    }
  }
}

/// A message part that counts how often it is streamed.
struct CountedPart {
  int* streamed = nullptr;

  friend std::ostream& operator<<(std::ostream& os, const CountedPart& part) {
    ++*part.streamed;
    return os << "<part>";
  }
};

/// cat's stream rendering, which it reproduces byte for byte.
template <typename... Parts>
std::string streamed_cat(const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

TEST(Strutil, CatMatchesTheStreamRendering) {
  // Every argument kind src/ passes: text, characters, flags, the
  // integer widths at their limits and doubles at the %g edges.
  const std::string text = "node-7";
  const std::string_view view = "zone";
  const char* pointer = "delta";
  EXPECT_EQ(strutil::cat(), "");
  EXPECT_EQ(strutil::cat(text, view, pointer, "lit", ' ', 'x', true, false),
            streamed_cat(text, view, pointer, "lit", ' ', 'x', true, false));
  EXPECT_EQ(strutil::cat(std::string("tmp"), '\0', ""),
            streamed_cat(std::string("tmp"), '\0', ""));

  using int_limits = std::numeric_limits<int>;
  using size_limits = std::numeric_limits<std::size_t>;
  using u64_limits = std::numeric_limits<std::uint64_t>;
  using i64_limits = std::numeric_limits<std::int64_t>;
  EXPECT_EQ(strutil::cat(0, -1, 42, int_limits::min(), int_limits::max()),
            streamed_cat(0, -1, 42, int_limits::min(), int_limits::max()));
  EXPECT_EQ(strutil::cat(size_limits::min(), ",", size_limits::max()),
            streamed_cat(size_limits::min(), ",", size_limits::max()));
  EXPECT_EQ(strutil::cat(u64_limits::max(), " ", i64_limits::min()),
            streamed_cat(u64_limits::max(), " ", i64_limits::min()));

  using limits = std::numeric_limits<double>;
  const double doubles[] = {0.0,           -0.0,
                            1.0,           -1.5,
                            0.1,           1.0 / 3.0,
                            1e-05,         1e-04,
                            0.0001234567,  123456.0,
                            999999.5,      1234567.0,
                            1e21,          -1e21,
                            1e300,         limits::max(),
                            limits::min(), limits::denorm_min(),
                            limits::infinity(), -limits::infinity(),
                            limits::quiet_NaN(), -limits::quiet_NaN()};
  for (const double value : doubles) {
    EXPECT_EQ(strutil::cat(value), streamed_cat(value)) << value;
    EXPECT_EQ(strutil::cat("t=", value, "s"), streamed_cat("t=", value, "s"));
    const auto narrow = static_cast<float>(value);
    EXPECT_EQ(strutil::cat(narrow), streamed_cat(narrow)) << narrow;
  }
  // Seeded sweep over magnitudes and signs, doubles and integers.
  Rng rng(31);
  for (int i = 0; i < 5000; ++i) {
    const double value = rng.uniform(-1.0, 1.0) *
                         std::pow(10.0, rng.uniform_int(-12, 24));
    const auto count = static_cast<std::size_t>(rng.uniform_int(0, 1 << 30));
    ASSERT_EQ(strutil::cat(value, " ", count, ' ', -value),
              streamed_cat(value, " ", count, ' ', -value));
  }
  // The shape of an event-log line, and a part that only streams.
  int streamed = 0;
  const CountedPart part{&streamed};
  EXPECT_EQ(strutil::cat(strutil::format_fixed(12.5, 3), " release ", text),
            "12.500 release node-7");
  EXPECT_EQ(strutil::cat("a", part, 7, part),
            streamed_cat("a", CountedPart{&streamed}, 7,
                         CountedPart{&streamed}));
  EXPECT_EQ(streamed, 4);
}

TEST(Strutil, FormatDurationAdaptiveUnits) {
  EXPECT_EQ(strutil::format_duration(2.5e-9), "2.5 ns");
  EXPECT_EQ(strutil::format_duration(63e-6), "63.0 us");
  EXPECT_EQ(strutil::format_duration(0.47e-3), "470.0 us");
  EXPECT_EQ(strutil::format_duration(4.7e-3), "4.70 ms");
  EXPECT_EQ(strutil::format_duration(32.0), "32.00 s");
  EXPECT_EQ(strutil::format_duration(600.0), "10.0 min");
  EXPECT_EQ(strutil::format_duration(7200.0), "2.00 h");
}

TEST(Strutil, FormatBytes) {
  EXPECT_EQ(strutil::format_bytes(512), "512 B");
  EXPECT_EQ(strutil::format_bytes(2048), "2.0 KiB");
  EXPECT_EQ(strutil::format_bytes(1.6e12), "1.5 TiB");
}

// ---------------------------------------------------------------------------
// error
// ---------------------------------------------------------------------------

TEST(ErrorHandling, CodeAndMessage) {
  try {
    raise(Errc::not_found, "thing is missing");
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::not_found);
    EXPECT_NE(std::string(e.what()).find("not_found"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("thing is missing"),
              std::string::npos);
  }
}

TEST(ErrorHandling, EnsurePassesAndThrows) {
  EXPECT_NO_THROW(ensure(true, Errc::internal, "fine"));
  EXPECT_THROW(ensure(false, Errc::capacity, "nope"), Error);
}

TEST(ErrorHandling, EnsureFormatsPartsOnlyWhenTheCheckFails) {
  int streamed = 0;
  const CountedPart part{&streamed};
  EXPECT_NO_THROW(ensure(true, Errc::internal, "node ", 3, ": ", part));
  EXPECT_EQ(streamed, 0);
  try {
    ensure(false, Errc::capacity, "request ", 8, "c/", 1.5, "GB ", part,
           " on pilot '", std::string("p0"), "'");
    FAIL() << "expected a throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::capacity);
    EXPECT_STREQ(e.what(), "capacity: request 8c/1.5GB <part> on pilot 'p0'");
  }
  EXPECT_EQ(streamed, 1);
}

// ---------------------------------------------------------------------------
// ids
// ---------------------------------------------------------------------------

TEST(Ids, NextMatchesTheStreamRenderingPastThePad) {
  common::IdGenerator gen;
  for (std::uint64_t n = 0; n < 1'000'000; ++n) {
    const std::string uid = gen.next("msg");
    if (n % 1000 == 0 || n >= 999'990) {
      ASSERT_EQ(uid, "msg." + streamed_zero_pad(n, 6));
    }
  }
  EXPECT_EQ(gen.next("msg"), "msg.1000000");
  EXPECT_EQ(gen.count("msg"), 1'000'001u);
  // A prefix too long for the small-string buffer.
  EXPECT_EQ(gen.next("pipeline.stage.replica"),
            "pipeline.stage.replica.000000");
}

TEST(Ids, MonotonicPerPrefix) {
  common::IdGenerator gen;
  EXPECT_EQ(gen.next("task"), "task.000000");
  EXPECT_EQ(gen.next("task"), "task.000001");
  EXPECT_EQ(gen.next("svc"), "svc.000000");
  EXPECT_EQ(gen.count("task"), 2u);
  gen.reset();
  EXPECT_EQ(gen.next("task"), "task.000000");
}

// ---------------------------------------------------------------------------
// logging
// ---------------------------------------------------------------------------

TEST(Logging, MemorySinkCapturesAboveThreshold) {
  auto sink = std::make_shared<common::MemorySink>();
  common::LogConfig::global().set_sink(sink);
  common::LogConfig::global().set_level(common::LogLevel::info);

  common::Logger log("test", [] { return 12.5; });
  log.debug("hidden");
  log.info("visible");
  log.error("loud");

  EXPECT_EQ(sink->count(common::LogLevel::debug), 0u);
  EXPECT_EQ(sink->count(common::LogLevel::info), 1u);
  EXPECT_EQ(sink->count(common::LogLevel::error), 1u);
  EXPECT_DOUBLE_EQ(sink->records().front().time, 12.5);
  EXPECT_EQ(sink->records().front().logger, "test");

  common::LogConfig::global().set_sink(nullptr);
  common::LogConfig::global().set_level(common::LogLevel::warn);
}

TEST(Logging, PartsFormattedOnlyAtOrAboveThreshold) {
  auto sink = std::make_shared<common::MemorySink>();
  common::LogConfig::global().set_sink(sink);
  common::LogConfig::global().set_level(common::LogLevel::warn);
  int streamed = 0;
  const CountedPart part{&streamed};

  common::Logger log("test");
  log.info("dropped ", part);
  EXPECT_EQ(streamed, 0);
  log.warn("kept ", part, " x", 2);
  EXPECT_EQ(streamed, 1);
  ASSERT_EQ(sink->records().size(), 1u);
  EXPECT_EQ(sink->records().front().message, "kept <part> x2");

  common::LogConfig::global().set_sink(nullptr);
}

TEST(Logging, JsonLinesSinkEmitsParsableRecords) {
  auto sink = std::make_shared<common::JsonLinesSink>();
  common::LogConfig::global().set_sink(sink);
  common::LogConfig::global().set_level(common::LogLevel::info);

  common::Logger log("tracer", [] { return 3.75; });
  log.info("span opened");
  log.warn(R"(quotes " and \ backslashes survive)");

  const auto lines = sink->lines();
  ASSERT_EQ(lines.size(), 2u);
  ASSERT_EQ(sink->size(), 2u);
  const auto first = json::Value::parse(lines[0]);
  EXPECT_DOUBLE_EQ(first.at("time").as_double(), 3.75);
  EXPECT_EQ(first.at("level").as_string(), "INFO");
  EXPECT_EQ(first.at("logger").as_string(), "tracer");
  EXPECT_EQ(first.at("message").as_string(), "span opened");
  // Every line must round-trip: escaping is the whole point of the
  // JSON-lines format.
  const auto second = json::Value::parse(lines[1]);
  EXPECT_EQ(second.at("message").as_string(),
            R"(quotes " and \ backslashes survive)");
  sink->clear();
  EXPECT_EQ(sink->size(), 0u);

  common::LogConfig::global().set_sink(nullptr);
  common::LogConfig::global().set_level(common::LogLevel::warn);
}

// ---------------------------------------------------------------------------
// statistics
// ---------------------------------------------------------------------------

TEST(OnlineStats, WelfordMatchesClosedForm) {
  common::OnlineStats stats;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.add(x);
  }
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(OnlineStats, MergeEqualsSequential) {
  common::OnlineStats a;
  common::OnlineStats b;
  common::OnlineStats both;
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(3.0, 2.0);
    (i % 2 == 0 ? a : b).add(x);
    both.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_NEAR(a.mean(), both.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), both.variance(), 1e-9);
}

TEST(Summary, QuantilesInterpolate) {
  common::Summary summary;
  for (int i = 1; i <= 100; ++i) summary.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(summary.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(summary.quantile(1.0), 100.0);
  EXPECT_NEAR(summary.median(), 50.5, 1e-9);
  EXPECT_NEAR(summary.p95(), 95.05, 1e-9);
  EXPECT_THROW((void)summary.quantile(1.5), Error);
  EXPECT_THROW((void)common::Summary().quantile(0.5), Error);
}

TEST(Summary, JsonExport) {
  common::Summary summary;
  summary.add(1.0);
  summary.add(3.0);
  const auto j = summary.to_json();
  EXPECT_EQ(j.at("count").as_int(), 2);
  EXPECT_DOUBLE_EQ(j.at("mean").as_double(), 2.0);
}

// ---------------------------------------------------------------------------
// random
// ---------------------------------------------------------------------------

TEST(Random, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Random, ForkDecorrelatesStreams) {
  Rng parent(5);
  Rng child_a = parent.fork("alpha");
  Rng child_b = parent.fork("beta");
  Rng child_a2 = Rng(5).fork("alpha");
  EXPECT_DOUBLE_EQ(child_a.uniform(0, 1), child_a2.uniform(0, 1));
  // Different tags give different streams (overwhelmingly likely).
  EXPECT_NE(child_a.uniform(0, 1), child_b.uniform(0, 1));
}

// Rerun-equality tests cannot see a stream that changed the same way on
// every run; these pinned values can. They also hold a copy or a move
// of a stream, taken before or after its first draws, to continuing the
// original's sequence.
TEST(Random, PinnedFirstDraws) {
  struct Case {
    const char* name;
    Rng (*make)();
    double uniform;
    double normal;
    std::int64_t uniform_int;
    double exponential;
  };
  const Case cases[] = {
      {"Rng(1)", [] { return Rng(1); }, 0x1.109f48cd2b63p-1,
       0x1.f207a2af3a1c1p-1, 532465243383, 0x1.8543a0d28128fp-1},
      {"Rng(1).fork(task.000001)", [] { return Rng(1).fork("task.000001"); },
       0x1.efc362a1fbcbp-3, 0x1.96b5116e00f87p-2, 242071886604,
       0x1.1bd198ba40d67p-2},
      {"Rng(1000003).fork(network)",
       [] { return Rng(1000003).fork("network"); }, 0x1.aa879c716bf86p-1,
       -0x1.c4c9cfb8b667cp-2, 833065880628, 0x1.ca47aa8b01364p+0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(c.make().uniform(0.0, 1.0), c.uniform);
    EXPECT_EQ(c.make().normal(0.0, 1.0), c.normal);
    EXPECT_EQ(c.make().uniform_int(0, 1000000000000), c.uniform_int);
    EXPECT_EQ(c.make().exponential(1.0), c.exponential);
  }
}

TEST(Random, CopiesAndMovesContinueTheSequence) {
  // The first six uniform draws of Rng(1).fork("task.000001").
  const double seq[] = {0x1.efc362a1fbcbp-3,  0x1.2223620cc3effp-1,
                        0x1.0b476ed00d131p-2, 0x1.208cd416e3f9p-1,
                        0x1.2c2282a66dd6fp-1, 0x1.0d12fc6a35cc2p-1};
  const auto stream = [] { return Rng(1).fork("task.000001"); };
  const auto draw = [](Rng& rng) { return rng.uniform(0.0, 1.0); };

  Rng original = stream();
  Rng copy = original;  // before any draw
  EXPECT_EQ(draw(copy), seq[0]);
  EXPECT_EQ(draw(copy), seq[1]);
  EXPECT_EQ(draw(original), seq[0]);  // the copy drew from its own engine
  Rng moved = std::move(original);    // after one draw
  EXPECT_EQ(draw(moved), seq[1]);
  EXPECT_EQ(draw(moved), seq[2]);

  Rng fresh = stream();
  Rng moved_fresh = std::move(fresh);  // before any draw
  EXPECT_EQ(draw(moved_fresh), seq[0]);
  EXPECT_EQ(draw(moved_fresh), seq[1]);

  Rng drawn = stream();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(draw(drawn), seq[i]);
  Rng late_copy = drawn;  // after three draws
  EXPECT_EQ(draw(late_copy), seq[3]);
  EXPECT_EQ(draw(late_copy), seq[4]);
  EXPECT_EQ(draw(drawn), seq[3]);
  EXPECT_EQ(draw(drawn), seq[4]);
  Rng late_move = std::move(late_copy);  // after five draws
  EXPECT_EQ(draw(late_move), seq[5]);

  Rng assigned(7);
  assigned = stream();  // move-assigned before any draw
  EXPECT_EQ(draw(assigned), seq[0]);
  Rng copy_assigned(7);
  copy_assigned = assigned;  // copy-assigned after one draw
  EXPECT_EQ(draw(copy_assigned), seq[1]);
  EXPECT_EQ(draw(assigned), seq[1]);
}

TEST(Random, WeightedIndexRespectsWeights) {
  Rng rng(9);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 3000; ++i) {
    ++counts[rng.weighted_index({1.0, 0.0, 3.0})];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0]);
  EXPECT_THROW((void)rng.weighted_index({}), Error);
  EXPECT_THROW((void)rng.weighted_index({0.0, 0.0}), Error);
}

struct DistCase {
  const char* name;
  Distribution dist;
  double expected_mean;
  double tolerance;
};

class DistributionSampling : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributionSampling, EmpiricalMeanMatchesAnalytic) {
  const auto& param = GetParam();
  Rng rng(2024);
  common::OnlineStats stats;
  for (int i = 0; i < 20000; ++i) {
    const double x = param.dist.sample(rng);
    EXPECT_GE(x, 0.0) << "durations must be non-negative";
    stats.add(x);
  }
  EXPECT_NEAR(stats.mean(), param.expected_mean,
              param.tolerance * param.expected_mean);
  EXPECT_NEAR(param.dist.mean(), param.expected_mean,
              param.tolerance * param.expected_mean);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, DistributionSampling,
    ::testing::Values(
        DistCase{"constant", Distribution::constant(4.2), 4.2, 1e-9},
        DistCase{"uniform", Distribution::uniform(2.0, 6.0), 4.0, 0.02},
        DistCase{"normal", Distribution::normal(10.0, 1.0), 10.0, 0.02},
        DistCase{"lognormal", Distribution::lognormal(8.0, 0.25),
                 8.0 * std::exp(0.25 * 0.25 / 2.0), 0.03},
        DistCase{"exponential", Distribution::exponential(3.0), 3.0, 0.05}),
    [](const ::testing::TestParamInfo<DistCase>& info) {
      return info.param.name;
    });

TEST(Distribution, JsonRoundTrip) {
  const auto original = Distribution::normal(0.063e-3, 0.014e-3, 1e-6);
  const auto reparsed = Distribution::from_json(original.to_json());
  Rng a(1);
  Rng b(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(original.sample(a), reparsed.sample(b));
  }
}

TEST(Distribution, FromJsonScalarShorthand) {
  const auto d = Distribution::from_json(json::Value(2.5));
  EXPECT_EQ(d.kind(), Distribution::Kind::constant);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(d.sample(rng), 2.5);
}

TEST(Distribution, FromJsonRejectsUnknownKind) {
  EXPECT_THROW((void)Distribution::from_json(json::Value::parse(
                   R"({"kind":"zipf","a":1})")),
               Error);
}

TEST(Distribution, NormalClampedAtFloor) {
  const auto d = Distribution::normal(0.0, 1.0, 0.5);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(d.sample(rng), 0.5);
  }
}

TEST(Distribution, ScaledScalesMean) {
  const auto d = Distribution::normal(10.0, 2.0).scaled(0.5);
  EXPECT_DOUBLE_EQ(d.mean(), 5.0);
  EXPECT_THROW((void)d.scaled(0.0), Error);
  const auto log_scaled = Distribution::lognormal(8.0, 0.3).scaled(2.0);
  EXPECT_NEAR(log_scaled.mean(),
              16.0 * std::exp(0.3 * 0.3 / 2.0), 1e-9);
}

TEST(Distribution, ValidationErrors) {
  EXPECT_THROW((void)Distribution::uniform(5.0, 1.0), Error);
  EXPECT_THROW((void)Distribution::normal(1.0, -1.0), Error);
  EXPECT_THROW((void)Distribution::lognormal(0.0, 0.3), Error);
  EXPECT_THROW((void)Distribution::exponential(0.0), Error);
}

}  // namespace
