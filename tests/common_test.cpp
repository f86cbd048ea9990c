// Tests for the common substrate: Expected/Status, the deterministic RNG,
// string utilities, and id generation.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>
#include <thread>

#include "common/expected.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"

namespace nvo {
namespace {

// ---------------------------------------------------------------------------
// Expected / Status
// ---------------------------------------------------------------------------

TEST(Expected, HoldsValue) {
  Expected<int> e(42);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value(), 42);
  EXPECT_EQ(e.value_or(-1), 42);
}

TEST(Expected, HoldsError) {
  Expected<int> e(ErrorCode::kNotFound, "missing thing");
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.error().code, ErrorCode::kNotFound);
  EXPECT_EQ(e.error().message, "missing thing");
  EXPECT_EQ(e.value_or(-1), -1);
}

TEST(Expected, ErrorToStringIncludesCodeAndMessage) {
  const Error err(ErrorCode::kTimeout, "slow service");
  EXPECT_EQ(err.to_string(), "kTimeout: slow service");
}

TEST(Expected, MoveOutValue) {
  Expected<std::string> e(std::string(1000, 'x'));
  std::string moved = std::move(e).value();
  EXPECT_EQ(moved.size(), 1000u);
}

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
}

TEST(Status, ErrorState) {
  Status s(ErrorCode::kIoError, "disk gone");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, ErrorCode::kIoError);
}

TEST(Status, AllErrorCodesHaveNames) {
  for (ErrorCode c :
       {ErrorCode::kInvalidArgument, ErrorCode::kNotFound, ErrorCode::kParseError,
        ErrorCode::kIoError, ErrorCode::kServiceUnavailable, ErrorCode::kTimeout,
        ErrorCode::kComputeFailed, ErrorCode::kInfeasible, ErrorCode::kAlreadyExists,
        ErrorCode::kInternal}) {
    EXPECT_STRNE(to_string(c), "kUnknown");
  }
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversRangeUniformly) {
  Rng rng(13);
  int counts[10] = {};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(10)];
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 10 * 0.15);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(17);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
  Rng rng(19);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, PoissonMeanMatchesLambdaSmall) {
  Rng rng(23);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(3.5));
  EXPECT_NEAR(sum / n, 3.5, 0.1);
}

TEST(Rng, PoissonMeanMatchesLambdaLarge) {
  Rng rng(29);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(200.0));
  EXPECT_NEAR(sum / n, 200.0, 2.0);
}

TEST(Rng, PoissonZeroLambda) {
  Rng rng(31);
  EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(37);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(41);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ParetoAboveMinimum) {
  Rng rng(43);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(55);
  Rng child = a.fork();
  // The child stream should not replay the parent's continuation.
  Rng b(55);
  (void)b.next_u64();  // consume what fork consumed
  int same = 0;
  for (int i = 0; i < 32; ++i) {
    if (child.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(59);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.shuffle(v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(Rng, Hash64StableAndSensitive) {
  EXPECT_EQ(hash64("abc"), hash64("abc"));
  EXPECT_NE(hash64("abc"), hash64("abd"));
  EXPECT_NE(hash64(""), hash64("a"));
}

// ---------------------------------------------------------------------------
// strings
// ---------------------------------------------------------------------------

TEST(Strings, SplitPreservesEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitWsDropsEmpty) {
  const auto parts = split_ws("  alpha\t beta\n gamma  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "alpha");
  EXPECT_EQ(parts[2], "gamma");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(Strings, CaseAndAffixes) {
  EXPECT_EQ(to_lower("AbC"), "abc");
  EXPECT_TRUE(starts_with("galMorph", "gal"));
  EXPECT_FALSE(starts_with("gal", "galMorph"));
  EXPECT_TRUE(ends_with("file.fits", ".fits"));
  EXPECT_FALSE(ends_with("fits", "file.fits"));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("2.831933107035062E-4").value(),
                   2.831933107035062e-4);
  EXPECT_DOUBLE_EQ(parse_double(" 1.5 ").value(), 1.5);
  EXPECT_FALSE(parse_double("1.5x").has_value());
  EXPECT_FALSE(parse_double("").has_value());
}

TEST(Strings, ParseInt) {
  EXPECT_EQ(parse_int("-42").value(), -42);
  EXPECT_FALSE(parse_int("42.5").has_value());
  EXPECT_FALSE(parse_int("abc").has_value());
}

TEST(Strings, FormatAndFixed) {
  EXPECT_EQ(format("%s=%d", "x", 5), "x=5");
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replace_all("a'b'c", "'", "''"), "a''b''c");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
  EXPECT_EQ(replace_all("none", "x", "y"), "none");
}

TEST(Strings, RecordCodecRoundTripsBitExactly) {
  std::string line;
  append_hex_double(line, -0.1);
  EXPECT_EQ(line, "bfb999999999999a");
  double back = 0.0;
  ASSERT_TRUE(parse_hex_double(line, back));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back), std::bit_cast<std::uint64_t>(-0.1));
  EXPECT_EQ(hex_u64(0xabcull), "0000000000000abc");
  std::uint64_t v = 0;
  EXPECT_FALSE(parse_hex_u64("12 ", v));  // the whole field, or nothing
  EXPECT_FALSE(parse_hex_u64("", v));

  const std::string raw = "a b%c\r\nd\t\x01\xe9+";
  EXPECT_EQ(escape_field(raw), "a%20b%25c%0D%0Ad%09%01\xe9+");  // high bytes verbatim
  EXPECT_EQ(unescape_field(escape_field(raw)), raw);
  EXPECT_EQ(unescape_field("100%zz%4"), "100%zz%4");  // malformed: verbatim
  EXPECT_EQ(unescape_field("a+b%2B", true), "a b+");   // URL query decoding
}

// ---------------------------------------------------------------------------
// IdGenerator
// ---------------------------------------------------------------------------

TEST(IdGenerator, SequentialAndPrefixed) {
  IdGenerator gen("req");
  EXPECT_EQ(gen.next(), "req-000001");
  EXPECT_EQ(gen.next(), "req-000002");
  EXPECT_EQ(gen.count(), 2u);
}

TEST(IdGenerator, UniqueUnderConcurrency) {
  IdGenerator gen("t");
  std::vector<std::string> ids(400);
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&gen, &ids, t] {
        for (int i = 0; i < 100; ++i) ids[static_cast<std::size_t>(t) * 100 + i] = gen.next();
      });
    }
  }
  std::set<std::string> unique(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), 400u);
}

}  // namespace
}  // namespace nvo
