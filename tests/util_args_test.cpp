#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "util/args.hpp"

namespace fedco::util {
namespace {

ArgParser parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return ArgParser{static_cast<int>(argv.size()), argv.data()};
}

TEST(ArgParser, KeyValueForms) {
  const auto args = parse({"--alpha", "3.5", "--name=fedco", "--flag"});
  EXPECT_TRUE(args.has("alpha"));
  EXPECT_EQ(args.get("name"), "fedco");
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 3.5);
  EXPECT_TRUE(args.has("flag"));
  EXPECT_EQ(args.get("flag"), "");
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
}

TEST(ArgParser, NumericParsingAndErrors) {
  const auto args = parse({"--n", "42", "--bad", "4x2", "--f", "1e-3"});
  EXPECT_EQ(args.get_int("n", 0), 42);
  EXPECT_EQ(args.get_int("absent", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("f", 0.0), 1e-3);
  EXPECT_THROW((void)args.get_int("bad", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("bad", 0.0), std::invalid_argument);
}

TEST(ArgParser, Booleans) {
  const auto args = parse({"--on", "--yes", "true", "--no=false", "--odd", "maybe"});
  EXPECT_TRUE(args.get_bool("on", false));
  EXPECT_TRUE(args.get_bool("yes", false));
  EXPECT_FALSE(args.get_bool("no", true));
  EXPECT_FALSE(args.get_bool("absent", false));
  EXPECT_TRUE(args.get_bool("absent2", true));
  EXPECT_THROW((void)args.get_bool("odd", false), std::invalid_argument);
}

TEST(ArgParser, PositionalAndValueLookahead) {
  const auto args = parse({"input.csv", "--k", "3", "output.csv"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.csv");
  EXPECT_EQ(args.positional()[1], "output.csv");
  EXPECT_EQ(args.get_int("k", 0), 3);
}

TEST(ArgParser, NegativeNumberAsValue) {
  // "-5" does not start with "--", so it is consumed as the value.
  const auto args = parse({"--offset", "-5"});
  EXPECT_EQ(args.get_int("offset", 0), -5);
}

TEST(ArgParser, CountsRejectNegativeValuesByName) {
  const auto args = parse({"--users", "-3", "--jobs", "4", "--bare"});
  try {
    (void)args.get_count("users", 10);
    ADD_FAILURE() << "--users -3 accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string{error.what()}.find("--users"), std::string::npos)
        << error.what();
  }
  EXPECT_EQ(args.get_count("jobs", 0), 4u);
  EXPECT_EQ(args.get_count("absent", 9), 9u);
  EXPECT_EQ(args.get_count("bare", 5), 5u);  // valueless flag -> fallback
}

TEST(ArgParser, MalformedOptionsThrow) {
  EXPECT_THROW(parse({"---x"}), std::invalid_argument);
  EXPECT_THROW(parse({"--"}), std::invalid_argument);
}

TEST(ArgParser, UnusedReportsUntouchedOptions) {
  const auto args = parse({"--used", "1", "--typo", "2"});
  (void)args.get_int("used", 0);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(ArgParser, FlagFollowedByOptionHasEmptyValue) {
  const auto args = parse({"--verbose", "--level", "3"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get("verbose"), "");
  EXPECT_EQ(args.get_int("level", 0), 3);
}

}  // namespace
}  // namespace fedco::util
