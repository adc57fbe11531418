// The shared command-line front end (tools/cli/cli.hpp): the strict flag
// parser and the JSON value every report and the linter write through.
#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace vdc::cli {
namespace {

enum class Mode { kFast, kSlow };

/// The reason every malformed unsigned (64-bit) value gets.
const std::string kNotU64 = "expected an integer in 0..18446744073709551615";

/// A parser with one flag of every kind, bound to its own variables.
struct Fixture {
  bool quick = false;
  std::size_t count = 7;
  std::uint64_t seed = 42;
  double rate = 1.5;
  std::string out = "default.json";
  std::vector<double> list = {1.0};
  Mode mode = Mode::kFast;
  Parser parser{"prog [options]"};

  Fixture() {
    parser.flag("--quick", quick, "switch")
        .option("--count", count, "N", "size")
        .option("--seed", seed, "S", "seed")
        .option("--rate", rate, "X", "double")
        .option("--out", out, "PATH", "string")
        .option("--list", list, "A,B", "double list")
        .choice("--mode", mode, {{"fast", Mode::kFast}, {"slow", Mode::kSlow}}, "choice");
  }

  std::string parse(std::vector<const char*> args) {
    args.insert(args.begin(), "prog");
    return parser.try_parse(static_cast<int>(args.size()), args.data());
  }
};

TEST(CliParser, DefaultsSurviveAnEmptyCommandLine) {
  Fixture f;
  EXPECT_EQ(f.parse({}), "");
  EXPECT_FALSE(f.quick);
  EXPECT_EQ(f.count, 7u);
  EXPECT_EQ(f.seed, 42u);
  EXPECT_EQ(f.rate, 1.5);
  EXPECT_EQ(f.out, "default.json");
  EXPECT_EQ(f.list, std::vector<double>{1.0});
  EXPECT_EQ(f.mode, Mode::kFast);
}

TEST(CliParser, ParsesAFullCommandLineOfEveryFlagType) {
  Fixture f;
  EXPECT_EQ(f.parse({"--quick", "--count", "12", "--seed", "18446744073709551615", "--rate",
                     "-2.5e-3", "--out", "x y.json", "--list", "0.1,2,3e2", "--mode", "slow"}),
            "");
  EXPECT_TRUE(f.quick);
  EXPECT_EQ(f.count, 12u);
  EXPECT_EQ(f.seed, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(f.rate, -2.5e-3);
  EXPECT_EQ(f.out, "x y.json");
  EXPECT_EQ(f.list, (std::vector<double>{0.1, 2.0, 300.0}));
  EXPECT_EQ(f.mode, Mode::kSlow);
}

TEST(CliParser, LastOccurrenceWins) {
  Fixture f;
  EXPECT_EQ(f.parse({"--count", "1", "--count", "2"}), "");
  EXPECT_EQ(f.count, 2u);
}

TEST(CliParser, RejectsMalformedNumbers) {
  Fixture f;
  EXPECT_EQ(f.parse({"--rate", "abc"}), "--rate: expected a finite number, got 'abc'");
  EXPECT_EQ(f.parse({"--rate", "1e9x"}), "--rate: expected a finite number, got '1e9x'");
  EXPECT_EQ(f.parse({"--rate", ""}), "--rate: expected a finite number, got ''");
  EXPECT_EQ(f.parse({"--count", "abc"}), "--count: " + kNotU64 + ", got 'abc'");
  EXPECT_EQ(f.parse({"--count", "3.5"}), "--count: " + kNotU64 + ", got '3.5'");
  EXPECT_EQ(f.parse({"--list", "0.1,,2"}), "--list: expected a finite number, got ''");
  EXPECT_EQ(f.parse({"--list", "0.1,x"}), "--list: expected a finite number, got 'x'");
  // A rejected value leaves the variable at its default.
  EXPECT_EQ(f.rate, 1.5);
  EXPECT_EQ(f.count, 7u);
  EXPECT_EQ(f.list, std::vector<double>{1.0});
}

TEST(CliParser, UnsignedFlagsRejectASignAndOverflow) {
  Fixture f;
  EXPECT_EQ(f.parse({"--count", "-1"}), "--count: " + kNotU64 + ", got '-1'");
  EXPECT_EQ(f.parse({"--seed", "+1"}), "--seed: " + kNotU64 + ", got '+1'");
  EXPECT_EQ(f.parse({"--seed", "18446744073709551616"}),
            "--seed: " + kNotU64 + ", got '18446744073709551616'");
  EXPECT_EQ(f.count, 7u);
  EXPECT_EQ(f.seed, 42u);
}

TEST(CliParser, DoublesMustBeFinite) {
  Fixture f;
  EXPECT_EQ(f.parse({"--rate", "nan"}), "--rate: expected a finite number, got 'nan'");
  EXPECT_EQ(f.parse({"--rate", "inf"}), "--rate: expected a finite number, got 'inf'");
  EXPECT_EQ(f.parse({"--rate", "-inf"}), "--rate: expected a finite number, got '-inf'");
  EXPECT_EQ(f.parse({"--rate", "1e999"}), "--rate: expected a finite number, got '1e999'");
  EXPECT_EQ(f.parse({"--list", "1,nan"}), "--list: expected a finite number, got 'nan'");
  EXPECT_EQ(f.rate, 1.5);
}

TEST(CliParser, RejectsADanglingValue) {
  Fixture f;
  EXPECT_EQ(f.parse({"--quick", "--rate"}), "--rate: missing value");
  EXPECT_EQ(f.parse({"--out"}), "--out: missing value");
}

TEST(CliParser, RejectsUnknownFlagsAndStrayArguments) {
  Fixture f;
  EXPECT_EQ(f.parse({"--frobnicate"}), "--frobnicate: unknown flag");
  EXPECT_EQ(f.parse({"--count=3"}), "--count=3: unknown flag");
  EXPECT_EQ(f.parse({"stray"}), "stray: unexpected argument");
  // A switch takes no value, so the word after it is a stray argument.
  EXPECT_EQ(f.parse({"--quick", "yes"}), "yes: unexpected argument");
}

TEST(CliParser, RejectsABadChoice) {
  Fixture f;
  EXPECT_EQ(f.parse({"--mode", "medium"}), "--mode: expected one of fast|slow, got 'medium'");
  EXPECT_EQ(f.mode, Mode::kFast);
}

TEST(CliParser, ParsingStartsAtTheGivenIndex) {
  Fixture f;
  const char* argv[] = {"prog", "generate", "--count", "5"};
  EXPECT_EQ(f.parser.try_parse(4, argv, 2), "");
  EXPECT_EQ(f.count, 5u);
  EXPECT_EQ(f.parser.try_parse(4, argv, 1), "generate: unexpected argument");
}

TEST(CliParser, UsageListsEveryFlag) {
  Fixture f;
  const std::string usage = f.parser.usage();
  EXPECT_EQ(usage.rfind("usage: prog [options]\n", 0), 0u) << usage;
  for (const char* text : {"--quick", "--count N", "--seed S", "--rate X", "--out PATH",
                           "--list A,B", "--mode fast|slow"}) {
    EXPECT_NE(usage.find(text), std::string::npos) << text;
  }
}

TEST(CliJson, ScalarsRenderExactly) {
  EXPECT_EQ(Json().dump(), "null\n");
  EXPECT_EQ(Json(nullptr).dump(), "null\n");
  EXPECT_EQ(Json(true).dump(), "true\n");
  EXPECT_EQ(Json(false).dump(), "false\n");
  EXPECT_EQ(Json(-3).dump(), "-3\n");
  EXPECT_EQ(Json(std::numeric_limits<std::uint64_t>::max()).dump(), "18446744073709551615\n");
  EXPECT_EQ(Json(0.1).dump(), "0.1\n");
  EXPECT_EQ(Json(400.0).dump(), "400\n");
  EXPECT_EQ(Json(1.0 / 3.0).dump(), "0.3333333333333333\n");
  EXPECT_EQ(Json(2.5e-7).dump(), "2.5e-07\n");
  EXPECT_EQ(Json("text").dump(), "\"text\"\n");
}

TEST(CliJson, DoublesRoundTrip) {
  for (const double v : {0.1, 1.0 / 3.0, 6.02214076e23, -1e-300, 123456.789}) {
    std::string text = Json(v).dump();
    text.pop_back();
    EXPECT_EQ(std::stod(text), v) << text;
  }
}

TEST(CliJson, NonFiniteDoublesAreNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(), "null\n");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null\n");
  EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).dump(), "null\n");
  EXPECT_EQ(Json::array({1.0, std::numeric_limits<double>::quiet_NaN()}).dump(), "[1, null]\n");
}

TEST(CliJson, StringsAreEscaped) {
  EXPECT_EQ(Json("say \"hi\"").dump(), "\"say \\\"hi\\\"\"\n");
  EXPECT_EQ(Json("C:\\dir").dump(), "\"C:\\\\dir\"\n");
  EXPECT_EQ(Json("a\nb\tc").dump(), "\"a\\nb\\tc\"\n");
  EXPECT_EQ(Json(std::string("\x01\x1f\r", 3)).dump(), "\"\\u0001\\u001f\\u000d\"\n");
  EXPECT_EQ(Json("caf\xc3\xa9").dump(), "\"caf\xc3\xa9\"\n");  // UTF-8 passes through
  EXPECT_EQ(Json::object({{"k\"ey", 1}}).dump(), "{\"k\\\"ey\": 1}\n");
}

TEST(CliJson, ObjectsKeepInsertionOrder) {
  Json obj = Json::object({{"zeta", 1}, {"alpha", 2}});
  obj.set("mid", 3).set("zeta", 4);  // an existing key keeps its place
  EXPECT_EQ(obj.dump(), "{\"zeta\": 4, \"alpha\": 2, \"mid\": 3}\n");
}

TEST(CliJson, EmptyContainers) {
  EXPECT_EQ(Json::object().dump(), "{}\n");
  EXPECT_EQ(Json::array().dump(), "[]\n");
  // An empty container still counts as nesting, so its parent breaks lines.
  EXPECT_EQ(Json::object({{"a", Json::array()}}).dump(), "{\n  \"a\": []\n}\n");
}

TEST(CliJson, NestedContainersIndentAndScalarOnlyOnesStayInline) {
  Json rows = Json::array();
  rows.push(Json::object({{"jobs", 1000}, {"naive", nullptr}}));
  rows.push(Json::array({1, "two"}));
  const Json doc = Json::object({{"bench", "demo"}, {"rows", rows}, {"ok", true}});
  EXPECT_EQ(doc.dump(),
            "{\n"
            "  \"bench\": \"demo\",\n"
            "  \"rows\": [\n"
            "    {\"jobs\": 1000, \"naive\": null},\n"
            "    [1, \"two\"]\n"
            "  ],\n"
            "  \"ok\": true\n"
            "}\n");
}

TEST(CliJson, SetAndPushCheckTheContainerKind) {
  Json array = Json::array();
  Json object = Json::object();
  Json scalar = 1;
  EXPECT_THROW(array.set("k", 1), std::logic_error);
  EXPECT_THROW(object.push(1), std::logic_error);
  EXPECT_THROW(scalar.push(1), std::logic_error);
}

TEST(CliReport, WriteFailureIsAnIoError) {
  EXPECT_EQ(write_report("/nonexistent-dir/report.json", Json::object()), 2);
}

}  // namespace
}  // namespace vdc::cli
