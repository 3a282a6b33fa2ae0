// The shared CLI flag parser: flags missing from the usage text exit 2.
#include "../apps/cli_common.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace {

constexpr const char* kUsage = R"(usage: tool [options] <file>

options:
  --gmax N       max subgraph size
  --budget-ms X  search budget
  --quiet        metrics only
)";

epg::cli::Args parse(std::vector<std::string> tokens) {
  tokens.insert(tokens.begin(), "tool");
  std::vector<char*> argv;
  for (std::string& t : tokens) argv.push_back(t.data());
  return epg::cli::Args(static_cast<int>(argv.size()), argv.data(),
                        {"quiet"}, kUsage);
}

TEST(CliArgs, UnknownValueFlagExitsTwo) {
  EXPECT_EXIT(parse({"--gmx", "3", "g.g6"}), testing::ExitedWithCode(2),
              "unknown flag --gmx");
  EXPECT_EXIT(parse({"--budgetms", "5", "g.g6"}), testing::ExitedWithCode(2),
              "unknown flag --budgetms");
}

TEST(CliArgs, UnknownBoolFlagExitsTwo) {
  EXPECT_EXIT(parse({"--quite", "g.g6"}), testing::ExitedWithCode(2),
              "unknown flag --quite");
}

TEST(CliArgs, KnownFlagsParse) {
  const epg::cli::Args args =
      parse({"--gmax", "3", "--quiet", "g.g6", "--budget-ms", "2.5"});
  EXPECT_EQ(args.get_u64("gmax", 7), 3u);
  EXPECT_DOUBLE_EQ(args.get_double("budget-ms", 800), 2.5);
  EXPECT_TRUE(args.has("quiet"));
  EXPECT_EQ(args.positional(), std::vector<std::string>{"g.g6"});
}

TEST(CliArgs, HelpExitsZero) {
  EXPECT_EXIT(parse({"--help"}), testing::ExitedWithCode(0), "usage: tool");
}

}  // namespace
