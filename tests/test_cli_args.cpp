// The shared CLI flag parser: flags missing from the usage text exit 2.
#include "../apps/cli_common.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace {

constexpr const char* kUsage = R"(usage: tool [options] <file>

options:
  --gmax N       max subgraph size
  --ne-factor X  emitter cap factor
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
  EXPECT_EXIT(parse({"--nefactor", "5", "g.g6"}), testing::ExitedWithCode(2),
              "unknown flag --nefactor");
}

TEST(CliArgs, UnknownBoolFlagExitsTwo) {
  EXPECT_EXIT(parse({"--quite", "g.g6"}), testing::ExitedWithCode(2),
              "unknown flag --quite");
}

TEST(CliArgs, KnownFlagsParse) {
  const epg::cli::Args args =
      parse({"--gmax", "3", "--quiet", "g.g6", "--ne-factor", "2.5"});
  EXPECT_EQ(args.get_u64("gmax", 7), 3u);
  EXPECT_DOUBLE_EQ(args.get_double("ne-factor", 1.5), 2.5);
  EXPECT_TRUE(args.has("quiet"));
  EXPECT_EQ(args.positional(), std::vector<std::string>{"g.g6"});
}

TEST(CliArgs, TcpAddressNeedsAnAllDigitPort) {
  const auto full = epg::cli::parse_tcp_address("0.0.0.0:8080");
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->host, "0.0.0.0");
  EXPECT_EQ(full->port, 8080);
  const auto bare = epg::cli::parse_tcp_address("0");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->host, "127.0.0.1");
  EXPECT_EQ(bare->port, 0);
  EXPECT_EQ(epg::cli::parse_tcp_address(":65535")->host, "127.0.0.1");
  for (const char* bad : {"127.0.0.1:80x", "127.0.0.1:", "80 ", "+80", "-1",
                          "65536", "99999999999999999999", "host:0x10"})
    EXPECT_FALSE(epg::cli::parse_tcp_address(bad).has_value()) << bad;
}

TEST(CliArgs, HelpExitsZero) {
  EXPECT_EXIT(parse({"--help"}), testing::ExitedWithCode(0), "usage: tool");
}

}  // namespace
