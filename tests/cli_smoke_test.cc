// End-to-end smoke test for the built `snd_cli` binary: unlike
// cli_test.cc, which drives SndCliMain in-process, this spawns the real
// executable (path baked in as SND_CLI_BIN by the build) against a tiny
// generated fixture and checks exit codes and output shape.
#include <cstdio>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "smoke_util.h"
#include "snd/graph/generators.h"
#include "snd/graph/io.h"
#include "snd/opinion/evolution.h"
#include "snd/opinion/state_io.h"
#include "snd/util/version.h"

#ifndef SND_CLI_BIN
#error "SND_CLI_BIN must be defined to the snd_cli executable path"
#endif

namespace snd {
namespace {

using testing_util::BinaryRunResult;
using testing_util::RunBinary;
using testing_util::ShellQuoted;
using testing_util::SmokeTempPath;

// Runs `snd_cli <args>` through the shell, capturing stdout and stderr.
BinaryRunResult RunCli(const std::string& args) {
  return RunBinary(SND_CLI_BIN, args, "cli_smoke");
}

class CliSmokeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_path_ = SmokeTempPath("cli_smoke", "graph.edges");
    states_path_ = SmokeTempPath("cli_smoke", "states.txt");
    const Graph g = GenerateRing(20, 2);
    ASSERT_TRUE(WriteEdgeList(g, graph_path_));
    SyntheticEvolution evolution(&g, 2);
    const auto series =
        evolution.GenerateSeries(3, 5, {0.2, 0.05}, {0.2, 0.05}, {});
    ASSERT_TRUE(WriteStateSeries(series, states_path_));
  }

  void TearDown() override {
    std::remove(graph_path_.c_str());
    std::remove(states_path_.c_str());
  }

  std::string graph_path_;
  std::string states_path_;
};

TEST_F(CliSmokeTest, HelpExitsZeroAndPrintsUsageToStdout) {
  for (const char* spelling : {"--help", "-h", "help"}) {
    const BinaryRunResult result = RunCli(spelling);
    EXPECT_EQ(result.exit_code, 0) << spelling;
    EXPECT_NE(result.out.find("usage: snd_cli"), std::string::npos)
        << spelling;
    EXPECT_TRUE(result.err.empty()) << spelling << " stderr: " << result.err;
  }
}

TEST_F(CliSmokeTest, VersionExitsZeroAndPrintsTheLibraryVersion) {
  for (const char* spelling : {"--version", "version"}) {
    const BinaryRunResult result = RunCli(spelling);
    EXPECT_EQ(result.exit_code, 0) << spelling;
    EXPECT_EQ(result.out, std::string("snd_cli ") + VersionString() + "\n")
        << spelling;
    EXPECT_TRUE(result.err.empty()) << spelling << " stderr: " << result.err;
  }
}

TEST_F(CliSmokeTest, DistanceCommandPrintsValue) {
  const BinaryRunResult result =
      RunCli("distance " + ShellQuoted(graph_path_) + " " +
             ShellQuoted(states_path_) + " 0 1");
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("SND(0, 1) ="), std::string::npos) << result.out;
}

TEST_F(CliSmokeTest, DistanceRejectsBadIndicesNamingToken) {
  // {indices, the token the error must name}; the fixture has 3 states.
  const std::pair<const char*, const char*> cases[] = {
      {"0x 1", "0x"}, {"0 1abc", "1abc"}, {"-1 1", "-1"}, {"0 3", "3"}};
  for (const auto& [indices, token] : cases) {
    const BinaryRunResult result =
        RunCli("distance " + ShellQuoted(graph_path_) + " " +
               ShellQuoted(states_path_) + " " + indices);
    EXPECT_EQ(result.exit_code, 1) << indices;
    EXPECT_NE(result.err.find(std::string("invalid state index '") + token +
                              "'"),
              std::string::npos)
        << indices << " stderr: " << result.err;
    EXPECT_TRUE(result.out.empty()) << indices << " stdout: " << result.out;
  }
}

TEST_F(CliSmokeTest, SeriesCommandPrintsTable) {
  const BinaryRunResult result = RunCli(
      "series " + ShellQuoted(graph_path_) + " " + ShellQuoted(states_path_));
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("transition"), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("anomaly score"), std::string::npos)
      << result.out;
  EXPECT_NE(result.out.find("0->1"), std::string::npos) << result.out;
}

TEST_F(CliSmokeTest, MissingArgumentsFails) {
  const BinaryRunResult result = RunCli("");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("missing arguments"), std::string::npos)
      << result.err;
}

TEST_F(CliSmokeTest, UnknownCommandNamesToken) {
  const BinaryRunResult result = RunCli("frobnicate " +
                                        ShellQuoted(graph_path_) + " " +
                                        ShellQuoted(states_path_));
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("unknown command 'frobnicate'"),
            std::string::npos)
      << result.err;
}

TEST_F(CliSmokeTest, BadFlagValuesNameToken) {
  const BinaryRunResult bad_model =
      RunCli("series " + ShellQuoted(graph_path_) + " " +
             ShellQuoted(states_path_) + " --model=bogus");
  EXPECT_EQ(bad_model.exit_code, 1);
  EXPECT_NE(bad_model.err.find("unknown --model value 'bogus'"),
            std::string::npos)
      << bad_model.err;

  const BinaryRunResult bad_flag =
      RunCli("series " + ShellQuoted(graph_path_) + " " +
             ShellQuoted(states_path_) + " --frobnicate");
  EXPECT_EQ(bad_flag.exit_code, 1);
  EXPECT_NE(bad_flag.err.find("unrecognized flag '--frobnicate'"),
            std::string::npos)
      << bad_flag.err;
}

}  // namespace
}  // namespace snd
