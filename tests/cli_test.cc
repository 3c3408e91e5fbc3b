// Integration tests for the fastofd command-line tool: gen -> discover ->
// verify -> clean round trips through real files and process exits.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace fastofd {
namespace {

// Per process, so concurrent runs of the suite never share files.
std::string TempDirPath() {
  const char* t = std::getenv("TMPDIR");
  return std::string(t ? t : "/tmp") + "/fastofd_cli_test_" + std::to_string(getpid());
}

std::string TempDir() {
  std::string dir = TempDirPath();
  std::string cmd = "mkdir -p " + dir;
  EXPECT_EQ(std::system(cmd.c_str()), 0);
  return dir;
}

// Removes this process's directory once every test has run.
class TempDirCleanup : public ::testing::Environment {
 public:
  void TearDown() override { std::filesystem::remove_all(TempDirPath()); }
};
::testing::Environment* const kTempDirCleanup =
    ::testing::AddGlobalTestEnvironment(new TempDirCleanup);

int RunCli(const std::string& args, std::string* output = nullptr) {
  std::string out_file = TempDir() + "/out.txt";
  std::string cmd = std::string(FASTOFD_CLI_BIN) + " " + args + " > " + out_file +
                    " 2>/dev/null";
  int rc = std::system(cmd.c_str());
  if (output) {
    std::ifstream in(out_file);
    std::ostringstream buf;
    buf << in.rdbuf();
    *output = buf.str();
  }
  return WEXITSTATUS(rc);
}

// Like RunCli, but captures stderr (where --metrics dumps go) instead of
// discarding it.
int RunCliCaptureStderr(const std::string& args, std::string* err_output) {
  std::string out_file = TempDir() + "/out.txt";
  std::string err_file = TempDir() + "/err.txt";
  std::string cmd = std::string(FASTOFD_CLI_BIN) + " " + args + " > " + out_file +
                    " 2> " + err_file;
  int rc = std::system(cmd.c_str());
  std::ifstream in(err_file);
  std::ostringstream buf;
  buf << in.rdbuf();
  *err_output = buf.str();
  return WEXITSTATUS(rc);
}

TEST(CliTest, UsageOnNoCommand) {
  EXPECT_EQ(RunCli(""), 2);
  EXPECT_EQ(RunCli("bogus"), 2);
}

TEST(CliTest, GenDiscoverVerifyCleanPipeline) {
  std::string dir = TempDir();
  std::string data = dir + "/d.csv";
  std::string ont = dir + "/o.txt";
  std::string sigma = dir + "/s.txt";

  // gen: deterministic instance with errors + incompleteness.
  ASSERT_EQ(RunCli("gen --rows 300 --err 0.05 --inc 0.1 --seed 5 --out " + data +
                " --ontology-out " + ont + " --sigma-out " + sigma),
            0);

  // discover: finds OFDs on the dirty data (approximate, kappa 0.9).
  std::string discovered = dir + "/discovered.txt";
  std::string out;
  ASSERT_EQ(RunCli("discover --data " + data + " --ontology " + ont +
                " --kappa 0.9 --out " + discovered, &out),
            0);
  std::ifstream check(discovered);
  EXPECT_TRUE(check.good());

  // verify: the planted sigma is violated on the dirty instance (exit 3).
  EXPECT_EQ(RunCli("verify --data " + data + " --ontology " + ont + " --sigma " +
                sigma, &out),
            3);
  EXPECT_NE(out.find("VIOLATED"), std::string::npos);

  // clean: produces a consistent repair; verify passes afterwards (exit 0).
  std::string repaired = dir + "/repaired.csv";
  std::string repaired_ont = dir + "/repaired_o.txt";
  ASSERT_EQ(RunCli("clean --data " + data + " --ontology " + ont + " --sigma " +
                sigma + " --out " + repaired + " --ontology-out " + repaired_ont,
                &out),
            0);
  EXPECT_NE(out.find("consistent"), std::string::npos);
  EXPECT_EQ(RunCli("verify --data " + repaired + " --ontology " + repaired_ont +
                " --sigma " + sigma, &out),
            0);
  EXPECT_EQ(out.find("VIOLATED"), std::string::npos);
}

TEST(CliTest, MetricsDumpOnStderr) {
  std::string dir = TempDir();
  std::string data = dir + "/m.csv";
  std::string ont = dir + "/mo.txt";
  std::string sigma = dir + "/ms.txt";
  ASSERT_EQ(RunCli("gen --rows 200 --seed 7 --out " + data + " --ontology-out " +
                ont + " --sigma-out " + sigma),
            0);

  // Text dump: per-level timers and the partition-cache counters.
  std::string err;
  ASSERT_EQ(RunCliCaptureStderr("discover --data " + data + " --ontology " + ont +
                " --threads 2 --metrics", &err),
            0);
  EXPECT_NE(err.find("discover.seconds"), std::string::npos);
  EXPECT_NE(err.find("discover.level"), std::string::npos);
  EXPECT_NE(err.find("partition_cache.hits"), std::string::npos);
  EXPECT_NE(err.find("partition_cache.misses"), std::string::npos);
  EXPECT_NE(err.find("partition_cache.evictions"), std::string::npos);

  // JSON dump: one object with the three metric sections.
  ASSERT_EQ(RunCliCaptureStderr("discover --data " + data + " --ontology " + ont +
                " --metrics=json", &err),
            0);
  EXPECT_EQ(err.front(), '{');
  EXPECT_NE(err.find("\"counters\""), std::string::npos);
  EXPECT_NE(err.find("\"timers\""), std::string::npos);
  EXPECT_NE(err.find("\"partition_cache.hits\""), std::string::npos);

  // Without --metrics, stderr stays clean.
  ASSERT_EQ(RunCliCaptureStderr("discover --data " + data + " --ontology " + ont,
                &err),
            0);
  EXPECT_EQ(err.find("discover.seconds"), std::string::npos);
}

TEST(CliTest, MissingInputsFail) {
  EXPECT_EQ(RunCli("discover"), 1);
  EXPECT_EQ(RunCli("verify --data /nonexistent.csv --ontology /nonexistent.txt"), 1);
}

}  // namespace
}  // namespace fastofd
