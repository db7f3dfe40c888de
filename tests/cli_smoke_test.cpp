// End-to-end smoke tests for the netcong_cli binary: argument validation
// (unknown subcommands, unknown flags, stray positionals all exit 2 with
// usage on stderr) and one fast invocation of every registered subcommand.
// The subcommand list is discovered from the binary's own help output, so
// registering a new subcommand without adding a smoke invocation here
// fails the suite.

#include <sys/wait.h>

#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // whatever the shell redirections leave on stdout
};

// Runs the CLI through /bin/sh so tests can use redirections to separate
// the streams: "2>&1 1>/dev/null" captures stderr only, "2>/dev/null"
// captures stdout only.
RunResult run_cli(const std::string& args) {
  std::string cmd = std::string(NETCONG_CLI_PATH) + " " + args;
  RunResult result;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    result.output.append(buf, n);
  }
  int status = ::pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

TEST(CliErrors, NoArgumentsPrintsUsageToStderr) {
  RunResult err = run_cli("2>&1 1>/dev/null");
  EXPECT_NE(err.exit_code, 0);
  EXPECT_NE(err.output.find("usage:"), std::string::npos) << err.output;

  RunResult out = run_cli("2>/dev/null");
  EXPECT_EQ(out.output.find("usage:"), std::string::npos)
      << "usage text leaked to stdout";
}

TEST(CliErrors, UnknownSubcommandExits2WithUsageOnStderr) {
  RunResult err = run_cli("frobnicate 2>&1 1>/dev/null");
  EXPECT_EQ(err.exit_code, 2);
  EXPECT_NE(err.output.find("unknown subcommand 'frobnicate'"),
            std::string::npos)
      << err.output;
  EXPECT_NE(err.output.find("usage:"), std::string::npos);
}

TEST(CliErrors, UnknownFlagExits2WithUsageOnStderr) {
  RunResult err = run_cli("topology --frob 3 2>&1 1>/dev/null");
  EXPECT_EQ(err.exit_code, 2);
  EXPECT_NE(err.output.find("unknown option '--frob'"), std::string::npos)
      << err.output;
  EXPECT_NE(err.output.find("usage:"), std::string::npos);
}

TEST(CliErrors, FlagValidForOneSubcommandIsRejectedForAnother) {
  // --days belongs to campaign (and friends), not to topology.
  RunResult err = run_cli("topology --days 1 2>&1 1>/dev/null");
  EXPECT_EQ(err.exit_code, 2);
  EXPECT_NE(err.output.find("unknown option '--days'"), std::string::npos)
      << err.output;
}

TEST(CliErrors, StrayPositionalExits2WithUsageOnStderr) {
  RunResult err = run_cli("topology extra-arg 2>&1 1>/dev/null");
  EXPECT_EQ(err.exit_code, 2);
  EXPECT_NE(err.output.find("unexpected argument 'extra-arg'"),
            std::string::npos)
      << err.output;
  EXPECT_NE(err.output.find("usage:"), std::string::npos);
}

TEST(CliAdversary, UnknownScenarioExits2) {
  RunResult err = run_cli("adversary --scenario ddos 2>&1 1>/dev/null");
  EXPECT_EQ(err.exit_code, 2);
  EXPECT_NE(err.output.find("--scenario"), std::string::npos) << err.output;
}

TEST(CliAdversary, OutOfRangeFractionExits2) {
  RunResult err = run_cli("adversary --fraction 1.5 2>&1 1>/dev/null");
  EXPECT_EQ(err.exit_code, 2);
  EXPECT_NE(err.output.find("--fraction"), std::string::npos) << err.output;
}

TEST(CliAdversary, BadLinksAndEpochExit2) {
  RunResult links = run_cli(
      "adversary --scenario withdraw --links 0 2>&1 1>/dev/null");
  EXPECT_EQ(links.exit_code, 2);
  EXPECT_NE(links.output.find("--links"), std::string::npos) << links.output;

  RunResult epoch = run_cli(
      "adversary --days 2 --epoch 500 2>&1 1>/dev/null");
  EXPECT_EQ(epoch.exit_code, 2);
  EXPECT_NE(epoch.output.find("--epoch"), std::string::npos) << epoch.output;
}

TEST(CliAdversary, StarsScenarioReportsIndistinguishablePair) {
  RunResult out = run_cli(
      "adversary --scale tiny --seed 3 --scenario stars --fraction 0.5 2>&1");
  EXPECT_EQ(out.exit_code, 0) << out.output;
  EXPECT_NE(out.output.find("indistinguishable ground-truth pair: yes"),
            std::string::npos)
      << out.output;
}

TEST(CliHelp, HelpExitsZeroOnStdout) {
  RunResult out = run_cli("--help 2>/dev/null");
  EXPECT_EQ(out.exit_code, 0);
  EXPECT_NE(out.output.find("usage:"), std::string::npos);
  EXPECT_NE(out.output.find("topology"), std::string::npos);
}

TEST(CliHelp, SubcommandHelpExitsZero) {
  RunResult out = run_cli("campaign --help 2>/dev/null");
  EXPECT_EQ(out.exit_code, 0);
  EXPECT_NE(out.output.find("usage:"), std::string::npos);
}

TEST(CliServe, UnknownFlagExits2WithUsage) {
  RunResult err = run_cli("serve --workers 3 2>&1 1>/dev/null");
  EXPECT_EQ(err.exit_code, 2);
  EXPECT_NE(err.output.find("unknown option '--workers'"), std::string::npos)
      << err.output;
  EXPECT_NE(err.output.find("usage:"), std::string::npos);
}

TEST(CliServe, HelpExitsZeroWithoutRunning) {
  RunResult out = run_cli("serve --help 2>/dev/null");
  EXPECT_EQ(out.exit_code, 0);
  EXPECT_NE(out.output.find("usage:"), std::string::npos);
}

TEST(CliServe, InvalidPolicyExits2) {
  RunResult err = run_cli(
      "serve --scale tiny --seed 3 --tests 100 --policy never "
      "2>&1 1>/dev/null");
  EXPECT_EQ(err.exit_code, 2);
  EXPECT_NE(err.output.find("--policy"), std::string::npos) << err.output;
}

// Every malformed value of the §12 flags is a usage error caught before
// the (expensive) world generation: exit 2 with the flag named on stderr.
TEST(CliServe, InvalidListenPortExits2) {
  for (const char* bad : {"--listen nope", "--listen 70000", "--listen 12x"}) {
    RunResult err = run_cli(std::string("serve --scale tiny ") + bad +
                            " 2>&1 1>/dev/null");
    EXPECT_EQ(err.exit_code, 2) << bad;
    EXPECT_NE(err.output.find("--listen"), std::string::npos)
        << bad << ": " << err.output;
  }
}

TEST(CliServe, InvalidConnectExits2) {
  for (const char* bad :
       {"--connect nohost", "--connect :99", "--connect h:0",
        "--connect h:huge"}) {
    RunResult err = run_cli(std::string("serve --scale tiny ") + bad +
                            " 2>&1 1>/dev/null");
    EXPECT_EQ(err.exit_code, 2) << bad;
    EXPECT_NE(err.output.find("--connect"), std::string::npos)
        << bad << ": " << err.output;
  }
}

TEST(CliServe, ListenAndConnectAreMutuallyExclusive) {
  RunResult err = run_cli(
      "serve --scale tiny --listen 0 --connect h:9 2>&1 1>/dev/null");
  EXPECT_EQ(err.exit_code, 2);
  EXPECT_NE(err.output.find("mutually exclusive"), std::string::npos)
      << err.output;
}

TEST(CliServe, InvalidRetentionExits2) {
  for (const char* bad : {"--epoch -3", "--epoch x", "--retain -1",
                          "--retain 1.5"}) {
    RunResult err = run_cli(std::string("serve --scale tiny ") + bad +
                            " 2>&1 1>/dev/null");
    EXPECT_EQ(err.exit_code, 2) << bad;
  }
}

TEST(CliServe, UncreatableWalDirExits2) {
  RunResult err = run_cli(
      "serve --scale tiny --wal-dir /proc/nope/wal 2>&1 1>/dev/null");
  EXPECT_EQ(err.exit_code, 2);
  EXPECT_NE(err.output.find("--wal-dir"), std::string::npos) << err.output;
}

// pathmodel validates every flag against its closed set before any
// simulation runs: a bad value is a usage error (exit 2, flag named).
TEST(CliPathmodel, InvalidCcExits2) {
  RunResult err = run_cli("pathmodel --cc vegas 2>&1 1>/dev/null");
  EXPECT_EQ(err.exit_code, 2);
  EXPECT_NE(err.output.find("--cc"), std::string::npos) << err.output;
}

TEST(CliPathmodel, InvalidScenarioExits2) {
  RunResult err = run_cli("pathmodel --scenario moon 2>&1 1>/dev/null");
  EXPECT_EQ(err.exit_code, 2);
  EXPECT_NE(err.output.find("--scenario"), std::string::npos) << err.output;
}

TEST(CliPathmodel, InvalidTestsExits2) {
  for (const char* bad : {"--tests 0", "--tests -2", "--tests x",
                          "--tests 1001"}) {
    RunResult err = run_cli(std::string("pathmodel ") + bad +
                            " 2>&1 1>/dev/null");
    EXPECT_EQ(err.exit_code, 2) << bad;
    EXPECT_NE(err.output.find("--tests"), std::string::npos)
        << bad << ": " << err.output;
  }
}

TEST(CliPathmodel, UnwritableOutExits2) {
  RunResult err =
      run_cli("pathmodel --out /proc/nope/cases.csv 2>&1 1>/dev/null");
  EXPECT_EQ(err.exit_code, 2);
  EXPECT_NE(err.output.find("--out"), std::string::npos) << err.output;
}

TEST(CliPathmodel, CsvExportRunsEndToEnd) {
  std::string csv = ::testing::TempDir() + "netcong-cli-pathmodel.csv";
  RunResult run = run_cli("pathmodel --cc cubic --scenario sender "
                          "--tests 1 --out " + csv + " 2>&1");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("sender_limited"), std::string::npos)
      << run.output;
  std::FILE* f = std::fopen(csv.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char header[256] = {0};
  ASSERT_NE(std::fgets(header, sizeof(header), f), nullptr);
  std::fclose(f);
  EXPECT_NE(std::string(header).find("predicted_label"), std::string::npos);
  std::remove(csv.c_str());
}

TEST(CliServe, ConnectToDeadPortIsRuntimeErrorNotUsage) {
  // A well-formed --connect that finds nobody listening exits 1, not 2 —
  // the flag was fine, the world was not.
  RunResult err = run_cli(
      "serve --scale tiny --seed 3 --tests 50 --connect 127.0.0.1:1 "
      "2>&1 1>/dev/null");
  EXPECT_EQ(err.exit_code, 1);
}

TEST(CliServe, ListenSelfFeedAndWalRunEndToEnd) {
  // The full §12 surface in one invocation: ephemeral listener with the
  // log fed through the socket, WAL persistence, and retention. A second
  // run over the same --wal-dir then replays the recovered log.
  std::string wal = ::testing::TempDir() + "netcong-cli-wal";
  // Start from an empty WAL dir: the second run below replays the first
  // run's log, so a dir surviving *across* test invocations would recover
  // and re-append its whole history — the log roughly doubles per run and
  // a few dozen CI runs turn recovery into a multi-GB replay.
  std::system(("rm -rf " + wal).c_str());
  std::string flags =
      "serve --scale tiny --seed 3 --tests 300 --snapshots 2 --listen 0 "
      "--epoch 64 --retain 2 --wal-dir " + wal;
  RunResult first = run_cli(flags + " 2>&1");
  ASSERT_EQ(first.exit_code, 0) << first.output;
  EXPECT_NE(first.output.find("listening on 127.0.0.1:"), std::string::npos)
      << first.output;
  EXPECT_NE(first.output.find("socket:"), std::string::npos);
  EXPECT_NE(first.output.find("wal:"), std::string::npos);
  EXPECT_NE(first.output.find("retention:"), std::string::npos);
  EXPECT_EQ(first.output.find("[INCONSISTENT]"), std::string::npos)
      << first.output;

  RunResult second = run_cli(flags + " 2>&1");
  EXPECT_EQ(second.exit_code, 0) << second.output;
  EXPECT_NE(second.output.find("recovered"), std::string::npos)
      << second.output;
}

// Parses subcommand names out of the help text: the indented block between
// "subcommands:" and the following blank line, first token of each line.
std::vector<std::string> registered_subcommands() {
  RunResult help = run_cli("--help 2>/dev/null");
  std::vector<std::string> names;
  std::istringstream in(help.output);
  std::string line;
  bool in_block = false;
  while (std::getline(in, line)) {
    if (line == "subcommands:") {
      in_block = true;
      continue;
    }
    if (!in_block) continue;
    if (line.empty()) break;
    std::istringstream fields(line);
    std::string name;
    fields >> name;
    if (!name.empty()) names.push_back(name);
  }
  return names;
}

TEST(CliSmoke, EveryRegisteredSubcommandRuns) {
  // Fast flags for each subcommand: tiny world, short workloads. A
  // subcommand in the registry but missing here fails the ASSERT below —
  // add a smoke invocation when you add a subcommand.
  const std::map<std::string, std::string> smoke_args = {
      {"topology", "--scale tiny --seed 3"},
      {"adversary",
       "--scale tiny --seed 3 --scenario churn --fraction 0.5 --days 2 "
       "--tests-per-client 2"},
      {"campaign", "--scale tiny --seed 3 --days 1 --tests-per-client 1"},
      {"coverage", "--scale tiny --seed 3"},
      {"diurnal", "--scale tiny --seed 3 --days 2"},
      {"faults", "--list"},
      {"pathmodel", "--cc reno --scenario sender --tests 1"},
      {"serve", "--scale tiny --seed 3 --tests 500 --shards 2 --snapshots 2"},
      {"stats", "--scale tiny --seed 3 --days 1 --tests-per-client 1"},
  };

  std::vector<std::string> names = registered_subcommands();
  ASSERT_GE(names.size(), 6u) << "failed to parse subcommands from help";
  for (const std::string& name : names) {
    auto it = smoke_args.find(name);
    ASSERT_NE(it, smoke_args.end())
        << "subcommand '" << name << "' has no smoke invocation";
    RunResult run = run_cli(it->first + " " + it->second + " 2>&1");
    EXPECT_EQ(run.exit_code, 0)
        << "subcommand '" << name << "' failed:\n"
        << run.output;
    EXPECT_FALSE(run.output.empty())
        << "subcommand '" << name << "' produced no output";
  }
}

}  // namespace
