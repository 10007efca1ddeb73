// Integration tests for the command-line tools: drive the real
// fairtopk_audit binary (path injected by CMake) against a CSV written
// through the library and check exit codes, report output, and the
// repaired-CSV round trip; fairtopk_serve's flag checks ride along.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/rng.h"
#include "relation/csv.h"
#include "relation/table.h"

#if !defined(FAIRTOPK_AUDIT_PATH) || !defined(FAIRTOPK_SERVE_PATH)
#error "FAIRTOPK_AUDIT_PATH and FAIRTOPK_SERVE_PATH must be defined by the build"
#endif

namespace fairtopk {
namespace {

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

/// Single-quotes `s` for the shell so TMPDIR-derived paths with spaces
/// or metacharacters survive std::system().
std::string Quote(const std::string& s) {
  std::string quoted = "'";
  for (char c : s) {
    if (c == '\'') {
      quoted += "'\\''";
    } else {
      quoted += c;
    }
  }
  quoted += "'";
  return quoted;
}

/// Runs `binary` with `args` and stdin from `in_path` (at EOF by
/// default), capturing stdout into `out_path` and stderr into
/// `err_path`. Returns the process exit code (-1 on system() failure).
int RunTool(const std::string& binary, const std::string& args,
            const std::string& out_path,
            const std::string& err_path = "/dev/null",
            const std::string& in_path = "/dev/null") {
  const std::string command = Quote(binary) + " " + args + " < " +
                              Quote(in_path) + " > " + Quote(out_path) +
                              " 2> " + Quote(err_path);
  const int status = std::system(command.c_str());
  if (status < 0) return -1;
  return WEXITSTATUS(status);
}

/// Runs fairtopk_audit with `args`, as RunTool.
int RunCli(const std::string& args, const std::string& out_path,
           const std::string& err_path = "/dev/null") {
  return RunTool(FAIRTOPK_AUDIT_PATH, args, out_path, err_path);
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Writes a deterministic biased-demo CSV: females never reach the
/// top because the score penalizes them.
std::string WriteDemoCsv() {
  Schema schema;
  EXPECT_TRUE(schema.AddCategorical("gender", {"F", "M"}).ok());
  EXPECT_TRUE(schema.AddCategorical("region", {"north", "south"}).ok());
  EXPECT_TRUE(schema.AddNumeric("score").ok());
  auto table = Table::Create(std::move(schema));
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const int16_t gender = static_cast<int16_t>(rng.UniformUint64(2));
    const int16_t region = static_cast<int16_t>(rng.UniformUint64(2));
    const double score =
        50.0 + (gender == 1 ? 15.0 : 0.0) + rng.Gaussian() * 5.0;
    EXPECT_TRUE(table
                    ->AppendRow({Cell::Code(gender), Cell::Code(region),
                                 Cell::Value(score)})
                    .ok());
  }
  const std::string path = TempPath("fairtopk_cli_demo.csv");
  EXPECT_TRUE(WriteCsvFile(*table, path).ok());
  return path;
}

TEST(CliTest, MissingArgumentsPrintUsageAndFail) {
  const std::string out = TempPath("cli_usage.out");
  EXPECT_EQ(RunCli("", out), 2);
  EXPECT_EQ(RunCli("--csv only.csv", out), 2);
  EXPECT_EQ(RunCli("--csv x.csv --rank-by s --measure nope", out), 2);
}

// Numeric flags parse strictly: a malformed or out-of-range value is a
// usage error naming the flag and the value, never a silent default.
TEST(CliTest, MalformedIntegerFlagIsUsageError) {
  const std::string csv = WriteDemoCsv();
  const std::string out = TempPath("cli_bad_int.out");
  const std::string err = TempPath("cli_bad_int.err");
  const std::string base = "--csv " + Quote(csv) + " --rank-by score ";
  EXPECT_EQ(RunCli(base + "--k-max 1x", out, err), 2);
  EXPECT_NE(ReadAll(err).find("--k-max expects an integer"), std::string::npos)
      << ReadAll(err);
  EXPECT_NE(ReadAll(err).find("'1x'"), std::string::npos) << ReadAll(err);
  EXPECT_EQ(RunCli(base + "--tau abc", out), 2);
  EXPECT_EQ(RunCli(base + "--k-min 0", out), 2);
  EXPECT_EQ(RunCli(base + "--bins 1", out), 2);
}

TEST(CliTest, MalformedNumberFlagIsUsageError) {
  const std::string csv = WriteDemoCsv();
  const std::string out = TempPath("cli_bad_number.out");
  const std::string err = TempPath("cli_bad_number.err");
  const std::string base = "--csv " + Quote(csv) + " --rank-by score ";
  EXPECT_EQ(RunCli(base + "--alpha 0.8x", out, err), 2);
  EXPECT_NE(ReadAll(err).find("--alpha expects a number"), std::string::npos)
      << ReadAll(err);
  EXPECT_NE(ReadAll(err).find("'0.8x'"), std::string::npos) << ReadAll(err);
  EXPECT_EQ(RunCli(base + "--lower abc", out), 2);
  // Only finite values are numbers.
  EXPECT_EQ(RunCli(base + "--alpha nan", out), 2);
  EXPECT_EQ(RunCli(base + "--upper inf", out), 2);
}

// The flags are the declared fields, spelled with dashes: the old
// `--kmin` is unknown to both tools, and the error lists `--k-min`.
TEST(CliTest, UndeclaredFlagListsTheDeclaredOnes) {
  const std::string csv = WriteDemoCsv();
  const std::string out = TempPath("cli_kmin.out");
  const std::string err = TempPath("cli_kmin.err");
  const std::string args =
      "--csv " + Quote(csv) + " --rank-by score --kmin 5";
  for (const char* tool : {FAIRTOPK_AUDIT_PATH, FAIRTOPK_SERVE_PATH}) {
    EXPECT_EQ(RunTool(tool, args, out, err), 2) << tool;
    EXPECT_NE(ReadAll(err).find("unknown flag: --kmin"), std::string::npos)
        << ReadAll(err);
    EXPECT_NE(ReadAll(err).find("--k-min"), std::string::npos)
        << ReadAll(err);
  }
}

// A bound flag the selected detector does not read is refused, naming
// the detector's bound fields, instead of being dropped unread.
TEST(CliTest, BoundFlagOfTheOtherFamilyIsUsageError) {
  const std::string csv = WriteDemoCsv();
  const std::string out = TempPath("cli_other_bound.out");
  const std::string err = TempPath("cli_other_bound.err");
  const std::string base = "--csv " + Quote(csv) + " --rank-by score ";
  EXPECT_EQ(RunCli(base + "--measure prop --upper 5", out, err), 2);
  EXPECT_NE(ReadAll(err).find("'upper'"), std::string::npos) << ReadAll(err);
  EXPECT_NE(ReadAll(err).find("alpha, beta"), std::string::npos)
      << ReadAll(err);
  EXPECT_EQ(RunCli(base + "--measure global --beta 1.5", out, err), 2);
  EXPECT_NE(ReadAll(err).find("'beta'"), std::string::npos) << ReadAll(err);
}

// --k-max is the session default, as open's k_max, so both tools clamp
// it to |D| (200 rows here); a detect request's own k_max is not
// clamped.
TEST(CliTest, KMaxAboveTheRowCountClampsToIt) {
  const std::string csv = WriteDemoCsv();
  const std::string out = TempPath("cli_clamp.out");
  const std::string args = "--csv " + Quote(csv) +
                           " --rank-by score --k-min 190 --k-max 1000 "
                           "--tau 20";
  ASSERT_EQ(RunCli(args + " --measure prop --json", out), 0);
  auto report = ParseJson(ReadAll(out).substr(0, ReadAll(out).find('\n')));
  ASSERT_TRUE(report.ok()) << ReadAll(out);
  EXPECT_EQ(report->NumberOr("k_min", 0), 190);
  EXPECT_EQ(report->NumberOr("k_max", 0), 200);

  const std::string request = TempPath("cli_clamp.jsonl");
  {
    std::ofstream script(request);
    script << R"({"op":"detect"})" << '\n';
  }
  ASSERT_EQ(RunTool(FAIRTOPK_SERVE_PATH, args, out, "/dev/null", request), 0);
  auto response = ParseJson(ReadAll(out));
  ASSERT_TRUE(response.ok()) << ReadAll(out);
  const JsonValue* served = response->Find("data")->Find("report");
  ASSERT_NE(served, nullptr) << ReadAll(out);
  EXPECT_EQ(served->NumberOr("k_min", 0), 190);
  EXPECT_EQ(served->NumberOr("k_max", 0), 200);
}

// Every search runs on one thread: fairtopk_audit has no --threads,
// and fairtopk_serve accepts --threads 1 only.
TEST(CliTest, ThreadCountsOtherThanOneAreUsageErrors) {
  const std::string csv = WriteDemoCsv();
  const std::string out = TempPath("cli_threads.out");
  const std::string base = "--csv " + Quote(csv) + " --rank-by score ";
  EXPECT_EQ(RunCli(base + "--threads 2", out), 2);
  EXPECT_EQ(RunTool(FAIRTOPK_SERVE_PATH, base + "--threads 2", out), 2);
  EXPECT_EQ(RunTool(FAIRTOPK_SERVE_PATH, base + "--threads 0", out), 2);
  EXPECT_EQ(RunTool(FAIRTOPK_SERVE_PATH, base + "--threads 1", out), 0);
}

// --help and capabilities render the ops from one table, so they name
// the same ops; --help's flags are open's fields plus the process's
// own.
TEST(CliTest, ServeHelpAndCapabilitiesListTheSameOps) {
  const std::string help_out = TempPath("cli_serve_help.out");
  ASSERT_EQ(RunTool(FAIRTOPK_SERVE_PATH, "--help", help_out), 0);
  std::set<std::string> help_ops;
  std::set<std::string> help_flags;
  {
    std::istringstream help(ReadAll(help_out));
    std::string line;
    std::set<std::string>* section = nullptr;
    while (std::getline(help, line)) {
      if (line.rfind("Ops ", 0) == 0) {
        section = &help_ops;
      } else if (line.rfind("Flags ", 0) == 0) {
        section = &help_flags;
      } else if (section != nullptr && line.rfind("  ", 0) == 0) {
        section->insert(line.substr(2, line.find(' ', 2) - 2));
      } else if (line.empty()) {
        section = nullptr;
      }
    }
  }

  const std::string request = TempPath("cli_serve_capabilities.jsonl");
  {
    std::ofstream out(request);
    out << R"({"op":"capabilities"})" << '\n';
  }
  const std::string csv = WriteDemoCsv();
  const std::string out = TempPath("cli_serve_capabilities.out");
  ASSERT_EQ(RunTool(FAIRTOPK_SERVE_PATH,
                    "--csv " + Quote(csv) + " --rank-by score", out,
                    "/dev/null", request),
            0);
  auto response = ParseJson(ReadAll(out));
  ASSERT_TRUE(response.ok()) << ReadAll(out);
  const JsonValue* ops = response->Find("data")->Find("ops");
  ASSERT_NE(ops, nullptr) << ReadAll(out);
  std::set<std::string> capability_ops;
  std::set<std::string> open_flags = {
      "--threads", "--workers", "--listen", "--host",
      "--metrics-port", "--slow-query-log", "--help"};
  for (const JsonValue& op : ops->array_items()) {
    capability_ops.insert(op.StringOr("name", ""));
    EXPECT_NE(op.Find("fields")->Find("op"), nullptr);
    if (op.StringOr("name", "") != "open") continue;
    for (const auto& [name, field] : op.Find("fields")->object_members()) {
      if (name == "op" || name == "id" || name == "name") continue;
      std::string flag = "--" + name;
      std::replace(flag.begin(), flag.end(), '_', '-');
      open_flags.insert(flag);
    }
  }
  EXPECT_EQ(capability_ops.size(), 17u);
  EXPECT_EQ(help_ops, capability_ops);
  EXPECT_EQ(help_flags, open_flags);
}

// A data dir's first start builds its snapshot from the CSV, so a
// data dir holding no snapshot and no --csv is a startup error that
// says what is missing.
TEST(CliTest, ServeEmptyDataDirWithoutCsvFails) {
  std::string dir = TempPath("cli_empty_data_dir_XXXXXX");
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const std::string out = TempPath("cli_empty_data_dir.out");
  const std::string err = TempPath("cli_empty_data_dir.err");
  EXPECT_EQ(RunTool(FAIRTOPK_SERVE_PATH, "--data-dir " + Quote(dir), out, err),
            1);
  EXPECT_NE(ReadAll(err).find("holds no snapshot yet"), std::string::npos)
      << ReadAll(err);
  EXPECT_NE(ReadAll(err).find("--csv"), std::string::npos) << ReadAll(err);
  ::rmdir(dir.c_str());
}

TEST(CliTest, DetectionReportsBiasedGroups) {
  const std::string csv = WriteDemoCsv();
  const std::string out = TempPath("cli_detect.out");
  const int code = RunCli("--csv " + Quote(csv) +
                              " --rank-by score --measure prop --k-min 10 "
                              "--k-max 30 --tau 20",
                          out);
  EXPECT_EQ(code, 0);
  const std::string report = ReadAll(out);
  EXPECT_NE(report.find("{gender=F}"), std::string::npos) << report;
  EXPECT_NE(report.find("biased representation"), std::string::npos);
}

TEST(CliTest, JsonModeEmitsParsableSkeleton) {
  const std::string csv = WriteDemoCsv();
  const std::string out = TempPath("cli_json.out");
  const int code = RunCli("--csv " + Quote(csv) +
                              " --rank-by score --measure global --lower "
                              "0.3 --k-min 10 --k-max 20 --tau 20 --json",
                          out);
  EXPECT_EQ(code, 0);
  const std::string json = ReadAll(out);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"measure\":\"global\""), std::string::npos);
  EXPECT_NE(json.find("\"results\":["), std::string::npos);
}

/// The report from "measure" on ("dataset" names the input file) with
/// its timings zeroed: what two runs of one audit must print alike.
std::string ReportFacts(const std::string& json) {
  const size_t measure = json.find("\"measure\":");
  std::string out = json.substr(measure == std::string::npos ? 0 : measure);
  for (const std::string tag : {"\"seconds\":", "\"cpu_seconds\":"}) {
    const size_t at = out.find(tag);
    if (at == std::string::npos) continue;
    const size_t begin = at + tag.size();
    out.replace(begin, out.find_first_of(",}", begin) - begin, "0");
  }
  return out;
}

// --save-snapshot writes the session the CSV run audited; --snapshot
// reopens it and prints the same report.
TEST(CliTest, SavedSnapshotReopensToTheSameReport) {
  const std::string csv = WriteDemoCsv();
  const std::string snapshot = TempPath("cli_demo.ftk");
  const std::string from_csv = TempPath("cli_from_csv.out");
  const std::string from_snapshot = TempPath("cli_from_snapshot.out");
  const std::string err = TempPath("cli_snapshot.err");
  std::remove(snapshot.c_str());
  const std::string query =
      " --measure prop --k-min 10 --k-max 30 --tau 20 --json";
  ASSERT_EQ(RunCli("--csv " + Quote(csv) + " --rank-by score" + query +
                       " --save-snapshot " + Quote(snapshot),
                   from_csv, err),
            0)
      << ReadAll(err);
  EXPECT_NE(ReadAll(err).find("snapshot written to"), std::string::npos)
      << ReadAll(err);
  ASSERT_EQ(RunCli("--snapshot " + Quote(snapshot) + query, from_snapshot,
                   err),
            0)
      << ReadAll(err);
  const std::string want = ReportFacts(ReadAll(from_csv));
  EXPECT_NE(want.find("\"gender\":\"F\""), std::string::npos) << want;
  EXPECT_EQ(ReportFacts(ReadAll(from_snapshot)), want);
  // --explain works on a snapshot too: it explains the session's
  // ranking.
  EXPECT_EQ(RunCli("--snapshot " + Quote(snapshot) +
                       " --k-min 10 --k-max 30 --tau 20 --explain",
                   from_snapshot, err),
            0)
      << ReadAll(err);
  EXPECT_NE(ReadAll(from_snapshot).find("Explanation for"),
            std::string::npos)
      << ReadAll(from_snapshot);
}

TEST(CliTest, VerifyModeUsesExitCodeThree) {
  const std::string csv = WriteDemoCsv();
  const std::string out = TempPath("cli_verify.out");
  // Females are demoted by the score: biased -> exit 3.
  EXPECT_EQ(RunCli("--csv " + Quote(csv) +
                       " --rank-by score --measure global --lower 0.3 "
                       "--k-min 10 --k-max 30 --verify gender=F",
                   out),
            3);
  EXPECT_NE(ReadAll(out).find("BIASED"), std::string::npos);
  // Males dominate the top: fair -> exit 0.
  EXPECT_EQ(RunCli("--csv " + Quote(csv) +
                       " --rank-by score --measure global --lower 0.3 "
                       "--k-min 10 --k-max 30 --verify gender=M",
                   out),
            0);
  // Unknown attribute -> error.
  EXPECT_EQ(RunCli("--csv " + Quote(csv) +
                       " --rank-by score --verify nope=1 --k-min 5 "
                       "--k-max 10",
                   out),
            1);
}

TEST(CliTest, RerankRepairsAndRoundTrips) {
  const std::string csv = WriteDemoCsv();
  const std::string repaired = TempPath("cli_repaired.csv");
  const std::string out = TempPath("cli_rerank.out");
  std::remove(repaired.c_str());
  const int code = RunCli("--csv " + Quote(csv) +
                              " --rank-by score --measure global --lower "
                              "0.25 --k-min 10 --k-max 30 --tau 20 --rerank " +
                              Quote(repaired),
                          out);
  EXPECT_EQ(code, 0);
  // The repaired CSV exists and carries the rank column.
  const std::string contents = ReadAll(repaired);
  ASSERT_FALSE(contents.empty());
  EXPECT_NE(contents.find("repaired_rank"), std::string::npos);
  // Auditing the repaired file by repaired_rank finds gender=F fair.
  EXPECT_EQ(RunCli("--csv " + Quote(repaired) +
                       " --rank-by repaired_rank --ascending --drop score "
                       "--measure global --lower 0.25 --k-min 10 --k-max 30 "
                       "--verify gender=F",
                   out),
            0);
}

}  // namespace
}  // namespace fairtopk
