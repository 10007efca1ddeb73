// smoke_serve_persist driver: the full persistence lifecycle through
// the real binary.
//
//   serve_persist_smoke <path-to-fairtopk_serve> <demo.csv>
//
//   1. Cold start: fairtopk_serve --data-dir D --csv demo.csv, mutate
//      the session over TCP (updates + an append), capture a detect
//      answer and snapshot_info; open a catalog session "aux" with its
//      own data_dir and update it too; SIGTERM — the server must
//      compact both op logs into new snapshot generations and exit 0.
//   2. Restart: fairtopk_serve --data-dir D with NO --csv. The same
//      detect request must return byte-identical results, stats must
//      show the compacted generation with an empty log; reopening
//      "aux" from its data_dir must show the same; a second SIGTERM
//      must again exit 0.
//
// This is the user-visible contract of --data-dir: kill the process
// whenever, restart it without the CSV, observe the same ranking.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <stdlib.h>

#include "common/json.h"
#include "smoke/serve_harness.h"

namespace {

using fairtopk::JsonValue;
using fairtopk::ParseJson;
using serve_harness::Fail;

/// Starts fairtopk_serve with `args` and returns it with its TCP port.
std::pair<serve_harness::Child, uint16_t> Start(
    const std::string& binary, std::vector<std::string> args) {
  args.insert(args.begin(), binary);
  serve_harness::Child server = serve_harness::Spawn(args);
  const uint16_t port = serve_harness::AnnouncedPort(server, "listening on");
  return {std::move(server), port};
}

/// Sends `script` on a new connection and returns the response lines.
std::vector<std::string> Drive(uint16_t port, const std::string& script) {
  return serve_harness::Lines(serve_harness::Drive(port, script));
}

JsonValue MustParseOk(const std::string& line, const std::string& what) {
  auto parsed = ParseJson(line);
  if (!parsed.ok()) Fail(what + ": unparseable response: " + line);
  if (!parsed->BoolOr("ok", false)) Fail(what + ": not ok: " + line);
  return std::move(parsed).value();
}

/// data.storage of a parsed response (every persistence op nests its
/// storage report under the protocol's `data` wrapper).
const JsonValue& StorageOf(const JsonValue& response,
                           const std::string& what) {
  const JsonValue* data = response.Find("data");
  const JsonValue* storage = data != nullptr ? data->Find("storage") : nullptr;
  if (storage == nullptr) Fail(what + ": no 'data.storage' object");
  return *storage;
}

uint64_t StorageUint(const JsonValue& response, const char* field,
                     const std::string& what) {
  const JsonValue* value = StorageOf(response, what).Find(field);
  if (value == nullptr || !value->is_number()) {
    Fail(what + ": no numeric storage." + field);
  }
  return static_cast<uint64_t>(value->number_value());
}

const char* kDetect =
    "{\"op\":\"detect\",\"id\":\"d\",\"measure\":\"global\","
    "\"algo\":\"bounds\",\"lower\":0.4}\n";

/// Blanks the report's flat `"stats":{...}` object — wall/CPU seconds
/// are legitimately different across runs; everything else (patterns,
/// sizes, counts) must be byte-identical.
std::string StripTimingStats(std::string line) {
  const std::string key = "\"stats\":{";
  const size_t at = line.find(key);
  if (at == std::string::npos) {
    Fail("detect response carries no stats object: " + line);
  }
  size_t stop = line.find('}', at);
  if (stop == std::string::npos) Fail("unterminated stats object");
  ++stop;
  if (stop < line.size() && line[stop] == ',') ++stop;
  line.erase(at, stop - at);
  return line;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s <fairtopk_serve> <demo.csv>\n", argv[0]);
    return 2;
  }
  serve_harness::Begin("serve_persist_smoke", 45);
  const std::string binary = argv[1];
  const std::string csv = argv[2];
  char data_dir_template[] = "persist_smoke_XXXXXX";
  if (mkdtemp(data_dir_template) == nullptr) Fail("mkdtemp");
  const std::string data_dir = data_dir_template;
  char aux_dir_template[] = "persist_smoke_aux_XXXXXX";
  if (mkdtemp(aux_dir_template) == nullptr) Fail("mkdtemp");
  // Absolute: the server resolves a catalog data_dir itself.
  const std::string aux_dir =
      std::filesystem::absolute(aux_dir_template).string();
  const std::string open_aux =
      "{\"op\":\"open\",\"id\":\"o\",\"name\":\"aux\",\"data_dir\":\"" +
      fairtopk::JsonEscape(aux_dir) + "\"";

  // ---- Phase 1: cold start, mutate, capture, SIGTERM-compact. ----
  auto [first, first_port] =
      Start(binary, {"--data-dir", data_dir, "--csv", csv, "--rank-by",
                     "score", "--k-min", "5", "--k-max", "20", "--tau", "6",
                     "--listen", "0"});
  if (first.stderr_text.find("cold start") == std::string::npos) {
    Fail("first start did not report a cold start:\n" + first.stderr_text);
  }
  std::string mutate;
  mutate +=
      "{\"op\":\"update\",\"id\":\"u\",\"scores\":[[0,99.5],[3,-2.25],"
      "[7,41.0]]}\n";
  mutate +=
      "{\"op\":\"append\",\"id\":\"a\",\"rows\":[{\"gender\":\"F\","
      "\"region\":\"north\",\"score\":55.5}]}\n";
  mutate += kDetect;
  mutate += "{\"op\":\"snapshot_info\",\"id\":\"s\"}\n";
  // A durable catalog session: cold start from the CSV, one update.
  mutate += open_aux + ",\"csv\":\"" + fairtopk::JsonEscape(csv) +
            "\",\"rank_by\":\"score\"}\n";
  mutate +=
      "{\"op\":\"update\",\"id\":\"u2\",\"session\":\"aux\","
      "\"scores\":[[1,12.5]]}\n";
  mutate +=
      "{\"op\":\"snapshot_info\",\"id\":\"s2\",\"session\":\"aux\"}\n";
  const std::vector<std::string> phase1 = Drive(first_port, mutate);
  if (phase1.size() != 7) {
    Fail("phase 1 got " + std::to_string(phase1.size()) + " responses");
  }
  MustParseOk(phase1[0], "update");
  MustParseOk(phase1[1], "append");
  const std::string detect_before = phase1[2];
  MustParseOk(detect_before, "detect (phase 1)");
  JsonValue info1 = MustParseOk(phase1[3], "snapshot_info");
  if (StorageUint(info1, "log_records", "snapshot_info") != 2) {
    Fail("expected 2 logged ops before compaction: " + phase1[3]);
  }
  const uint64_t gen1 = StorageUint(info1, "generation", "snapshot_info");
  MustParseOk(phase1[4], "open aux");
  MustParseOk(phase1[5], "update aux");
  JsonValue aux_info1 = MustParseOk(phase1[6], "snapshot_info aux");
  if (StorageUint(aux_info1, "log_records", "snapshot_info aux") != 1) {
    Fail("expected 1 logged op in aux before compaction: " + phase1[6]);
  }
  const uint64_t aux_gen1 =
      StorageUint(aux_info1, "generation", "snapshot_info aux");
  const std::string first_stderr = serve_harness::Stop(first);
  for (const char* name : {"default", "aux"}) {
    if (first_stderr.find("session " + std::string(name) + ": compacted") ==
        std::string::npos) {
      Fail("shutdown did not report compacting session " +
           std::string(name) + ":\n" + first_stderr);
    }
  }

  // ---- Phase 2: restart WITHOUT the CSV, must replay nothing and ----
  // ---- answer identically. Serving knobs (--k-min/--k-max/--tau) ----
  // ---- are per-invocation flags, not session state, so the       ----
  // ---- restart passes the same ones.                             ----
  auto [second, second_port] =
      Start(binary, {"--data-dir", data_dir, "--k-min", "5", "--k-max", "20",
                     "--tau", "6", "--listen", "0"});
  if (second.stderr_text.find("snapshot generation") == std::string::npos) {
    Fail("restart did not open from the snapshot:\n" + second.stderr_text);
  }
  std::string probe;
  probe += kDetect;
  probe += "{\"op\":\"stats\",\"id\":\"s\"}\n";
  probe += open_aux + "}\n";
  probe +=
      "{\"op\":\"snapshot_info\",\"id\":\"s2\",\"session\":\"aux\"}\n";
  const std::vector<std::string> phase2 = Drive(second_port, probe);
  if (phase2.size() != 4) {
    Fail("phase 2 got " + std::to_string(phase2.size()) + " responses");
  }
  const std::string detect_after = phase2[0];
  MustParseOk(detect_after, "detect (phase 2)");
  if (StripTimingStats(detect_after) != StripTimingStats(detect_before)) {
    Fail("detect answers differ across restart:\n  before: " +
         detect_before + "\n  after:  " + detect_after);
  }
  JsonValue stats = MustParseOk(phase2[1], "stats");
  if (StorageUint(stats, "generation", "stats") != gen1 + 1) {
    Fail("compaction did not advance the generation: " + phase2[1]);
  }
  if (StorageUint(stats, "log_records", "stats") != 0) {
    Fail("restart after compaction still carries op-log records: " +
         phase2[1]);
  }
  if (!StorageOf(stats, "stats").BoolOr("persistent", false)) {
    Fail("stats.storage.persistent is not true: " + phase2[1]);
  }
  MustParseOk(phase2[2], "reopen aux");
  JsonValue aux_info2 = MustParseOk(phase2[3], "snapshot_info aux");
  if (StorageUint(aux_info2, "log_records", "snapshot_info aux") != 0) {
    Fail("aux reopened with op-log records (not compacted at shutdown): " +
         phase2[3]);
  }
  if (StorageUint(aux_info2, "generation", "snapshot_info aux") <= aux_gen1) {
    Fail("compaction did not advance aux's generation: " + phase2[3]);
  }
  serve_harness::Stop(second);
  std::error_code discard;
  std::filesystem::remove_all(data_dir, discard);
  std::filesystem::remove_all(aux_dir, discard);

  std::printf("serve_persist_smoke: OK (generation %llu -> %llu)\n",
              static_cast<unsigned long long>(gen1),
              static_cast<unsigned long long>(gen1 + 1));
  return 0;
}
