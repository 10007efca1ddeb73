// fairtopk_audit: end-to-end ranked-representation audit of a CSV file.
//
// Usage:
//   fairtopk_audit --csv data.csv --rank-by score [options]
//   fairtopk_audit --snapshot data.ftk [options]
//
// Pipeline: load the CSV (numeric columns inferred), bucketize numeric
// attributes so they can participate in group definitions, open an
// AuditSession ranked by the requested score column (descending by
// default) or restore one from a snapshot, detect groups with biased
// representation under the chosen detector (resolved from the
// api::DetectorRegistry by --measure x --algo), and print a text
// report (or JSON with --json). Optionally explains the most biased
// group via the Shapley pipeline.
//
// `fairtopk_audit --help` prints the flag table (PrintUsage below).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "api/audit.h"
#include "api/canonical.h"
#include "common/strings.h"
#include "detect/presentation.h"
#include "detect/suggest.h"
#include "detect/verify.h"
#include "explain/group_explainer.h"
#include "mitigate/rerank.h"
#include "relation/csv.h"
#include "report/json_report.h"
#include "service/audit_session.h"
#include "service/table_loader.h"

namespace fairtopk {
namespace {

struct Args {
  std::string csv;
  std::string rank_by;
  bool ascending = false;
  std::string measure = "prop";
  std::string algo = "bounds";
  /// Registry entry resolved from (measure, algo) at the end of
  /// ParseArgs.
  const api::DetectorDescriptor* detector = nullptr;
  double alpha = 0.8;
  double beta = std::numeric_limits<double>::infinity();
  double lower_fraction = 0.5;
  double upper = std::numeric_limits<double>::infinity();
  int k_min = 10;
  int k_max = 49;
  int tau = 0;  // 0 = 5% of rows
  int bins = 4;
  std::vector<std::string> drop;
  bool suggest = false;
  bool explain = false;
  bool json = false;
  std::string verify_group;
  std::string rerank_path;
  std::string snapshot;       ///< open this snapshot instead of a CSV
  std::string save_snapshot;  ///< write the opened session here
};

/// The flag table, printed by --help and after argument errors.
void PrintUsage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: fairtopk_audit --csv data.csv --rank-by column [options]\n"
      "\n"
      "Options:\n"
      "  --csv PATH             input CSV file (required)\n"
      "  --rank-by COLUMN       numeric column to rank by, descending\n"
      "                         (required)\n"
      "  --ascending            rank ascending instead\n"
      "  --measure global|prop  fairness measure (default: prop)\n"
      "  --algo itertd|bounds|upper\n"
      "                         detection algorithm within the measure\n"
      "                         (default: bounds; itertd is the paper\n"
      "                         baseline, upper reports\n"
      "                         over-represented groups)\n"
      "  --alpha X              proportional multiplier (default 0.8)\n"
      "  --beta X               proportional upper multiplier\n"
      "                         (default +inf; used by --algo upper\n"
      "                         and verification)\n"
      "  --lower X              global lower bound, fraction of k\n"
      "                         (default 0.5: L_k = 0.5k staircase)\n"
      "  --upper X              constant global upper bound (default\n"
      "                         +inf; used by --algo upper and\n"
      "                         verification)\n"
      "  --kmin K --kmax K      rank range (default 10..49, clamped\n"
      "                         to |D|)\n"
      "  --tau N                group size threshold (default 5%% of\n"
      "                         rows)\n"
      "  --bins N               buckets per numeric attribute\n"
      "                         (default 4)\n"
      "  --drop col1,col2       columns to ignore (ids, names, ...)\n"
      "  --suggest              calibrate bounds automatically\n"
      "  --explain              Shapley-explain the most biased group\n"
      "  --json                 emit the detection report as JSON\n"
      "  --verify \"A=v;B=w\"     instead of detecting, verify the\n"
      "                         given group against the bounds and\n"
      "                         report the violating k values\n"
      "  --rerank PATH          after detection, repair the ranking\n"
      "                         so the detected groups meet the\n"
      "                         bounds and write the re-ranked table\n"
      "                         to PATH as CSV\n"
      "  --snapshot PATH        open a saved snapshot instead of\n"
      "                         loading a CSV (skips parse, bucketize\n"
      "                         and sort; --csv/--rank-by are not\n"
      "                         needed)\n"
      "  --save-snapshot PATH   after opening the session, write it to\n"
      "                         PATH as a snapshot for later --snapshot\n"
      "                         opens and fairtopk_serve --data-dir\n"
      "  --help                 print this message and exit\n");
}

bool ParseArgs(int argc, char** argv, Args& args, bool& help) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    auto next_int = [&](const char* name, int min, int max,
                        int& out) -> bool {
      const char* v = next(name);
      if (v == nullptr) return false;
      auto parsed = ParseInt(v);
      if (!parsed.has_value() || *parsed < min || *parsed > max) {
        std::fprintf(stderr, "%s expects an integer in [%d, %d], got '%s'\n",
                     name, min, max, v);
        return false;
      }
      out = static_cast<int>(*parsed);
      return true;
    };
    auto next_double = [&](const char* name, double& out) -> bool {
      const char* v = next(name);
      if (v == nullptr) return false;
      auto parsed = ParseDouble(v);
      if (!parsed.has_value()) {
        std::fprintf(stderr, "%s expects a number, got '%s'\n", name, v);
        return false;
      }
      out = *parsed;
      return true;
    };
    if (flag == "--help" || flag == "-h") {
      help = true;
      return true;
    } else if (flag == "--csv") {
      const char* v = next("--csv");
      if (v == nullptr) return false;
      args.csv = v;
    } else if (flag == "--rank-by") {
      const char* v = next("--rank-by");
      if (v == nullptr) return false;
      args.rank_by = v;
    } else if (flag == "--ascending") {
      args.ascending = true;
    } else if (flag == "--measure") {
      const char* v = next("--measure");
      if (v == nullptr) return false;
      args.measure = v;
    } else if (flag == "--algo") {
      const char* v = next("--algo");
      if (v == nullptr) return false;
      args.algo = v;
    } else if (flag == "--alpha") {
      if (!next_double("--alpha", args.alpha)) return false;
    } else if (flag == "--beta") {
      if (!next_double("--beta", args.beta)) return false;
    } else if (flag == "--upper") {
      if (!next_double("--upper", args.upper)) return false;
    } else if (flag == "--lower") {
      if (!next_double("--lower", args.lower_fraction)) return false;
    } else if (flag == "--kmin") {
      if (!next_int("--kmin", 1, 1 << 30, args.k_min)) return false;
    } else if (flag == "--kmax") {
      if (!next_int("--kmax", 1, 1 << 30, args.k_max)) return false;
    } else if (flag == "--tau") {
      if (!next_int("--tau", 1, 1 << 30, args.tau)) return false;
    } else if (flag == "--bins") {
      if (!next_int("--bins", 2, 1 << 20, args.bins)) return false;
    } else if (flag == "--drop") {
      const char* v = next("--drop");
      if (v == nullptr) return false;
      args.drop = Split(v, ',');
    } else if (flag == "--verify") {
      const char* v = next("--verify");
      if (v == nullptr) return false;
      args.verify_group = v;
    } else if (flag == "--rerank") {
      const char* v = next("--rerank");
      if (v == nullptr) return false;
      args.rerank_path = v;
    } else if (flag == "--snapshot") {
      const char* v = next("--snapshot");
      if (v == nullptr) return false;
      args.snapshot = v;
    } else if (flag == "--save-snapshot") {
      const char* v = next("--save-snapshot");
      if (v == nullptr) return false;
      args.save_snapshot = v;
    } else if (flag == "--suggest") {
      args.suggest = true;
    } else if (flag == "--explain") {
      args.explain = true;
    } else if (flag == "--json") {
      args.json = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      PrintUsage(stderr);
      return false;
    }
  }
  // A snapshot open carries its own ranking column and direction.
  if ((args.csv.empty() || args.rank_by.empty()) && args.snapshot.empty()) {
    PrintUsage(stderr);
    return false;
  }
  // One registry lookup validates the (measure, algo) matrix — no
  // hand-maintained flag table to drift from the detector set.
  auto detector =
      api::DetectorRegistry::Global().Resolve(args.measure, args.algo);
  if (!detector.ok()) {
    std::fprintf(stderr, "%s\n", detector.status().ToString().c_str());
    return false;
  }
  args.detector = *detector;
  if (!args.detector->lower_violations) {
    // An upper detector with its bound left at +inf can only report
    // nothing — refuse instead of printing a silently empty audit.
    const bool knob_set =
        args.detector->bounds_kind == api::BoundsKind::kGlobal
            ? !std::isinf(args.upper)
            : !std::isinf(args.beta);
    if (!knob_set) {
      std::fprintf(stderr,
                   "--algo upper needs an upper bound: pass %s\n",
                   args.detector->bounds_kind == api::BoundsKind::kGlobal
                       ? "--upper X"
                       : "--beta X");
      return false;
    }
    // Over-represented groups must never become representation floors.
    if (!args.rerank_path.empty()) {
      std::fprintf(stderr,
                   "--rerank requires a lower-bound detector (--algo "
                   "upper reports over-represented groups)\n");
      return false;
    }
  }
  return true;
}

/// Parses "Attr=value;Attr2=value2" into a pattern over `space`.
Result<Pattern> ParseGroupSpec(const std::string& spec,
                               const PatternSpace& space) {
  std::vector<std::pair<std::string, std::string>> labels;
  for (const std::string& term : Split(spec, ';')) {
    auto parts = Split(term, '=');
    if (parts.size() != 2) {
      return Status::InvalidArgument("bad group term: " + term);
    }
    labels.emplace_back(Trim(parts[0]), Trim(parts[1]));
  }
  return PatternOfLabels(space, labels);
}

int RunAudit(const Args& args) {
  // One session holds the table, scores, ranking and index, whether
  // they come from the CSV or from a snapshot.
  Result<AuditSession> opened = [&]() -> Result<AuditSession> {
    if (!args.snapshot.empty()) {
      return AuditSession::OpenFromSnapshot(args.snapshot);
    }
    // Rank on the raw numeric column, then bucketize every OTHER
    // numeric column so it can join group definitions.
    FAIRTOPK_ASSIGN_OR_RETURN(
        Table table,
        LoadAuditTable(args.csv, args.rank_by, args.bins, args.drop));
    return AuditSession::Create(std::move(table), args.rank_by,
                                args.ascending);
  }();
  if (!opened.ok()) {
    std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
    return 1;
  }
  AuditSession& session = *opened;
  const Table& table = session.table();
  const PatternSpace& space = session.space();

  if (!args.save_snapshot.empty()) {
    Status saved = session.SaveSnapshot(args.save_snapshot);
    if (!saved.ok()) {
      std::fprintf(stderr, "%s\n", saved.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "snapshot written to %s (%llu bytes)\n",
                 args.save_snapshot.c_str(),
                 static_cast<unsigned long long>(
                     session.storage_info().snapshot_bytes));
  }

  // The typed request: detector by registry name, config and bounds
  // through the shared tool/canonical builders.
  api::AuditRequest request;
  request.detector = args.detector->name;
  request.config = MakeToolConfig(args.k_min, args.k_max, args.tau,
                                  /*threads=*/1, table.num_rows());
  Result<api::BoundsSpec> bounds = api::BoundsFromDefaults(
      args.detector->bounds_kind,
      api::BoundsDefaults{args.lower_fraction, args.alpha}, request.config);
  if (!bounds.ok()) {
    std::fprintf(stderr, "%s\n", bounds.status().ToString().c_str());
    return 1;
  }
  request.bounds = std::move(bounds).value();

  if (args.suggest) {
    auto suggestion = session.Suggest(request.config, SuggestOptions{});
    if (!suggestion.ok()) {
      std::fprintf(stderr, "%s\n", suggestion.status().ToString().c_str());
      return 1;
    }
    request.config.size_threshold = suggestion->size_threshold;
    if (std::holds_alternative<GlobalBoundSpec>(request.bounds)) {
      request.bounds = suggestion->global_bounds;
    } else {
      PropBoundSpec prop;
      prop.alpha = suggestion->alpha;
      request.bounds = prop;
    }
    std::fprintf(stderr,
                 "suggested: tau=%d global_level=%.2f alpha=%.2f\n",
                 suggestion->size_threshold, suggestion->global_level,
                 suggestion->alpha);
  }

  // The upper-bound knobs ride on top of the lower-bound expansion
  // (both default to +inf, i.e. disabled) — applied after the suggest
  // override, which calibrates only the lower side, so --upper/--beta
  // survive --suggest.
  if (auto* global = std::get_if<GlobalBoundSpec>(&request.bounds)) {
    global->upper = StepFunction::Constant(args.upper);
  } else {
    std::get<PropBoundSpec>(request.bounds).beta = args.beta;
  }

  if (!args.verify_group.empty()) {
    // Verification mode: check one declared group, skip detection.
    Result<Pattern> group = ParseGroupSpec(args.verify_group, space);
    if (!group.ok()) {
      std::fprintf(stderr, "%s\n", group.status().ToString().c_str());
      return 1;
    }
    Result<FairnessReport> report =
        std::holds_alternative<GlobalBoundSpec>(request.bounds)
            ? session.VerifyGlobal(*group,
                                   std::get<GlobalBoundSpec>(request.bounds),
                                   request.config)
            : session.VerifyProp(*group,
                                 std::get<PropBoundSpec>(request.bounds),
                                 request.config);
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      return 1;
    }
    std::printf("group %s: size=%zu, %s\n", group->ToString(space).c_str(),
                report->size_in_d,
                report->fair() ? "FAIR across the whole k range"
                               : "BIASED");
    for (const FairnessViolation& v : report->violations) {
      std::printf("  k=%d count=%zu bounds=[%.2f, %s]%s%s\n", v.k,
                  v.count, v.lower,
                  std::isinf(v.upper) ? "inf"
                                      : FormatDouble(v.upper, 2).c_str(),
                  v.below_lower ? " BELOW" : "",
                  v.above_upper ? " ABOVE" : "");
    }
    return report->fair() ? 0 : 3;
  }

  Result<api::AuditResponse> response = session.Detect(request);
  if (!response.ok()) {
    std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
    return 1;
  }
  const DetectionResult& detected = *response->result;

  // Per-k presentation annotations against the request's bounds kind.
  auto annotate = [&](int k) {
    if (const auto* global = std::get_if<GlobalBoundSpec>(&request.bounds)) {
      return AnnotateGlobal(detected, *global, k, GroupOrder::kByBiasDesc);
    }
    return AnnotateProp(detected, std::get<PropBoundSpec>(request.bounds), k,
                        GroupOrder::kByBiasDesc);
  };

  if (args.json) {
    ReportContext context{
        args.snapshot.empty() ? args.csv : args.snapshot, args.measure,
        args.detector->name};
    std::printf("%s\n", DetectionResultToJson(detected, session.input(),
                                              context)
                            .c_str());
  } else {
    for (int k = request.config.k_min; k <= request.config.k_max; ++k) {
      if (detected.AtK(k).empty()) continue;
      std::printf("%s", RenderReport(annotate(k), space, k).c_str());
    }
  }

  if (!args.rerank_path.empty()) {
    // Repair mode: detected groups become representation floors.
    const std::vector<RepresentationConstraint> constraints = std::visit(
        [&](const auto& bounds) {
          return ConstraintsFromDetection(detected, bounds);
        },
        request.bounds);
    Result<RepairOutcome> repair = session.Repair(constraints, request.config);
    if (!repair.ok()) {
      std::fprintf(stderr, "%s\n", repair.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "repair: moved=%zu kendall_tau=%llu feasible=%s\n",
                 repair->tuples_moved,
                 static_cast<unsigned long long>(
                     repair->kendall_tau_distance),
                 repair->feasible ? "yes" : "no");
    // Persist the table in repaired rank order, with an explicit
    // `repaired_rank` column so the ordering survives re-ranking
    // (audit the file again with `--rank-by repaired_rank
    // --ascending`).
    Result<Table> reordered = [&]() -> Result<Table> {
      Schema schema = table.schema();
      FAIRTOPK_RETURN_IF_ERROR(schema.AddNumeric("repaired_rank"));
      FAIRTOPK_ASSIGN_OR_RETURN(Table out, Table::Create(schema));
      std::vector<Cell> row(table.num_attributes() + 1);
      double rank = 1.0;
      for (uint32_t r : repair->ranking) {
        for (size_t c = 0; c < table.num_attributes(); ++c) {
          row[c] = table.schema().attribute(c).type ==
                           AttributeType::kCategorical
                       ? Cell::Code(table.CodeAt(r, c))
                       : Cell::Value(table.ValueAt(r, c));
        }
        row[table.num_attributes()] = Cell::Value(rank);
        rank += 1.0;
        FAIRTOPK_RETURN_IF_ERROR(out.AppendRow(row));
      }
      return out;
    }();
    if (!reordered.ok()) {
      std::fprintf(stderr, "%s\n",
                   reordered.status().ToString().c_str());
      return 1;
    }
    Status written = WriteCsvFile(*reordered, args.rerank_path);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "repaired ranking written to %s\n",
                 args.rerank_path.c_str());
  }

  if (args.explain) {
    const int k = request.config.k_max;
    auto groups = annotate(k);
    if (groups.empty()) {
      std::fprintf(stderr, "nothing to explain at k=%d\n", k);
      return 0;
    }
    auto explainer =
        GroupExplainer::Create(table, session.ranking(), ExplainerOptions{});
    if (!explainer.ok()) {
      std::fprintf(stderr, "%s\n", explainer.status().ToString().c_str());
      return 1;
    }
    auto explanation = explainer->Explain(groups.front().pattern, space, k);
    if (!explanation.ok()) {
      std::fprintf(stderr, "%s\n",
                   explanation.status().ToString().c_str());
      return 1;
    }
    if (args.json) {
      std::printf("%s\n", ExplanationToJson(*explanation, space).c_str());
    } else {
      std::printf("\nExplanation for %s (top attributes by |Shapley|):\n",
                  groups.front().pattern.ToString(space).c_str());
      for (size_t i = 0; i < explanation->effects.size() && i < 6; ++i) {
        std::printf("  %-20s %+.4f\n",
                    explanation->effects[i].attribute.c_str(),
                    explanation->effects[i].mean_shapley);
      }
      std::printf("\n%s",
                  RenderDistribution(
                      explanation->top_attribute_distribution)
                      .c_str());
    }
  }
  return 0;
}

}  // namespace
}  // namespace fairtopk

int main(int argc, char** argv) {
  fairtopk::Args args;
  bool help = false;
  if (!fairtopk::ParseArgs(argc, argv, args, help)) return 2;
  if (help) {
    fairtopk::PrintUsage(stdout);
    return 0;
  }
  return fairtopk::RunAudit(args);
}
