// fairtopk_audit: end-to-end ranked-representation audit of a CSV file.
//
// Usage:
//   fairtopk_audit --csv data.csv --rank-by score [options]
//   fairtopk_audit --snapshot data.ftk [options]
//
// Pipeline: open the session as the JSONL `open` op does
// (SessionCatalog::Open: load the CSV, bucketize the numeric attributes
// so they can join group definitions, rank by the score column,
// descending by default — or restore a snapshot), decode the detect
// request as a JSONL `detect` is decoded (api::RequestFromJson: the
// detector from the api::DetectorRegistry by --measure x --algo or
// --detector), detect groups with biased representation, and print a
// text report (or JSON with --json). Optionally explains the most
// biased group via the Shapley pipeline.
//
// The flags are declared fields (api::ReadFlags): open's fields that
// describe a one-shot audit (`--k-min 5` is open's `k_min`), the
// detector selector and upper bounds of a detect request, and the
// tool's own actions (kActionFields below). `fairtopk_audit --help`
// prints them from the same declarations.
#include <cmath>
#include <cstdio>
#include <memory>
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
#include "service/session_catalog.h"

namespace fairtopk {
namespace {

/// The tool's own fields: what to do with the opened session.
struct Args {
  /// The session to audit, opened as the `open` op opens one.
  SessionSpec spec;
  bool suggest = false;
  bool explain = false;
  bool json = false;
  std::string verify_group;
  std::string rerank_path;
  std::string save_snapshot;  ///< write the opened session here
  bool help = false;
};

using enum api::FieldType;

/// The upper bounds an audit checks besides `--lower` / `--alpha`.
constexpr api::FieldSpec kUpperBoundFields[] = {api::kUpperField,
                                                api::kBetaField};
constexpr api::FieldSpec kActionFields[] = {
    {"suggest", kBool, "calibrate tau and the lower bound automatically",
     api::Set<&Args::suggest>},
    {"explain", kBool, "Shapley-explain the most biased group",
     api::Set<&Args::explain>},
    {"json", kBool, "print the detection report as JSON",
     api::Set<&Args::json>},
    {"verify", kString,
     "instead of detecting, check the group \"A=v;B=w\" against the "
     "bounds and list the violating k (exit 3 if biased)",
     api::Set<&Args::verify_group>},
    {"rerank", kString,
     "after detection, write the ranking repaired so that the detected "
     "groups meet the bounds to this CSV",
     api::Set<&Args::rerank_path>},
    {"save_snapshot", kString,
     "write the opened session to this snapshot file",
     api::Set<&Args::save_snapshot>},
    {"help", kBool, "print this message and exit", api::Set<&Args::help>},
};

/// The fields of the detect request an audit runs: its detector and
/// upper bound. Its k range, tau and lower bound are the session's
/// defaults, as `open` sets them.
constexpr auto kRequestFields =
    api::JoinFields<api::kSelectorFields, kUpperBoundFields>();

/// Every flag: how to open the session (the fields of op=open that
/// describe a one-shot audit), the request, and the actions.
constexpr auto kFlags =
    api::JoinFields<kSourceFields, kLoadFields, kDefaultFields,
                    kRequestFields, kActionFields>();

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: fairtopk_audit --csv data.csv --rank-by column "
               "[flags]\n"
               "       fairtopk_audit --snapshot data.ftk [flags]\n"
               "\n"
               "Flags (the fields of op=open, then of the detect request, "
               "then the tool's own):\n%s",
               api::FlagsHelp(kFlags).c_str());
}

/// Prints `status` and returns the exit code of a failed run.
int Failed(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 1;
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

int RunAudit(const Args& args, const JsonValue& query) {
  // One session holds the table, scores, ranking and index, whether
  // they come from the CSV or from a snapshot. It opens as the `open`
  // op opens one, with the request defaults `open` derives (k_max
  // clamped to |D|, tau 0 as 5% of the rows).
  SessionCatalog catalog;
  if (Status opened = catalog.Open("audit", args.spec); !opened.ok()) {
    return Failed(opened);
  }
  const std::shared_ptr<SessionCatalog::Entry> entry = catalog.Find("audit");
  AuditSession& session = entry->session;
  const Table& table = session.table();
  const PatternSpace& space = session.space();

  if (!args.save_snapshot.empty()) {
    Status saved = session.SaveSnapshot(args.save_snapshot);
    if (!saved.ok()) return Failed(saved);
    std::fprintf(stderr, "snapshot written to %s (%llu bytes)\n",
                 args.save_snapshot.c_str(),
                 static_cast<unsigned long long>(
                     session.storage_info().snapshot_bytes));
  }

  // The request decodes as a JSONL detect does, over the session's
  // defaults.
  Result<api::AuditRequest> decoded =
      api::RequestFromJson(query, "fairtopk_audit", entry->defaults.config,
                           entry->defaults.bounds);
  if (!decoded.ok()) return Failed(decoded.status());
  api::AuditRequest& request = *decoded;

  if (args.suggest) {
    auto suggestion = session.Suggest(request.config, SuggestOptions{});
    if (!suggestion.ok()) return Failed(suggestion.status());
    // The suggestion calibrates tau and the lower bound only, so
    // --upper and --beta survive it.
    request.config.size_threshold = suggestion->size_threshold;
    if (auto* global = std::get_if<GlobalBoundSpec>(&request.bounds)) {
      global->lower = suggestion->global_bounds.lower;
    } else {
      std::get<PropBoundSpec>(request.bounds).alpha = suggestion->alpha;
    }
    std::fprintf(stderr,
                 "suggested: tau=%d global_level=%.2f alpha=%.2f\n",
                 suggestion->size_threshold, suggestion->global_level,
                 suggestion->alpha);
  }

  if (!args.verify_group.empty()) {
    // Verification mode: check one declared group, skip detection.
    Result<Pattern> group = ParseGroupSpec(args.verify_group, space);
    if (!group.ok()) return Failed(group.status());
    Result<FairnessReport> report =
        std::holds_alternative<GlobalBoundSpec>(request.bounds)
            ? session.VerifyGlobal(*group,
                                   std::get<GlobalBoundSpec>(request.bounds),
                                   request.config)
            : session.VerifyProp(*group,
                                 std::get<PropBoundSpec>(request.bounds),
                                 request.config);
    if (!report.ok()) return Failed(report.status());
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
  if (!response.ok()) return Failed(response.status());
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
    const ReportContext context{entry->defaults.dataset,
                                response->detector->measure,
                                response->detector->name};
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
    if (!repair.ok()) return Failed(repair.status());
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
    if (!reordered.ok()) return Failed(reordered.status());
    Status written = WriteCsvFile(*reordered, args.rerank_path);
    if (!written.ok()) return Failed(written);
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
    if (!explainer.ok()) return Failed(explainer.status());
    auto explanation = explainer->Explain(groups.front().pattern, space, k);
    if (!explanation.ok()) return Failed(explanation.status());
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

int AuditMain(int argc, char** argv) {
  Result<JsonValue> flags = api::ReadFlags({argv + 1, argv + argc}, kFlags,
                                           "fairtopk_audit");
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().message().c_str());
    return 2;
  }
  Args args;
  api::ApplyFields(*flags, kSessionSpecFields, &args.spec);
  api::ApplyFields(*flags, kActionFields, &args);
  if (args.help) {
    PrintUsage(stdout);
    return 0;
  }
  // A snapshot open carries its own ranking column and direction.
  if ((args.spec.csv.empty() || args.spec.rank_by.empty()) &&
      args.spec.snapshot.empty()) {
    PrintUsage(stderr);
    return 2;
  }
  // The detector is known before anything loads: an unknown one, or a
  // bound flag it does not read, is a usage error.
  const JsonValue query = api::SelectFields(*flags, kRequestFields);
  Result<const api::DetectorDescriptor*> detector =
      api::SelectDetector(query, "fairtopk_audit");
  if (!detector.ok()) {
    std::fprintf(stderr, "%s\n", detector.status().ToString().c_str());
    return 2;
  }
  if (!(*detector)->lower_violations) {
    // An upper detector with its bound left at +inf can only report
    // nothing — refuse instead of printing a silently empty audit.
    const bool global = (*detector)->bounds_kind == api::BoundsKind::kGlobal;
    if (query.Find(global ? "upper" : "beta") == nullptr) {
      std::fprintf(stderr, "--algo upper needs an upper bound: pass %s\n",
                   global ? "--upper X" : "--beta X");
      return 2;
    }
    // Over-represented groups must never become representation floors.
    if (!args.rerank_path.empty()) {
      std::fprintf(stderr,
                   "--rerank requires a lower-bound detector (--algo "
                   "upper reports over-represented groups)\n");
      return 2;
    }
  }
  return RunAudit(args, query);
}

}  // namespace
}  // namespace fairtopk

int main(int argc, char** argv) { return fairtopk::AuditMain(argc, argv); }
