// Ablation for the rank-ordered bitmap index (DESIGN.md, "Key design
// decisions"): the same top-down search with pattern counts computed
// by (a) the bitmap index (AND + popcount over rank-ordered bitsets)
// versus (b) a naive scan over the table rows. Series show how the
// index keeps counting cost flat as the dataset grows.
#include <functional>
#include <vector>

#include "bench_util.h"
#include "detect/bounds.h"
#include "pattern/result_set.h"

namespace fairtopk::bench {
namespace {

/// Counting interface the ablated search runs against.
struct Counter {
  std::function<size_t(const Pattern&)> size_in_d;
  std::function<size_t(const Pattern&, size_t)> top_k;
};

/// Appends p's children in the search tree of Definition 4.1: p plus
/// one predicate on an attribute after every attribute p specifies.
void AppendChildren(const Pattern& p, const PatternSpace& space,
                    std::vector<Pattern>& out) {
  for (size_t j = static_cast<size_t>(p.MaxSpecifiedIndex() + 1);
       j < space.num_attributes(); ++j) {
    for (int16_t v = 0; v < space.domain_size(j); ++v) {
      out.push_back(p.With(j, v));
    }
  }
}

size_t TopDownWith(const Counter& counter, const PatternSpace& space,
                   int tau, int k, double lower) {
  MostGeneralResultSet res;
  std::vector<Pattern> stack;
  AppendChildren(Pattern::Empty(space.num_attributes()), space, stack);
  size_t visited = 0;
  while (!stack.empty()) {
    Pattern p = std::move(stack.back());
    stack.pop_back();
    ++visited;
    if (counter.size_in_d(p) < static_cast<size_t>(tau)) continue;
    if (static_cast<double>(counter.top_k(p, static_cast<size_t>(k))) <
        lower) {
      res.Update(p);
      continue;
    }
    AppendChildren(p, space, stack);
  }
  return visited;
}

void Run() {
  PrintHeader("dataset,rows,counter,seconds,nodes_visited");
  Dataset dataset = MakeCompas();
  const size_t attrs = 8;
  DetectionInput input = PrepareInput(dataset, attrs);
  const PatternSpace& space = input.space();

  // Materialize rank-ordered codes for the naive counter.
  const size_t n = dataset.table.num_rows();
  std::vector<std::vector<int16_t>> rank_codes(space.num_attributes());
  for (size_t a = 0; a < space.num_attributes(); ++a) {
    rank_codes[a].resize(n);
    for (size_t pos = 0; pos < n; ++pos) {
      rank_codes[a][pos] = input.index().RankedCode(pos, a);
    }
  }

  for (size_t rows : {500u, 1000u, 2000u, 4000u, 6889u}) {
    // Naive: scan the first `rows` rank positions per count.
    Counter naive;
    naive.top_k = [&rank_codes, &space](const Pattern& p, size_t k) {
      size_t count = 0;
      for (size_t pos = 0; pos < k; ++pos) {
        bool match = true;
        for (size_t a = 0; a < space.num_attributes() && match; ++a) {
          if (p.IsSpecified(a) && rank_codes[a][pos] != p.value(a)) {
            match = false;
          }
        }
        if (match) ++count;
      }
      return count;
    };
    naive.size_in_d = [&naive, rows](const Pattern& p) {
      return naive.top_k(p, rows);
    };

    Counter indexed;
    indexed.size_in_d = [&input, rows](const Pattern& p) {
      return input.index().TopKCount(p, rows);
    };
    indexed.top_k = [&input](const Pattern& p, size_t k) {
      return input.index().TopKCount(p, k);
    };

    const int tau = static_cast<int>(rows / 120);
    const double lower = 10.0;
    for (int rep = 0; rep < 2; ++rep) {
      WallTimer timer;
      size_t visited = TopDownWith(naive, space, tau, 49, lower);
      std::printf("COMPAS,%zu,naive_scan,%.4f,%zu\n", rows,
                  timer.ElapsedSeconds(), visited);
      timer.Restart();
      visited = TopDownWith(indexed, space, tau, 49, lower);
      std::printf("COMPAS,%zu,bitmap_index,%.4f,%zu\n", rows,
                  timer.ElapsedSeconds(), visited);
    }
  }
}

}  // namespace
}  // namespace fairtopk::bench

int main() {
  fairtopk::bench::Run();
  return 0;
}
