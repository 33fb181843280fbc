// Ablation — the two index design choices the paper credits for its build
// time and index size:
//  (1) pruning rules PR1/PR2/PR3 on/off: build time, entries, index size
//      (paper Appendix D reports the no-PR3 design is 32x slower to build
//      on AD; §VI credits the rules for both IT and IS gains);
//  (2) the vertex-ordering strategy (IN-OUT vs vertex-id vs random), the
//      2-hop-style choice §V-B motivates.
// Correctness of every variant is asserted against the default index.

#include "bench_common.h"
#include "rlc/graph/generators.h"
#include "rlc/graph/label_assign.h"

int main() {
  using namespace rlc;
  using namespace rlc::bench;

  const double scale = ScaleFromEnv(0.2);
  const DatasetSpec spec = *FindDataset("AD");
  const DiGraph g = GetDataset(spec, scale, /*seed=*/6);
  std::printf("== Ablation on AD surrogate: |V|=%u |E|=%llu, k=2 ==\n\n",
              g.num_vertices(), static_cast<unsigned long long>(g.num_edges()));

  struct Variant {
    const char* name;
    IndexerOptions options;
  };
  std::vector<Variant> variants;
  {
    IndexerOptions base;
    base.k = 2;
    Variant v{"PR1+PR2+PR3 (paper)", base};
    variants.push_back(v);
    v = {"PR1+PR2, no PR3", base};
    v.options.pr3 = false;
    variants.push_back(v);
    v = {"PR2 only", base};
    v.options.pr1 = false;
    v.options.pr3 = false;
    variants.push_back(v);
    v = {"PR1 only", base};
    v.options.pr2 = false;
    v.options.pr3 = false;
    variants.push_back(v);
    v = {"no pruning", base};
    v.options.pr1 = v.options.pr2 = v.options.pr3 = false;
    variants.push_back(v);
    v = {"random order", base};
    v.options.ordering = VertexOrdering::kRandom;
    variants.push_back(v);
    v = {"vertex-id order", base};
    v.options.ordering = VertexOrdering::kVertexId;
    variants.push_back(v);
    v = {"lazy KBS", base};
    v.options.strategy = KbsStrategy::kLazy;
    variants.push_back(v);
  }

  // Reference index + sample queries for the correctness cross-check.
  const RlcIndex reference = BuildRlcIndex(g, 2);
  WorkloadOptions wopts;
  wopts.count = QueriesPerSet(200);
  wopts.constraint_length = 2;
  wopts.max_attempts = 150'000;
  wopts.fill_true_with_walks = true;
  const Workload w = GenerateWorkload(g, wopts);

  Table table({"Variant", "IT (s)", "slowdown", "Entries", "IS (MB)",
               "PR1 prunes", "PR2 prunes", "correct"});
  double baseline_it = 0;
  for (const Variant& variant : variants) {
    RlcIndexBuilder builder(g, variant.options);
    const RlcIndex index = builder.Build();
    const IndexerStats& s = builder.stats();
    if (&variant == &variants.front()) baseline_it = s.build_seconds;

    bool correct = true;
    for (const auto* set : {&w.true_queries, &w.false_queries}) {
      for (const RlcQuery& q : *set) {
        correct &= (index.Query(q.s, q.t, q.constraint) == q.expected);
      }
    }
    table.AddRow({variant.name, Fmt("%.3f", s.build_seconds),
                  Fmt("%.1fx", s.build_seconds / baseline_it),
                  Human(index.NumEntries()), Mb(index.MemoryBytes()),
                  Human(s.pruned_pr1), Human(s.pruned_pr2),
                  correct ? "yes" : "NO"});
  }
  table.Print();
  return 0;
}
