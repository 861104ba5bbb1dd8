/// \file fig_misc_scalars.cc
/// \brief E9 (part 1) — the §3 scalar measurements.
///
/// Paper reference: average TPR of the largest connected components ≈ 0.3;
/// 11.47% of connected article pairs form a length-2 cycle; average query
/// graph size 208.22 nodes.

#include <cstdio>

#include "bench/bench_common.h"
#include "common/string_util.h"

using namespace wqe;

int main() {
  const bench::BenchContext& ctx = bench::GetBenchContext();
  analysis::MiscScalars scalars =
      analysis::ComputeMiscScalars(*ctx.pipeline, ctx.analyses);

  TablePrinter table("Section 3 scalars");
  table.SetHeader({"metric", "measured", "paper"});
  table.AddRow({"avg TPR of largest CC",
                FormatDouble(scalars.mean_largest_cc_tpr, 3), "~0.3"});
  table.AddRow({"reciprocal link-pair rate",
                FormatDouble(scalars.reciprocal_link_rate, 4), "0.1147"});
  table.AddRow({"avg query graph size (nodes)",
                FormatDouble(scalars.mean_graph_size, 2), "208.22"});
  table.Print();

  std::printf(
      "\nknowledge base: %zu articles, %zu categories, %zu redirects, %zu "
      "edges\n",
      ctx.pipeline->kb().num_articles(), ctx.pipeline->kb().num_categories(),
      ctx.pipeline->kb().num_redirects(),
      ctx.pipeline->kb().csr().num_edges());
  return 0;
}
