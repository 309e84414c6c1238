// The paper's evaluation (§5) in one run, on every MPK backend this host
// runs (sim, mprotect, and hardware when the CPU and kernel support PKU):
// Fig. 3, Tables 1-3, Figs. 4-7, the §5.3 site statistics and allocator
// ablation. Takes no option:  ./build/bench/bench_paper
//
// stdout is one markdown table per paper table: the paper's column, then
// one column per backend. The same numbers go to BENCH_paper.json, in rows
// like table2/suite:dom/backend:hardware/mpk_overhead. Each suite runs once
// per backend; Tables 1-3 and Figs. 4-7 all derive from those runs.
//
// The exit code is non-zero only on exact, timing-free invariants: every
// suite's transitions and %M_U agree across backends, Dromaeo has the most
// transitions, and the site statistics move exactly the constructed sites
// with a clean enforced replay. Timing shapes are printed, not enforced.
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/core/pkru_safe.h"
#include "src/mpk/hardware_backend.h"
#include "src/pkalloc/boundary_tag_heap.h"
#include "src/pkalloc/free_list_heap.h"
#include "src/support/rng.h"
#include "src/support/string_util.h"
#include "src/workloads/harness.h"

namespace pkrusafe {
namespace {

// Timed bench() calls per configuration; the harness keeps the fastest.
constexpr int kRepetitions = 5;

struct Backend {
  BackendKind kind;
  const char* name;
};

using Row = std::vector<std::string>;

// What every table shares: the backends, the JSON rows and the invariants
// that decide the exit code.
struct Report {
  std::vector<Backend> backends;
  bench::BenchJsonWriter json{"paper"};
  std::vector<std::string> invariants;
  bool ok = true;

  // A header row: the leading columns, then one per backend.
  Row Header(Row leading, const std::string& suffix = "") const {
    for (const Backend& b : backends) {
      leading.push_back(b.name + suffix);
    }
    return leading;
  }
  void Add(const std::string& row, const Backend& b, const std::string& metric, double value,
           const char* unit) {
    json.Add(row + "/backend:" + b.name + "/" + metric, value, unit);
  }
  void Check(bool holds, const std::string& what) {
    invariants.push_back("- " + what + ": " + (holds ? "holds" : "VIOLATED"));
    ok = ok && holds;
  }
};

void PrintTable(const std::string& title, const Row& header, const std::vector<Row>& rows) {
  auto print_row = [](const Row& row) {
    std::string line = "|";
    for (const std::string& cell : row) {
      line += " " + cell + " |";
    }
    std::printf("%s\n", line.c_str());
  };
  std::printf("\n## %s\n\n", title.c_str());
  print_row(header);
  print_row(Row(header.size(), "---"));
  for (const Row& row : rows) {
    print_row(row);
  }
  std::printf("\n");
}

std::string Pct(double fraction) { return StrFormat("%.2f%%", fraction * 100); }
double Ns(std::chrono::steady_clock::duration d) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

// ---- Fig. 3: call-gate overhead vs work per transition ----

__attribute__((noinline)) uint64_t Work(int loop_count, uint64_t seed) {
  uint64_t acc = seed;
  for (int i = 0; i < loop_count; ++i) {
    acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
    asm volatile("" : "+r"(acc));
  }
  return acc;
}

// {trusted, gated} ns per call: gated calls for `budget` of wall time, then
// as many trusted calls. A gated call costs from 20 ns (sim) to 5 µs
// (mprotect), so no fixed call count fits every backend.
std::pair<double, double> MeasureGatePoint(GateSet& gates, int loop_count,
                                           std::chrono::nanoseconds budget) {
  constexpr int kBatch = 16;
  using Clock = std::chrono::steady_clock;
  uint64_t sink = 1;
  int64_t calls = 0;
  const auto start = Clock::now();
  auto now = start;
  do {
    for (int i = 0; i < kBatch; ++i) {
      UntrustedScope scope(gates);
      sink = Work(loop_count, sink);
    }
    calls += kBatch;
    now = Clock::now();
  } while (now - start < budget);
  const double gated_ns = Ns(now - start) / static_cast<double>(calls);
  const auto trusted_start = Clock::now();
  for (int64_t i = 0; i < calls; ++i) {
    sink = Work(loop_count, sink);
  }
  const double trusted_ns = Ns(Clock::now() - trusted_start) / static_cast<double>(calls);
  asm volatile("" : "+r"(sink));
  return {trusted_ns, gated_ns};
}

Status RunFig3(Report& report) {
  constexpr int kLoopCounts[] = {0, 1, 2, 5, 10, 15, 20, 30, 40, 50, 75, 100, 125, 150, 175, 200};
  constexpr std::chrono::milliseconds kBudget{20};
  std::vector<Row> rows;
  for (const int loop_count : kLoopCounts) {
    rows.push_back({std::to_string(loop_count), loop_count == 0     ? "~8x"
                                                : loop_count == 200 ? "~1x"
                                                                    : "-"});
  }
  std::string shapes;
  for (const Backend& b : report.backends) {
    PS_ASSIGN_OR_RETURN(std::unique_ptr<MpkBackend> backend, CreateMpkBackend(b.kind));
    PS_ASSIGN_OR_RETURN(std::unique_ptr<PkAllocator> allocator,
                        PkAllocator::Create(backend.get()));
    GateSet gates(backend.get(), allocator->trusted_key());
    (void)MeasureGatePoint(gates, 10, kBudget / 4);  // warmup
    std::vector<double> normalized;
    for (size_t i = 0; i < std::size(kLoopCounts); ++i) {
      const auto [trusted_ns, gated_ns] = MeasureGatePoint(gates, kLoopCounts[i], kBudget);
      normalized.push_back(gated_ns / trusted_ns);
      rows[i].push_back(StrFormat("%.2fx", normalized.back()));
      report.Add(StrFormat("fig3/loop:%d", kLoopCounts[i]), b, "trusted_ns", trusted_ns, "ns");
      report.Add(StrFormat("fig3/loop:%d", kLoopCounts[i]), b, "gated_ns", gated_ns, "ns");
    }
    shapes += StrFormat("shape: %s decays from loop 0 to loop 200: %s\n", b.name,
                        normalized.front() > normalized.back() ? "yes" : "no");
  }
  PrintTable("Figure 3: gated / trusted runtime per call vs loop count",
             report.Header({"loop count", "paper"}), rows);
  std::printf("%s", shapes.c_str());
  return Status::Ok();
}

// ---- Suites: Tables 1-3, Figs. 4-7 ----

// results[s][b]: suite s on report.backends[b]. The suites are the five
// Dromaeo sub-suites, then these three.
constexpr size_t kJetStream2 = 5;
constexpr size_t kKraken = 6;
constexpr size_t kOctane = 7;
using SuiteResults = std::vector<std::vector<SuiteResult>>;

Result<SuiteResults> MeasureSuites(Report& report) {
  std::vector<SuiteSpec> specs = DromaeoSubSuites();
  specs.insert(specs.end(), {JetStream2Suite(), KrakenSuite(), OctaneSuite()});
  SuiteResults results(specs.size());
  for (const Backend& b : report.backends) {
    WorkloadHarness harness(HarnessOptions{kRepetitions, b.kind});
    for (size_t s = 0; s < specs.size(); ++s) {
      PS_ASSIGN_OR_RETURN(SuiteResult result, harness.RunSuite(specs[s]));
      results[s].push_back(std::move(result));
    }
  }
  for (const std::vector<SuiteResult>& suite : results) {
    bool agree = true;
    for (const SuiteResult& r : suite) {
      agree = agree && r.total_transitions() == suite[0].total_transitions() &&
              r.mean_untrusted_fraction() == suite[0].mean_untrusted_fraction();
    }
    report.Check(agree, suite[0].name + " transitions and %M_U agree across backends");
  }
  return results;
}

// A row of Tables 1-2: the suites it averages, the paper's figures (Table 2
// gives no transitions or %M_U) and, per backend, the mean of the suites'
// mean overheads and %M_U and their summed transitions.
struct SuiteRow {
  const char* name;
  std::vector<size_t> suites;
  const char* paper;
  const char* paper_transitions = nullptr;
  const char* paper_mu = nullptr;
  std::vector<double> mpk = {};
  double mu = 0;
  uint64_t transitions = 0;
};

// A measured value beside the paper's, when the paper gives one.
std::string WithPaper(const std::string& measured, const char* paper) {
  return paper == nullptr ? measured : measured + " (paper " + paper + ")";
}

// Fills each row's measured columns and prints the table. Transitions and
// %M_U agree across backends (MeasureSuites checks), so each gets one column.
void PrintSuiteTable(Report& report, const std::string& title, const std::string& table,
                     const SuiteResults& results, std::vector<SuiteRow>& rows) {
  std::vector<Row> cells;
  for (SuiteRow& row : rows) {
    Row line = {row.name, row.paper};
    std::string json_row = table + "/suite:" + row.name;
    std::transform(json_row.begin(), json_row.end(), json_row.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    const auto n = static_cast<double>(row.suites.size());
    for (size_t b = 0; b < report.backends.size(); ++b) {
      double alloc = 0;
      double mpk = 0;
      row.mu = 0;
      row.transitions = 0;
      for (const size_t s : row.suites) {
        alloc += results[s][b].mean_alloc_overhead() / n;
        mpk += results[s][b].mean_mpk_overhead() / n;
        row.mu += results[s][b].mean_untrusted_fraction() / n;
        row.transitions += results[s][b].total_transitions();
      }
      row.mpk.push_back(mpk);
      line.push_back(Pct(alloc) + " / " + Pct(mpk));
      report.Add(json_row, report.backends[b], "alloc_overhead", alloc, "fraction");
      report.Add(json_row, report.backends[b], "mpk_overhead", mpk, "fraction");
      report.Add(json_row, report.backends[b], "transitions",
                 static_cast<double>(row.transitions), "count");
      report.Add(json_row, report.backends[b], "untrusted_fraction", row.mu, "fraction");
    }
    line.push_back(WithPaper(std::to_string(row.transitions), row.paper_transitions));
    line.push_back(WithPaper(Pct(row.mu), row.paper_mu));
    cells.push_back(std::move(line));
  }
  Row header = report.Header({"suite", "paper alloc / mpk"}, " alloc / mpk");
  header.insert(header.end(), {"transitions", "%M_U"});
  PrintTable(title, header, cells);
}

// Prints, per backend, whether every row in `top` has a higher mpk overhead
// than every row in `rest`.
void PrintMpkShape(const Report& report, const std::vector<SuiteRow>& rows,
                   const std::vector<size_t>& top, const std::vector<size_t>& rest,
                   const char* what) {
  for (size_t b = 0; b < report.backends.size(); ++b) {
    bool holds = true;
    for (const size_t t : top) {
      for (const size_t r : rest) {
        holds = holds && rows[t].mpk[b] > rows[r].mpk[b];
      }
    }
    std::printf("shape: %s on %s: %s\n", what, report.backends[b].name, holds ? "yes" : "no");
  }
}

void PrintTables1And2(Report& report, const SuiteResults& results) {
  std::vector<SuiteRow> table1 = {
      {"Dromaeo", {0, 1, 2, 3, 4}, "5.89% / 11.55%", "1.78e9", "4.13%"},
      {"JetStream2", {kJetStream2}, "-1.48% / 0.61%", "7.0e6", "42.41%"},
      {"Kraken", {kKraken}, "-0.11% / -0.41%", "5.8e6", "48.59%"},
      {"Octane", {kOctane}, "-2.25% / 3.28%", "4.3e5", "16.57%"}};
  PrintSuiteTable(report, "Table 1: mean benchmark overhead and statistics", "table1", results,
                  table1);
  report.Check(table1[0].transitions > table1[1].transitions &&
                   table1[0].transitions > table1[2].transitions &&
                   table1[0].transitions > table1[3].transitions,
               "Dromaeo has the most transitions");
  PrintMpkShape(report, table1, {0}, {1, 2, 3}, "Dromaeo has the highest mpk overhead");

  std::vector<SuiteRow> table2 = {{"dom", {0}, "7.85% / 30.74%"},
                                  {"v8", {1}, "-2.31% / 0.53%"},
                                  {"dromaeo", {2}, "15.87% / 4.64%"},
                                  {"sunspider", {3}, "-1.34% / -0.81%"},
                                  {"jslib", {4}, "9.39% / 22.65%"}};
  PrintSuiteTable(report, "Table 2 + Figure 4: Dromaeo sub-suites", "table2", results, table2);
  PrintMpkShape(report, table2, {0, 4}, {1, 2, 3}, "dom and jslib carry the highest mpk overhead");
}

// Per-benchmark bars go to the JSON; the table shows each suite's means and
// the range of its mpk bars.
void PrintFigures5To7(Report& report, const SuiteResults& results) {
  struct Figure {
    int number;
    size_t suite;
    const char* paper;
  };
  std::vector<Row> rows;
  for (const Figure& fig : {Figure{5, kKraken, "-0.11% / -0.41%"},
                            Figure{6, kOctane, "-2.25% / 3.28%"},
                            Figure{7, kJetStream2, "-1.48% / 0.61%"}}) {
    Row row = {StrFormat("Fig. %d %s", fig.number, results[fig.suite][0].name.c_str()), fig.paper};
    for (size_t b = 0; b < report.backends.size(); ++b) {
      const SuiteResult& r = results[fig.suite][b];
      std::vector<double> bars;
      for (const WorkloadResult& w : r.workloads) {
        const std::string json_row = StrFormat("fig%d/bench:%s", fig.number, w.name.c_str());
        report.Add(json_row, report.backends[b], "alloc_normalized", w.alloc_ns / w.base_ns, "x");
        report.Add(json_row, report.backends[b], "mpk_normalized", w.mpk_ns / w.base_ns, "x");
        bars.push_back(w.mpk_ns / w.base_ns);
      }
      const auto [lo, hi] = std::minmax_element(bars.begin(), bars.end());
      row.push_back(Pct(r.mean_alloc_overhead()) + " / " + Pct(r.mean_mpk_overhead()) +
                    StrFormat(" (mpk bars %.2f-%.2f)", *lo, *hi));
    }
    rows.push_back(std::move(row));
  }
  PrintTable("Figures 5-7: per-benchmark normalized runtime, suite means",
             report.Header({"figure", "paper mean alloc / mpk"}, " mean alloc / mpk (bars)"),
             rows);
}

void PrintTable3(Report& report, const SuiteResults& results) {
  constexpr double kBaseScore = 60.31;
  std::vector<Row> rows = {{"alloc score", "61.20"},
                           {"mpk score", "59.94"},
                           {"alloc overhead", "-1.48%"},
                           {"mpk overhead", "0.61%"}};
  for (size_t b = 0; b < report.backends.size(); ++b) {
    const double alloc = results[kJetStream2][b].geomean_alloc_normalized();
    const double mpk = results[kJetStream2][b].geomean_mpk_normalized();
    const Row cells = {StrFormat("%.2f", kBaseScore / alloc), StrFormat("%.2f", kBaseScore / mpk),
                       Pct(alloc - 1), Pct(mpk - 1)};
    for (size_t i = 0; i < rows.size(); ++i) {
      rows[i].push_back(cells[i]);
    }
    report.Add("table3", report.backends[b], "alloc_score", kBaseScore / alloc, "score");
    report.Add("table3", report.backends[b], "mpk_score", kBaseScore / mpk, "score");
    report.Add("table3", report.backends[b], "alloc_overhead", alloc - 1, "fraction");
    report.Add("table3", report.backends[b], "mpk_overhead", mpk - 1, "fraction");
  }
  PrintTable("Table 3: JetStream2 overall scores (geometric mean; base score pinned to 60.31)",
             report.Header({"", "paper"}), rows);
}

// ---- §5.3 allocation-site statistics ----
//
// A generated program of the paper's character: thousands of trusted
// allocation sites, of which one in every kShareEvery-th function flows
// into the unsafe library. The pipeline must move exactly those sites.

constexpr int kFunctions = 400;
constexpr int kSitesPerFunction = 6;
constexpr int kShareEvery = 8;  // 1 of 48 sites crosses: ~2.1%, like the paper's 2.26%

std::string GenerateSiteProgram() {
  std::string out =
      "module sitestats\nuntrusted \"legacy\"\nextern @legacy_use(1) lib \"legacy\"\n";
  std::string main = "func @main(0) {\nentry:\n";
  for (int f = 0; f < kFunctions; ++f) {
    out += StrFormat("func @work%d(0) {\nentry:\n", f);
    std::string frees;
    for (int s = 0; s < kSitesPerFunction; ++s) {
      out += StrFormat("  %%%d = alloc 64\n  store %%%d, 0, %d\n", s, s, f * 100 + s);
      frees += StrFormat("  free %%%d\n", s);
    }
    if (f % kShareEvery == 0) {
      out += "  call @legacy_use(%0)\n";  // only site 0 of this function crosses
    }
    out += frees + "  ret\n}\n";
    main += StrFormat("  call @work%d()\n", f);
  }
  return out + main + "  ret\n}\n";
}

ExternRegistry SiteExterns() {
  ExternRegistry externs;
  externs.Register("legacy_use",
                   [](Interpreter& interp, const std::vector<int64_t>& args) -> Result<int64_t> {
                     return interp.LoadChecked(args[0]);
                   });
  return externs;
}

Status RunSiteStats(Report& report) {
  const std::string source = GenerateSiteProgram();
  constexpr size_t kExpected = (kFunctions + kShareEvery - 1) / kShareEvery;
  std::vector<Row> rows = {{"allocation sites", "12088"},
                           {"sites moved to M_U", "274"},
                           {"share moved", "2.26%"},
                           {"enforced replay", "-"}};
  for (const Backend& b : report.backends) {
    SystemConfig config;
    config.backend = b.kind;
    config.mode = RuntimeMode::kProfiling;
    PS_ASSIGN_OR_RETURN(std::unique_ptr<System> profiling,
                        System::Create(source, config, SiteExterns()));
    PS_RETURN_IF_ERROR(profiling->Call("main").status());
    config.profile = profiling->TakeProfile();
    profiling.reset();
    config.mode = RuntimeMode::kEnforcing;
    PS_ASSIGN_OR_RETURN(std::unique_ptr<System> enforcing,
                        System::Create(source, config, SiteExterns()));
    const Status replay = enforcing->Call("main").status();
    const size_t total = enforcing->total_alloc_sites();
    const size_t moved = enforcing->sites_moved_to_untrusted();
    const double share = static_cast<double>(moved) / static_cast<double>(total);
    rows[0].push_back(std::to_string(total));
    rows[1].push_back(std::to_string(moved));
    rows[2].push_back(Pct(share));
    rows[3].push_back(replay.ok() ? "clean" : replay.ToString());
    report.Add("site_stats", b, "sites", static_cast<double>(total), "count");
    report.Add("site_stats", b, "sites_moved", static_cast<double>(moved), "count");
    report.Add("site_stats", b, "moved_fraction", share, "fraction");
    report.Check(moved == kExpected && replay.ok(),
                 StrFormat("%s moves exactly the %zu constructed sites and replays clean", b.name,
                           kExpected));
  }
  PrintTable(StrFormat("§5.3 allocation-site statistics (generated program, %d functions)",
                       kFunctions),
             report.Header({"", "paper"}), rows);
  return Status::Ok();
}

// ---- §5.3 allocator ablation ----

// Randomized churn, identical across heaps; returns ns per operation.
template <typename Heap>
double ChurnNsPerOp(Heap& heap, int ops) {
  SplitMix64 rng(424242);
  std::vector<void*> live;
  live.reserve(1024);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < ops; ++i) {
    if (live.empty() || rng.NextBelow(100) < 55) {
      void* p = heap.Allocate(1 + rng.NextBelow(1024));
      if (p == nullptr) {
        break;
      }
      live.push_back(p);
    } else {
      const size_t victim = rng.NextBelow(live.size());
      heap.Free(live[victim]);
      live[victim] = live.back();
      live.pop_back();
    }
  }
  for (void* p : live) {
    heap.Free(p);
  }
  return Ns(std::chrono::steady_clock::now() - start) / ops;
}

Status RunAllocAblation(Report& report) {
  // The two heaps head to head: no keys, so no backend.
  constexpr int kOps = 400000;
  PS_ASSIGN_OR_RETURN(std::unique_ptr<Arena> fast_arena, Arena::Create(size_t{2} << 30));
  PS_ASSIGN_OR_RETURN(std::unique_ptr<Arena> slow_arena, Arena::Create(size_t{2} << 30));
  FreeListHeap fast(fast_arena.get());
  BoundaryTagHeap slow(slow_arena.get());
  (void)ChurnNsPerOp(fast, kOps / 10);  // warmup
  (void)ChurnNsPerOp(slow, kOps / 10);
  const double fast_ns = ChurnNsPerOp(fast, kOps);
  const double slow_ns = ChurnNsPerOp(slow, kOps);
  report.json.Add("alloc_ablation/heap:segregated_fit/churn_ns_per_op", fast_ns, "ns");
  report.json.Add("alloc_ablation/heap:boundary_tag/churn_ns_per_op", slow_ns, "ns");

  // Application level: the alloc configuration with the slow vs the fast
  // shared-pool heap.
  const SuiteSpec suite{"alloc-heavy",
                        {
                            {"dromaeo-array", KernelKind::kSort, KernelParams{200, 8}},
                            {"jslib-modify", KernelKind::kJslibMix, KernelParams{32, 4}},
                            {"string-churn", KernelKind::kStringChurn, KernelParams{24, 8}},
                            {"splay", KernelKind::kSplay, KernelParams{120, 5}},
                        }};
  std::vector<Row> rows = {{"alloc overhead, slow M_U heap", "measurable"},
                           {"alloc overhead, fast M_U heap", "none detectable"}};
  for (const Backend& b : report.backends) {
    for (const bool fast_shared_heap : {false, true}) {
      PS_ASSIGN_OR_RETURN(
          SuiteResult result,
          WorkloadHarness(HarnessOptions{kRepetitions, b.kind, fast_shared_heap}).RunSuite(suite));
      rows[fast_shared_heap].push_back(Pct(result.mean_alloc_overhead()));
      report.Add(fast_shared_heap ? "alloc_ablation/mu_heap:fast" : "alloc_ablation/mu_heap:slow",
                 b, "alloc_overhead", result.mean_alloc_overhead(), "fraction");
    }
  }
  PrintTable("§5.3 allocator ablation (alloc configuration vs base, alloc-heavy suite mean)",
             report.Header({"", "paper"}), rows);
  std::printf("direct heap churn (%d ops, one random trace, no keys): M_T heap (segregated "
              "fit) %.1f ns/op, M_U heap (boundary tag, first fit) %.1f ns/op (%.2fx)\n",
              kOps, fast_ns, slow_ns, slow_ns / fast_ns);
  return Status::Ok();
}

Status RunAll(Report& report) {
  PS_RETURN_IF_ERROR(RunFig3(report));
  PS_ASSIGN_OR_RETURN(SuiteResults results, MeasureSuites(report));
  PrintTables1And2(report, results);
  PrintFigures5To7(report, results);
  PrintTable3(report, results);
  PS_RETURN_IF_ERROR(RunSiteStats(report));
  return RunAllocAblation(report);
}

}  // namespace
}  // namespace pkrusafe

int main() {
  using namespace pkrusafe;  // NOLINT: bench brevity
  Report report;
  report.backends = {{BackendKind::kSim, "sim"}, {BackendKind::kMprotect, "mprotect"}};
  if (HardwareMpkBackend::IsSupported()) {
    report.backends.push_back({BackendKind::kHardware, "hardware"});
  }
  const Status status = RunAll(report);
  if (!status.ok()) {
    std::fprintf(stderr, "bench_paper: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("\n## Invariants (the exit code)\n\n");
  for (const std::string& line : report.invariants) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("\n");
  if (!report.json.Write()) {
    return 1;
  }
  return report.ok ? 0 : 1;
}
