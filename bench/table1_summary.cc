// Table I: average performance increase and average slack reduction between
// Static-1.5x and Escra and between Autopilot and Escra, averaged over the
// full grid of four applications x four workloads (Section VI-B..E).
//
// Also reports the Section VI-E takeaway: OOM kill counts per policy across
// all runs (the paper: Escra saw zero OOMs in all 32 experiments, Autopilot
// up to 8 in a single one).
//
// The whole grid is deterministic, so the headline numbers are a checked
// artifact: --out writes the two delta rows and the per-policy OOM counts as
// JSON, and --check compares a fresh run against a committed copy byte for
// byte (any drift in the reproduction fails the run).
//
//   table1_summary [--out FILE] [--check FILE]

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "exp/report.h"
#include "grid.h"

using namespace escra;
using bench::grid_cell;
using bench::kApps;
using bench::kWorkloads;

namespace {

struct Deltas {
  double latency = 0, tput = 0;
  double cpu50 = 0, cpu99 = 0, mem50 = 0, mem99 = 0;
};

Deltas against(exp::PolicyKind baseline) {
  Deltas sum;
  int n = 0;
  for (const auto a : kApps) {
    for (const auto w : kWorkloads) {
      const exp::RunResult& base = grid_cell(a, w, baseline);
      const exp::RunResult& ours = grid_cell(a, w, exp::PolicyKind::kEscra);
      sum.latency += exp::pct_decrease(base.p999_latency_ms, ours.p999_latency_ms);
      sum.tput += exp::pct_increase(base.throughput_rps, ours.throughput_rps);
      sum.cpu50 += exp::pct_decrease(base.cpu_slack_cores.percentile(50),
                                     ours.cpu_slack_cores.percentile(50));
      sum.cpu99 += exp::pct_decrease(base.cpu_slack_cores.percentile(99),
                                     ours.cpu_slack_cores.percentile(99));
      sum.mem50 += exp::pct_decrease(base.mem_slack_mib.percentile(50),
                                     ours.mem_slack_mib.percentile(50));
      sum.mem99 += exp::pct_decrease(base.mem_slack_mib.percentile(99),
                                     ours.mem_slack_mib.percentile(99));
      ++n;
    }
  }
  sum.latency /= n; sum.tput /= n; sum.cpu50 /= n;
  sum.cpu99 /= n; sum.mem50 /= n; sum.mem99 /= n;
  return sum;
}

struct OomCount {
  std::uint64_t total = 0, worst = 0;
};

OomCount oom_kills(exp::PolicyKind p) {
  OomCount c;
  for (const auto a : kApps) {
    for (const auto w : kWorkloads) {
      const auto k = grid_cell(a, w, p).oom_kills;
      c.total += k;
      c.worst = std::max(c.worst, k);
    }
  }
  return c;
}

std::string deltas_json(const Deltas& d) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"d_lat_pct\": %.6f, \"d_tput_pct\": %.6f, "
                "\"d_cpu50_pct\": %.6f, \"d_cpu99_pct\": %.6f, "
                "\"d_mem50_pct\": %.6f, \"d_mem99_pct\": %.6f}",
                d.latency, d.tput, d.cpu50, d.cpu99, d.mem50, d.mem99);
  return buf;
}

std::string to_json(const Deltas& vs_static, const Deltas& vs_autopilot) {
  std::string json = "{\n  \"bench\": \"table1_summary\",\n";
  json += "  \"static_vs_escra\": " + deltas_json(vs_static) + ",\n";
  json += "  \"autopilot_vs_escra\": " + deltas_json(vs_autopilot) + ",\n";
  json += "  \"oom_kills\": {";
  const char* sep = "";
  for (const auto p : {exp::PolicyKind::kStatic, exp::PolicyKind::kAutopilot,
                       exp::PolicyKind::kEscra}) {
    const OomCount c = oom_kills(p);
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"total\": %" PRIu64 ", \"worst\": %" PRIu64
                  "}",
                  sep, exp::policy_name(p), c.total, c.worst);
    json += buf;
    sep = ", ";
  }
  json += "}\n}\n";
  return json;
}

// Byte-exact comparison against a committed baseline: every cell of the
// grid is a deterministic simulation, so there is no tolerance to apply.
int check_against(const std::string& path, const std::string& fresh) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "table1_summary: cannot read baseline %s\n",
                 path.c_str());
    return 1;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  if (ss.str() != fresh) {
    std::fprintf(stderr,
                 "table1_summary: DETERMINISM DRIFT — fresh run differs from "
                 "%s\n--- baseline\n%s--- fresh\n%s",
                 path.c_str(), ss.str().c_str(), fresh.c_str());
    return 1;
  }
  std::printf("table1_summary: ok — matches baseline exactly\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string check_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if ((flag == "--out" || flag == "--check") && i + 1 < argc) {
      (flag == "--out" ? out_path : check_path) = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: table1_summary [--out FILE] [--check FILE]\n");
      return 2;
    }
  }

  // Fill the whole 4x4x3 grid in parallel; everything below is cache hits.
  bench::grid_prefetch({exp::PolicyKind::kStatic, exp::PolicyKind::kAutopilot,
                        exp::PolicyKind::kEscra},
                       /*jobs=*/0);
  exp::print_section("Table I: average improvement of Escra over each baseline");
  std::printf("(positive = Escra better; paper: static row 38.0/25.4/81.3/74.2/"
              "55.0/95.9,\n autopilot row 36.1/54.5/78.3/78.6/26.7/68.9)\n\n");

  const Deltas vs_static = against(exp::PolicyKind::kStatic);
  const Deltas vs_autopilot = against(exp::PolicyKind::kAutopilot);

  exp::print_table(
      {"comparison", "avg d-lat", "avg d-tput", "d-50% cpu-slack",
       "d-99% cpu-slack", "d-50% mem-slack", "d-99% mem-slack"},
      {{"static vs escra", exp::fmt(vs_static.latency, 1) + "%",
        exp::fmt(vs_static.tput, 1) + "%", exp::fmt(vs_static.cpu50, 1) + "%",
        exp::fmt(vs_static.cpu99, 1) + "%", exp::fmt(vs_static.mem50, 1) + "%",
        exp::fmt(vs_static.mem99, 1) + "%"},
       {"autopilot vs escra", exp::fmt(vs_autopilot.latency, 1) + "%",
        exp::fmt(vs_autopilot.tput, 1) + "%",
        exp::fmt(vs_autopilot.cpu50, 1) + "%",
        exp::fmt(vs_autopilot.cpu99, 1) + "%",
        exp::fmt(vs_autopilot.mem50, 1) + "%",
        exp::fmt(vs_autopilot.mem99, 1) + "%"}});

  // Per-cell detail behind the averages.
  exp::print_section("Per-cell detail (throughput req/s | p99.9 latency ms | "
                     "median cpu/mem slack)");
  std::vector<std::vector<std::string>> rows;
  for (const auto a : kApps) {
    for (const auto w : kWorkloads) {
      for (const auto p : {exp::PolicyKind::kStatic, exp::PolicyKind::kAutopilot,
                           exp::PolicyKind::kEscra}) {
        const exp::RunResult& r = grid_cell(a, w, p);
        rows.push_back({r.app_name, r.workload_name, r.policy_name,
                        exp::fmt(r.throughput_rps, 1),
                        exp::fmt(r.p999_latency_ms, 1),
                        exp::fmt(r.cpu_slack_cores.percentile(50), 2),
                        exp::fmt(r.mem_slack_mib.percentile(50), 1),
                        std::to_string(r.oom_kills),
                        std::to_string(r.failed)});
      }
    }
  }
  exp::print_table({"app", "workload", "policy", "tput", "p99.9ms", "cpu-sl50",
                    "mem-sl50MiB", "ooms", "fails"},
                   rows);

  // Section VI-E: OOM kill counts across the whole grid.
  exp::print_section("Section VI-E: OOM kills across all 16 runs per policy");
  for (const auto p : {exp::PolicyKind::kStatic, exp::PolicyKind::kAutopilot,
                       exp::PolicyKind::kEscra}) {
    const OomCount c = oom_kills(p);
    std::printf("  %-12s total=%llu  worst-single-run=%llu\n",
                exp::policy_name(p), static_cast<unsigned long long>(c.total),
                static_cast<unsigned long long>(c.worst));
  }
  std::printf("(paper: Escra experienced zero OOMs in all experiments)\n");

  const std::string json = to_json(vs_static, vs_autopilot);
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << json;
    if (!out) {
      std::fprintf(stderr, "table1_summary: cannot write %s\n",
                   out_path.c_str());
      return 1;
    }
  }
  return check_path.empty() ? 0 : check_against(check_path, json);
}
