// perfbench — the repository benchmark's measuring binary. One invocation
// runs one workload (kv-inproc | kv-tcp) for about --seconds of
// measured time and prints one JSON line: whether every oracle held, the
// operations attempted and failed, the end-to-end metrics and the per-layer
// metrics. perfbench/run.py builds it and shapes that line for callers.
//
//   perfbench --workload kv-inproc --part bank|kv --seed 1 --seconds 40
//             [--trace 0|1] [--sabotage none|drop-transfer|scan-sum]
//             [--trace-out FILE]
//
// Each part runs in a process of its own (README, "Rounds"); run.py merges
// the two result lines.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "common.hpp"
#include "fronts.hpp"

namespace perfbench {

namespace trace {

std::map<std::string, Summary> finish(const std::string& path,
                                      std::uint64_t* dropped) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  std::vector<const Span*> all;
  *dropped = 0;
  for (const auto& b : r.buffers) {
    *dropped += b->dropped;
    for (const Span& s : b->spans) all.push_back(&s);
  }
  // Child time per parent id, clipped to the parent's interval.
  std::map<std::uint64_t, const Span*> by_id;
  for (const Span* s : all) by_id[s->id] = s;
  std::map<std::uint64_t, std::uint64_t> child_ns;
  for (const Span* s : all) {
    if (s->parent == 0) continue;
    auto it = by_id.find(s->parent);
    if (it == by_id.end()) continue;
    const Span* p = it->second;
    const std::uint64_t lo = std::max(s->start, p->start);
    const std::uint64_t hi = std::min(s->end, p->end);
    if (hi > lo) child_ns[p->id] += hi - lo;
  }
  std::map<std::string, std::vector<double>> dur, self;
  std::ofstream f;
  if (!path.empty()) f.open(path);
  if (f) f << "name\tstart_ns\tend_ns\tid\tparent\treq\n";
  for (const Span* s : all) {
    const std::uint64_t d = s->end > s->start ? s->end - s->start : 0;
    const std::uint64_t c = child_ns.count(s->id) != 0 ? child_ns[s->id] : 0;
    dur[s->name].push_back(static_cast<double>(d));
    self[s->name].push_back(static_cast<double>(d > c ? d - c : 0));
    if (f) {
      f << s->name << '\t' << s->start << '\t' << s->end << '\t' << s->id
        << '\t' << s->parent << '\t' << s->req << '\n';
    }
  }
  std::map<std::string, Summary> out;
  for (auto& [name, v] : dur) {
    Summary& sm = out[name];
    sm.p50_ns = median(v);
    sm.self_p50_ns = median(self[name]);
  }
  return out;
}

}  // namespace trace

namespace {

void put_map(const std::map<std::string, double>& m) {
  std::printf("{");
  bool first = true;
  for (const auto& [k, v] : m) {
    std::printf("%s\"%s\": %.10g", first ? "" : ", ", k.c_str(), v);
    first = false;
  }
  std::printf("}");
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload kv-inproc|kv-tcp "
               "--part bank|kv --seed N --seconds S [--trace 0|1] "
               "[--sabotage none|drop-transfer|scan-sum] [--trace-out FILE]\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, trace_out, part;
  RunParams p;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      p.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      p.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      p.traced = v == "1";
    } else if (a == "--part") {
      part = v;
    } else if (a == "--trace-out") {
      trace_out = v;
    } else if (a == "--sabotage") {
      if (v == "drop-transfer") {
        p.sabotage = Sabotage::kDropTransfer;
      } else if (v == "scan-sum") {
        p.sabotage = Sabotage::kScanSum;
      } else if (v != "none") {
        return usage(("unknown sabotage " + v).c_str());
      }
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (workload == "kv-inproc") {
    p.front = Front::kService;
  } else if (workload == "kv-tcp") {
    p.front = Front::kTcp;
  } else {
    return usage(("unknown workload '" + workload + "'").c_str());
  }
  if (!have_seed || !(p.seconds > 0)) return usage("need --seed and --seconds > 0");
  if (part != "bank" && part != "kv") {
    return usage(("unknown part '" + part + "'").c_str());
  }
  const bool with_bank = part == "bank";

  Report out;
  // Set-up time: the run's fixtures built and torn down 20 times, apart
  // from every warm-up and timed window; the median is reported with the
  // bank part.
  if (with_bank) {
    std::vector<double> setups;
    for (int i = 0; i < 20; ++i) {
      setups.push_back(bank_setup_probe() + kv_setup_probe(p.front));
    }
    out.e2e["setup_s"] = median(setups);
  }
  const std::uint64_t t0 = now_ns();
  if (with_bank) {
    warm_up_host();
    BankPart bank(p);
    for (int r = 0; r < kBankRounds; ++r) bank.round(r, out);
    bank.report(out);
  } else {
    warm_up_kv(p);
    KvPart kv(p);
    for (int r = 0; r < kKvRounds; ++r) kv.round(r, out);
    kv.report(out);
  }
  out.layer["run.elapsed_s." + part] = static_cast<double>(now_ns() - t0) / 1e9;

  if (p.traced) {
    std::uint64_t dropped = 0;
    const auto spans = trace::finish(trace_out, &dropped);
    out.layer["trace.spans_dropped"] = static_cast<double>(dropped);
    for (const auto& [name, sm] : spans) {
      out.layer["span.p50_ns." + name] = sm.p50_ns;
      out.layer["span.self_p50_ns." + name] = sm.self_p50_ns;
    }
    auto span_p50 = [&](const std::string& name) {
      auto it = spans.find(name);
      return it == spans.end() ? 0.0 : it->second.p50_ns;
    };
    if (with_bank) {
      for (const char* v : bank_variants()) {
        const std::string s = v;
        out.layer["stm.transfer_ns." + s] = span_p50("api.run.transfer." + s);
        out.layer["stm.compute_total_us." + s] =
            span_p50("api.run.compute_total." + s) / 1e3;
      }
    } else {
      out.layer["server.submit_ns"] = span_p50("server.submit");
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              out.correct() ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  std::printf("\"checks\": {");
  bool first = true;
  for (const auto& [k, n] : out.checks) {
    std::printf("%s\"%s\": %llu", first ? "" : ", ", k.c_str(),
                static_cast<unsigned long long>(n));
    first = false;
  }
  std::printf("}, \"e2e\": ");
  put_map(out.e2e);
  std::printf(", \"layer\": ");
  put_map(out.layer);
  std::printf("}\n");
  return 0;
}
