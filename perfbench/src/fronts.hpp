// The three fronts a workload reaches the library through, and the fixed
// parameters every part of the benchmark shares.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "common.hpp"

namespace perfbench {

/// How the KV stream reaches the STM: an in-process KvService, or loopback
/// TCP to a net::TcpServer in front of that service.
enum class Front { kService, kTcp };

/// The runtime modules the bank runs on, in the paper's order.
inline const std::array<const char*, 5>& bank_variants() {
  static const std::array<const char*, 5> v{"lsa", "cs-vc", "sstm", "zl",
                                            "tl2"};
  return v;
}

/// sstm's Compute-Totals starve on the serial rung (README, "Known
/// faults"), so its bank rates depend on timing alone: they are reported
/// as per-layer figures, not end-to-end metrics.
inline bool starves(const std::string& variant) { return variant == "sstm"; }

/// cs-vc's and tl2's Compute-Totals nearly all end on the serial rung, so
/// their rate follows when the gate is granted: per-layer only as well.
inline bool serial_bound(const std::string& variant) {
  return variant == "cs-vc" || variant == "tl2";
}

struct RunParams {
  Front front = Front::kService;
  std::uint64_t seed = 1;
  double seconds = 40;
  bool traced = false;
  Sabotage sabotage = Sabotage::kNone;
};

/// Fixed sizes (README, "Parameters").
constexpr int kAccounts = 1000;
constexpr long kInitialBalance = 1000;
constexpr int kBankThreadsDirect = 4;
constexpr double kComputeTotalShare = 0.2;
constexpr int kServiceWorkers = 2;
constexpr int kIoThreads = 1;
constexpr int kTcpConns = 1;
/// Every run repeats each part's fixtures this many times (fresh each time)
/// and reports the median over the rounds.
constexpr int kBankRounds = 13;
constexpr int kKvRounds = 7;

/// Build and tear down the bank's fixtures (one per variant), or the KV
/// fixture of a front, once; return the seconds it took.
double bank_setup_probe();
double kv_setup_probe(Front front);

/// Runs the bank for a second, unmeasured, to get past a fresh process's
/// slow start.
void warm_up_host();

/// Runs one KV round, unmeasured, for the same reason.
void warm_up_kv(const RunParams& p);

struct VariantAgg;

/// The bank part, on the bare façade in every workload: round(r) runs
/// every variant once on fresh fixtures; report() gives the median over the
/// rounds run.
class BankPart {
 public:
  explicit BankPart(const RunParams& p);
  ~BankPart();
  BankPart(const BankPart&) = delete;
  BankPart& operator=(const BankPart&) = delete;
  void round(int r, Report& out);
  void report(Report& out) const;

 private:
  RunParams p_;
  std::unique_ptr<VariantAgg[]> aggs_;
};

/// The KV stream part, in the same shape.
class KvPart {
 public:
  explicit KvPart(const RunParams& p);
  ~KvPart();
  KvPart(const KvPart&) = delete;
  KvPart& operator=(const KvPart&) = delete;
  void round(int r, Report& out);
  void report(Report& out) const;

 private:
  struct Acc;
  RunParams p_;
  std::unique_ptr<Acc> acc_;
};

}  // namespace perfbench
