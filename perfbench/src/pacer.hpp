// The benchmark's open-loop pacer. It runs on the generator thread and
// lowers that thread's timer slack (PR_SET_TIMERSLACK is per thread) for its
// lifetime, so a sleep ends within a few microseconds of its deadline
// instead of the default 50 us late. It sleeps to kSpinNs (100 us) short of each
// scheduled arrival, then spins. The caller stamps every request with its
// scheduled time, so any lateness still lands in the measured latency; the
// pacer also reports it on its own, so host stalls show apart from the
// program.
#pragma once

#include <sys/prctl.h>

#include <chrono>
#include <cstdint>
#include <thread>

#include "common.hpp"

namespace perfbench {

class Pacer {
 public:
  static constexpr std::uint64_t kSpinNs = 100'000;

  Pacer() : old_slack_(::prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0)) {
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  }
  ~Pacer() {
    if (old_slack_ > 0) {
      ::prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(old_slack_), 0, 0,
              0);
    }
  }
  Pacer(const Pacer&) = delete;
  Pacer& operator=(const Pacer&) = delete;

  /// Returns once `due` has passed; the result is the lateness in ns.
  static std::uint64_t wait_until(std::uint64_t due) {
    std::uint64_t now = now_ns();
    if (due > now + kSpinNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - kSpinNs));
    }
    while ((now = now_ns()) < due) {
    }
    return now - due;
  }

 private:
  long old_slack_;
};

}  // namespace perfbench
