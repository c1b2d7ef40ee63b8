// Ablation — LLC architectures and network power gating (Section 3.4).
//
// For private / centralized / separate-NUCA LLCs, gating the dark region
// needs no extra hardware.  For a tiled shared LLC, dark banks must stay
// reachable: a NoRD-style bypass ring carries the (N-k)/N of LLC accesses
// that target them.  This bench quantifies the bypass's latency and power
// cost against the gating savings it unlocks, per sprint level.
#include <cstdio>

#include "bench_util.hpp"
#include "power/chip_power.hpp"
#include "sprint/llc.hpp"

using namespace nocs;
using namespace nocs::sprint;

int main(int argc, char** argv) {
  const Config cfg = bench::parse_config(argc, argv);
  const noc::NetworkParams net = noc::NetworkParams::from_config(cfg);
  bench::banner("Ablation: LLC architectures vs network power gating",
                "Section 3.4 — bypass-path support for tiled shared LLCs",
                net);

  const MeshShape mesh = net.shape();
  const power::ChipPowerModel chip{power::ChipPowerParams{}};

  std::printf("architectures without extra hardware requirements:\n");
  for (LlcArchitecture arch :
       {LlcArchitecture::kPrivate, LlcArchitecture::kCentralized,
        LlcArchitecture::kNucaSeparate}) {
    LlcParams p;
    p.arch = arch;
    const LlcModel model(mesh, p);
    std::printf("  %-14s gating safe: %s\n", to_string(arch),
                model.analyze(4).gating_safe_without_support ? "yes" : "no");
  }

  std::printf("\ntiled shared LLC (address-interleaved banks), NoRD-style "
              "bypass ring:\n");
  LlcParams tiled;
  tiled.arch = LlcArchitecture::kTiledShared;
  const LlcModel model(mesh, tiled);

  Table t({"level", "dark-bank access frac", "bypass round trip (cyc)",
           "added avg latency (cyc)", "bypass power (mW)",
           "gating saving (W)", "net benefit (W)"});
  for (int level : {2, 4, 6, 8, 12, 16}) {
    const LlcAnalysis a = model.analyze(level);
    const Watts gating_saving =
        chip.noc_power(16) - chip.noc_power(level);
    t.add_row({Table::fmt(static_cast<long long>(level)),
               Table::pct(a.dark_access_fraction),
               Table::fmt(a.avg_bypass_round_trip, 0),
               Table::fmt(a.added_avg_latency, 2),
               Table::fmt(a.bypass_power * 1e3, 1),
               Table::fmt(gating_saving, 2),
               Table::fmt(gating_saving - a.bypass_power, 2)});
  }
  t.print();

  bench::headline(
      "bypass cost vs gating benefit",
      "bypass paths let cache banks stay reachable while routers sleep",
      "ring power is milliwatts against watts of recovered router "
      "leakage — gating stays profitable at every level");
  return 0;
}
