// Figure 3 — chip power breakdown during nominal operation (single active
// core, other cores power-gated, NoC fully on) for 4/8/16/32-core CMPs.
//
// Paper numbers (McPAT, Niagara2-based): NoC accounts for 18 %, 26 %,
// 35 %, 42 % of chip power — rising as the dark-silicon fraction grows,
// while the single active core's share keeps shrinking.
#include <cstdio>

#include "bench_util.hpp"
#include "power/chip_power.hpp"

using namespace nocs;
using namespace nocs::power;

int main(int argc, char** argv) {
  const Config cfg = bench::parse_config(argc, argv);
  bench::banner("Figure 3: chip power breakdown at nominal operation",
                "1 active core, dark cores gated, NoC fully powered "
                "(McPAT-style Niagara2 calibration)",
                noc::NetworkParams::from_config(cfg));

  Table t({"cores", "core (W)", "L2 (W)", "NoC (W)", "MC (W)", "others (W)",
           "total (W)", "NoC share", "core share"});
  std::string shares;
  for (int n : {4, 8, 16, 32}) {
    ChipPowerParams params;
    params.num_cores = n;
    const ChipPowerModel model(params);
    const ChipPowerBreakdown b = model.nominal();
    t.add_row({Table::fmt(static_cast<long long>(n)),
               Table::fmt(b.cores, 2), Table::fmt(b.l2, 2),
               Table::fmt(b.noc, 2), Table::fmt(b.mc, 2),
               Table::fmt(b.others, 2), Table::fmt(b.total(), 2),
               Table::pct(b.noc / b.total()),
               Table::pct(b.cores / b.total())});
    if (!shares.empty()) shares += "/";
    shares += Table::pct(b.noc / b.total(), 0);
  }
  t.print();

  bench::headline("NoC share of chip power at nominal (4/8/16/32 cores)",
                  "18%/26%/35%/42%", shares);
  return 0;
}
