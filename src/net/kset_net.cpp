#include "net/kset_net.hpp"

#include <utility>

namespace sskel {

NetKSetReport run_kset_over_network(const LinkMatrix& links,
                                    const NetKSetConfig& config) {
  const ProcId n = links.n();
  NetRoundDriver<SkeletonMessage> driver(
      config.net, links, make_kset_processes(n, config.run));

  NetKSetReport report;
  report.kset = run_kset_on_engine(driver, config.run);
  report.delivered_messages = driver.delivered_messages();
  report.late_messages = driver.late_messages();
  report.lost_messages = driver.lost_messages();
  report.wall_clock = driver.now();
  return report;
}

}  // namespace sskel
