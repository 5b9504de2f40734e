#include "adversary/crash.hpp"

#include "util/assert.hpp"

namespace sskel {

CrashSource::CrashSource(ProcId n, std::vector<CrashEvent> events)
    : n_(n), events_(std::move(events)) {
  SSKEL_REQUIRE(n > 0);
  ProcSet victims(n);
  for (const CrashEvent& e : events_) {
    SSKEL_REQUIRE(e.victim >= 0 && e.victim < n);
    SSKEL_REQUIRE(e.round >= 1);
    SSKEL_REQUIRE(e.partial_receivers.universe() == n);
    SSKEL_REQUIRE(!victims.contains(e.victim));
    victims.insert(e.victim);
  }
}

Digraph CrashSource::graph(Round r) {
  SSKEL_REQUIRE(r >= 1);
  Digraph g = Digraph::complete(n_);
  for (const CrashEvent& e : events_) {
    if (r < e.round) continue;
    // Drop the victim's out-edges; in its crash round it still reaches
    // the partial receiver set. (The simulator restores the self-loop.)
    for (ProcId p = 0; p < n_; ++p) {
      const bool keep = r == e.round && e.partial_receivers.contains(p);
      if (!keep) g.remove_edge(e.victim, p);
    }
  }
  return g;
}

ProcSet CrashSource::correct_processes() const {
  ProcSet correct = ProcSet::full(n_);
  for (const CrashEvent& e : events_) correct.erase(e.victim);
  return correct;
}

std::unique_ptr<CrashSource> make_random_crash_source(std::uint64_t seed,
                                                      ProcId n, int f,
                                                      Round max_crash_round) {
  SSKEL_REQUIRE(validate(CrashParams{n, f, max_crash_round}).empty());
  Rng rng(seed);
  std::vector<ProcId> ids(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n; ++p) ids[static_cast<std::size_t>(p)] = p;
  rng.shuffle(ids);

  std::vector<CrashEvent> events;
  for (int i = 0; i < f; ++i) {
    CrashEvent e;
    e.victim = ids[static_cast<std::size_t>(i)];
    e.round = static_cast<Round>(
        1 + rng.next_below(static_cast<std::uint64_t>(max_crash_round)));
    e.partial_receivers = ProcSet(n);
    for (ProcId p = 0; p < n; ++p) {
      if (rng.next_bool(0.5)) e.partial_receivers.insert(p);
    }
    events.push_back(std::move(e));
  }
  return std::make_unique<CrashSource>(n, std::move(events));
}

}  // namespace sskel
