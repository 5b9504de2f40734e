#include "skeleton/lemmas.hpp"

#include <optional>
#include <sstream>

#include "graph/reach.hpp"
#include "graph/scc.hpp"
#include "skeleton/intern.hpp"
#include "util/assert.hpp"

namespace sskel {

LemmaMonitor::LemmaMonitor(ProcId n, LemmaChecks checks)
    : n_(n),
      checks_(checks),
      tracker_(n, SkeletonTracker::History::kKeepAll),
      prev_estimates_(static_cast<std::size_t>(n), kNoValue),
      first_sc_(static_cast<std::size_t>(n), {0, LabeledDigraph()}) {
  SSKEL_REQUIRE(n > 0);
}

void LemmaMonitor::attach_intern(StructureInternTable* table) {
  intern_ = table;
  tracker_.attach_intern(table);
}

void LemmaMonitor::report(Round r, ProcId p, const std::string& what) {
  std::ostringstream os;
  os << "round " << r << ", p" << p << ": " << what;
  violations_.push_back(os.str());
}

const Digraph& LemmaMonitor::component_graph(ProcId p) {
  const SccDecomposition& scc = tracker_.current_scc();
  const std::int64_t gen = tracker_.analytics_recomputes();
  std::vector<Digraph>& graphs = induced_components_;
  if (graphs.empty() || induced_version_ != tracker_.version()) {
    // One induced subgraph per component, plus a trailing empty graph
    // serving nodes absent from the skeleton. When we hold the
    // immediately preceding analytics generation, the tracker's origin
    // map tells us which components survived the shrink with members
    // and internal edges intact — their induced graphs are moved over
    // verbatim; only split/rebuilt components run a fresh induced()
    // pass.
    const std::vector<int>& origin = tracker_.component_origin();
    const bool patchable = induced_generation_ + 1 == gen &&
                           !graphs.empty() &&
                           origin.size() == scc.components.size();
    std::vector<Digraph> next;
    next.reserve(scc.components.size() + 1);
    for (std::size_t c = 0; c < scc.components.size(); ++c) {
      const int o = patchable ? origin[c] : -1;
      if (o >= 0 && static_cast<std::size_t>(o) + 1 < graphs.size()) {
        next.push_back(std::move(graphs[static_cast<std::size_t>(o)]));
      } else {
        next.push_back(tracker_.skeleton().induced(scc.components[c]));
      }
    }
    if (!graphs.empty()) {
      next.push_back(std::move(graphs.back()));  // stays empty forever
    } else {
      next.push_back(tracker_.skeleton().induced(ProcSet(n_)));
    }
    graphs = std::move(next);
    induced_version_ = tracker_.version();
    ++induced_recomputes_;
  }
  induced_generation_ = gen;
  const int idx = scc.component_of[static_cast<std::size_t>(p)];
  const std::size_t slot =
      idx < 0 ? graphs.size() - 1 : static_cast<std::size_t>(idx);
  return graphs[slot];
}

void LemmaMonitor::observe_round(Round r, const Digraph& comm_graph,
                                 const std::vector<ProcessSnapshot>& snaps) {
  SSKEL_REQUIRE(snaps.size() == static_cast<std::size_t>(n_));
  tracker_.observe(r, comm_graph);
  const Digraph& skel = tracker_.skeleton();
  // Lemma 7's historical base decomposition, resolved lazily once per
  // round (it is the same graph for every process). With an intern
  // table attached the decomposition is served from the canonical
  // entry's memoized Tarjan — one pass per *distinct* base skeleton
  // for the whole run, instead of one per round.
  const SccDecomposition* base_scc = nullptr;
  std::optional<SccDecomposition> scc_base;  // private-path storage

  for (ProcId p = 0; p < n_; ++p) {
    const auto pi = static_cast<std::size_t>(p);
    const ProcessSnapshot& snap = snaps[pi];
    const LabeledDigraph& gp = snap.approx;

    if (checks_.observation1) {
      if (!gp.has_node(p)) report(r, p, "Obs.1: owner not in G_p");
      const Round min_l = gp.min_label();
      if (min_l != 0 && min_l <= r - n_) {
        report(r, p, "Obs.1: stale label " + std::to_string(min_l) +
                         " survives purge window");
      }
      if (gp.max_label() > r) {
        report(r, p, "Obs.1: label from the future");
      }
    }

    if (checks_.lemma3) {
      // PT_p variable must equal PT(p, r) = in-row of G∩r ...
      if (snap.pt != skel.in_neighbors(p)) {
        report(r, p, "Lemma 3: PT_p != PT(p, r); PT_p=" +
                         snap.pt.to_string() + " expected " +
                         skel.in_neighbors(p).to_string());
      }
      // ... and every q in PT(p, r) must carry a fresh (q -r-> p) edge
      // (Line 17 executed this round; merge can only confirm label r).
      for (ProcId q : skel.in_neighbors(p)) {
        if (gp.label(q, p) != r) {
          report(r, p, "Lemma 3: edge (q -r-> p) missing/stale for q=" +
                           std::to_string(q) + " label=" +
                           std::to_string(gp.label(q, p)));
        }
      }
    }

    if (checks_.lemma5 && r >= n_) {
      if (!component_graph(p).is_subgraph_of(gp.unlabeled())) {
        report(r, p, "Lemma 5: C_p^r not a subgraph of G_p^r");
      }
    }

    if (checks_.lemma6) {
      // Every edge (q' -s-> q) of G_p^r must certify q' in PT(q, s),
      // i.e. (q' -> q) in G∩s.
      for (ProcId q2 : gp.nodes()) {
        for (ProcId q : gp.nodes()) {
          const Round s = gp.label(q2, q);
          if (s == 0) continue;
          if (s < 1 || s > r) {
            report(r, p, "Lemma 6: label out of range");
            continue;
          }
          if (!tracker_.skeleton_at(s).has_edge(q2, q)) {
            report(r, p, "Lemma 6: edge (p" + std::to_string(q2) + " -" +
                             std::to_string(s) + "-> p" + std::to_string(q) +
                             ") not in skeleton of its label round");
          }
        }
      }
    }

    const bool sc = gp.strongly_connected();
    if (sc && first_sc_[pi].first == 0) {
      first_sc_[pi] = {r, gp};
    }

    if (checks_.lemma7 && sc && r >= n_) {
      // G_p^R strongly connected => G_p^R subseteq C_p^{R-n+1}. The
      // base skeleton is shared by every process this round, so its
      // decomposition is computed at most once per observe_round.
      const Round base = r - n_ + 1;
      const Digraph& skel_base = tracker_.skeleton_at(base);
      if (base_scc == nullptr) {
        if (intern_ != nullptr) {
          if (InternedStructure* entry = intern_->intern(skel_base)) {
            base_scc = &entry->scc();
            ++lemma7_interned_bases_;
          }
        }
        if (base_scc == nullptr) {  // detached, or the table is full
          scc_base = strongly_connected_components(skel_base);
          base_scc = &*scc_base;
          ++lemma7_private_bases_;
        }
      }
      const int idx = base_scc->component_of[static_cast<std::size_t>(p)];
      const ProcSet cp = idx < 0
                             ? ProcSet(n_)
                             : base_scc->components[static_cast<std::size_t>(idx)];
      const Digraph comp_graph = skel_base.induced(cp);
      if (!gp.unlabeled().is_subgraph_of(comp_graph)) {
        report(r, p, "Lemma 7: strongly connected G_p^r exceeds C_p^{r-n+1}");
      }
    }

    if (checks_.estimates) {
      // Observation 2: estimates never increase through Line 27.
      // A Line-12 adoption overwrites x_p with the sender's decision
      // value, which is outside the observation's scope — skip the
      // round where that adoption happens.
      const bool adopted_now =
          snap.decided_via_message && snap.decision_round == r;
      if (!adopted_now && prev_estimates_[pi] != kNoValue &&
          snap.estimate > prev_estimates_[pi]) {
        report(r, p, "Obs.2: estimate increased");
      }
      // Lemma 12: without a Line-12 decision, estimates are frozen
      // from round n on (x^n = x^{n+1} = ...).
      if (r > n_ && !snap.decided_via_message &&
          prev_estimates_[pi] != kNoValue &&
          snap.estimate != prev_estimates_[pi]) {
        report(r, p, "Lemma 12: estimate changed after round n");
      }
      prev_estimates_[pi] = snap.estimate;
    }
  }
}

void LemmaMonitor::finalize() {
  if (!checks_.theorem8) return;
  // Treat the final skeleton as G∩∞ (valid when the run extends past
  // source stabilization; the runner guarantees this).
  for (ProcId p = 0; p < n_; ++p) {
    const auto& [r, gp] = first_sc_[static_cast<std::size_t>(p)];
    if (r == 0 || r < n_) continue;  // Theorem 8 assumes R >= n
    const Digraph unl = gp.unlabeled();
    for (ProcId q : unl.nodes()) {
      if (!component_graph(q).is_subgraph_of(unl)) {
        report(r, p,
               "Theorem 8: strongly connected G_p^R misses part of C_q^inf "
               "for q=" + std::to_string(q));
      }
    }
  }
}

}  // namespace sskel
