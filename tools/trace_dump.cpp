// sskel_trace — inspect and seed framed trace captures.
//
//   sskel_trace dump      --file=F            pretty-print a capture
//   sskel_trace make-seed --out=DIR           write fuzz-corpus seeds
//
// Replaying a capture's graphs is `sskel replay --file=F`.
//
// dump is the debugging face of DESIGN.md §14: it decodes with the
// hardened decoder and prints *where* and *why* a malformed capture
// was rejected (status, byte offset, field), so a fuzzer artifact or a
// truncated CI upload explains itself.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "rounds/trace.hpp"
#include "skeleton/codec.hpp"
#include "util/cli.hpp"

namespace {

using namespace sskel;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: sskel_trace <dump|make-seed> [flags]\n"
               "  dump      --file=FILE\n"
               "  make-seed --out=DIR\n");
  std::exit(2);
}

std::vector<std::uint8_t> load_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    std::fprintf(stderr, "sskel_trace: cannot read %s\n", path.c_str());
    std::exit(1);
  }
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(is),
                                   std::istreambuf_iterator<char>());
}

void save_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    std::fprintf(stderr, "sskel_trace: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  os.write(reinterpret_cast<const char*>(b.data()),
           static_cast<std::streamsize>(b.size()));
}

RunCapture load_capture(const std::string& path) {
  DecodeResult<RunCapture> r = decode_trace(load_file(path));
  if (!r.ok()) {
    std::fprintf(stderr, "sskel_trace: %s: %s\n", path.c_str(),
                 r.error().to_string().c_str());
    std::exit(1);
  }
  return std::move(r.value());
}

const char* source_name(TraceSource s) {
  switch (s) {
    case TraceSource::kSimulator: return "simulator";
    case TraceSource::kNetRing: return "net/ring";
    case TraceSource::kNetEventQueue: return "net/event-queue";
  }
  return "?";
}

const char* kind_name(DeliveryKind k) {
  switch (k) {
    case DeliveryKind::kOnTime: return "on-time";
    case DeliveryKind::kLate: return "late";
    case DeliveryKind::kDropped: return "dropped";
    case DeliveryKind::kTieDiscard: return "tie-discard";
  }
  return "?";
}

int cmd_dump(const CliArgs& args) {
  const std::string path = args.get_string("file", "");
  if (path.empty()) usage();
  const RunCapture c = load_capture(path);

  std::cout << "header: n=" << c.header.n << " source="
            << source_name(c.header.source) << " seed=" << c.header.seed
            << " D=" << c.header.round_duration << "\n";
  std::cout << "frames: " << c.graphs.size() << " graphs, " << c.stats.size()
            << " stats, " << c.messages.size() << " messages, "
            << c.deliveries.size() << " deliveries, " << c.closes.size()
            << " closes\n";
  for (std::size_t i = 0; i < c.graphs.size(); ++i) {
    const Digraph& g = c.graphs[i];
    std::cout << "  round " << i + 1 << ": " << g.nodes().count()
              << " nodes, " << g.edge_count() << " edges";
    if (i < c.stats.size()) {
      std::cout << ", " << c.stats[i].messages_delivered << " msgs, "
                << c.stats[i].bytes_delivered << " bytes";
    }
    std::cout << "\n";
  }
  std::int64_t by_kind[4] = {0, 0, 0, 0};
  for (const DeliveryRecord& d : c.deliveries) {
    ++by_kind[static_cast<int>(d.kind)];
  }
  std::cout << "deliveries: " << by_kind[0] << " on-time, " << by_kind[1]
            << " late, " << by_kind[2] << " dropped, " << by_kind[3]
            << " tie-discard\n";
  if (!c.deliveries.empty()) {
    std::cout << "first deliveries:\n";
    for (std::size_t i = 0; i < c.deliveries.size() && i < 10; ++i) {
      const DeliveryRecord& d = c.deliveries[i];
      std::cout << "  r" << d.round << " " << d.from << "->" << d.to << " "
                << kind_name(d.kind) << " t=" << d.time << "\n";
    }
  }
  return 0;
}

int cmd_make_seed(const CliArgs& args) {
  const std::string dir = args.get_string("out", "");
  if (dir.empty()) usage();

  // Graph-codec seed: labels spanning one- and two-byte varints.
  LabeledDigraph lg(11, 4);
  for (ProcId p = 0; p < 11; ++p) lg.add_node(p);
  lg.set_edge(4, 7, 200);
  lg.set_edge(9, 1, 3);
  save_file(dir + "/graph_codec.bin", encode_graph(lg));

  // Trace seed: every frame type, every delivery kind, and node churn
  // (round 2's graph lacks node 4, round 3's has it back).
  RunCapture c;
  c.header = TraceHeader{5, TraceSource::kNetRing, 42, 1000};
  Digraph g(5);
  g.add_self_loops();
  g.add_edge(0, 1);
  Digraph churned = g;
  churned.remove_node(4);
  c.graphs = {g, churned, g};
  c.stats = {RoundStats{1, 7, 140, 20}};
  c.messages.push_back(MessageRecord{1, 0, {0xde, 0xad, 0xbe, 0xef}});
  c.deliveries.push_back(DeliveryRecord{1, 0, 1, DeliveryKind::kOnTime, 900});
  c.deliveries.push_back(DeliveryRecord{1, 1, 2, DeliveryKind::kLate, 1100});
  c.deliveries.push_back(DeliveryRecord{1, 2, 3, DeliveryKind::kDropped, 0});
  c.deliveries.push_back(
      DeliveryRecord{1, 3, 4, DeliveryKind::kTieDiscard, 1000});
  c.closes.push_back(CloseRecord{1, 0, 1000});
  save_file(dir + "/trace_codec.bin", encode_trace(c));

  std::cout << "wrote graph_codec.bin, trace_codec.bin to "
            << dir << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  const CliArgs args(argc - 1, argv + 1, {"file", "out"});
  if (command == "dump") return cmd_dump(args);
  if (command == "make-seed") return cmd_make_seed(args);
  usage();
}
