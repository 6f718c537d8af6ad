// Property sweeps over the file-transfer protocol: across a grid of
// (file size, granularity, message loss, datagram loss) the protocol
// must either complete with conserved bytes and ordered parts, or fail
// with an explicit reason — and it must never hang (the simulation
// always drains).

#include <gtest/gtest.h>

#include <optional>

#include "peerlab/transport/file_transfer.hpp"

namespace peerlab::transport {
namespace {

struct Grid {
  double size_mb;
  int parts;
  double loss_per_mb;
  double datagram_loss;
  std::uint64_t seed;
};

std::string grid_name(const Grid& g) {
  return "mb" + std::to_string(static_cast<int>(g.size_mb * 10)) + "_p" +
         std::to_string(g.parts) + "_l" + std::to_string(static_cast<int>(g.loss_per_mb * 100)) +
         "_d" + std::to_string(static_cast<int>(g.datagram_loss * 100)) + "_s" +
         std::to_string(g.seed);
}

// ctest lists each case as "<name> # GetParam() = <printed param>";
// without this overload the param prints as raw bytes (padding
// included), so the names could differ between builds.
void PrintTo(const Grid& g, std::ostream* os) { *os << grid_name(g); }

class TransferGridTest : public ::testing::TestWithParam<Grid> {};

TEST_P(TransferGridTest, CompletesOrFailsExplicitlyAndConservesBytes) {
  const auto p = GetParam();
  sim::Simulator sim(p.seed);
  net::Topology topo(sim.rng().fork(1));
  net::NodeProfile sender;
  sender.hostname = "sender";
  sender.uplink_mbps = 10.0;
  sender.downlink_mbps = 10.0;
  sender.control_delay_mean = 0.02;
  sender.control_delay_sigma = 0.2;
  sender.loss_per_megabyte = 0.0;
  topo.add_node(sender);
  net::NodeProfile receiver = sender;
  receiver.hostname = "receiver";
  receiver.loss_per_megabyte = p.loss_per_mb;
  topo.add_node(receiver);
  net::NetworkConfig cfg;
  cfg.datagram_loss = p.datagram_loss;
  net::Network network(sim, std::move(topo), cfg);
  TransportFabric fabric(network);
  FileTransferDirectory directory;
  FileTransferPeer src(fabric.attach(NodeId(1)), directory);
  FileTransferPeer dst(fabric.attach(NodeId(2)), directory);

  FileTransferConfig ft;
  ft.file_size = megabytes(p.size_mb);
  ft.parts = p.parts;
  ft.petition_retry.initial_timeout = 5.0;
  ft.petition_retry.max_attempts = 10;
  ft.confirm_timeout = 10.0;
  ft.max_confirm_queries = 10;
  ft.max_part_attempts = 30;

  std::optional<TransferResult> result;
  src.send_file(NodeId(2), ft, [&](const TransferResult& r) { result = r; });
  sim.run();  // must drain: no hangs

  ASSERT_TRUE(result.has_value()) << "transfer neither completed nor failed";
  if (result->complete) {
    // Byte conservation: parts partition the file exactly.
    Bytes total = 0;
    int expected_index = 0;
    Seconds prev_end = 0.0;
    for (const auto& part : result->parts) {
      EXPECT_EQ(part.index, expected_index++);
      EXPECT_GT(part.size, 0);
      total += part.size;
      // Strict sequencing: the confirm-before-next-part protocol.
      EXPECT_GE(part.data_started, prev_end);
      EXPECT_GE(part.data_completed, part.data_started);
      EXPECT_GE(part.confirmed, part.data_completed);
      prev_end = part.confirmed;
      EXPECT_GE(part.attempts, 1);
      EXPECT_LE(part.attempts, ft.max_part_attempts);
    }
    EXPECT_EQ(total, ft.file_size);
    EXPECT_EQ(static_cast<int>(result->parts.size()), p.parts);
    EXPECT_EQ(dst.parts_received(), static_cast<std::uint64_t>(p.parts));
    // Timing sanity.
    EXPECT_GE(result->petition_time(), 0.0);
    EXPECT_GT(result->transmission_time(), 0.0);
    EXPECT_GE(result->total_time(), result->transmission_time());
  } else {
    EXPECT_STRNE(result->failure, "");  // explicit reason
  }
  // Either way the sender's bookkeeping is clean.
  EXPECT_EQ(src.active_outgoing(), 0u);
}

std::vector<Grid> grid_cases() {
  std::vector<Grid> cases;
  std::uint64_t seed = 100;
  for (const double size : {0.5, 5.0, 50.0}) {
    for (const int parts : {1, 4, 16}) {
      for (const double loss : {0.0, 0.02}) {
        for (const double dgl : {0.0, 0.2}) {
          cases.push_back(Grid{size, parts, loss, dgl, ++seed});
        }
      }
    }
  }
  // A few hostile corners.
  cases.push_back(Grid{100.0, 1, 0.05, 0.3, 999});
  cases.push_back(Grid{10.0, 100, 0.0, 0.3, 998});
  cases.push_back(Grid{1.0, 16, 0.1, 0.1, 997});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, TransferGridTest, ::testing::ValuesIn(grid_cases()),
                         [](const ::testing::TestParamInfo<Grid>& info) {
                           return grid_name(info.param);
                         });

class TransferDeterminismTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TransferDeterminismTest, SameSeedSameOutcome) {
  auto run = [](std::uint64_t seed) {
    sim::Simulator sim(seed);
    net::Topology topo(sim.rng().fork(1));
    for (const char* name : {"a", "b"}) {
      net::NodeProfile p;
      p.hostname = name;
      p.loss_per_megabyte = 0.05;
      p.control_delay_sigma = 0.4;
      topo.add_node(p);
    }
    net::NetworkConfig cfg;
    cfg.datagram_loss = 0.1;
    net::Network network(sim, std::move(topo), cfg);
    TransportFabric fabric(network);
    FileTransferDirectory directory;
    FileTransferPeer src(fabric.attach(NodeId(1)), directory);
    FileTransferPeer dst(fabric.attach(NodeId(2)), directory);
    FileTransferConfig ft;
    ft.file_size = megabytes(8.0);
    ft.parts = 4;
    std::optional<TransferResult> result;
    src.send_file(NodeId(2), ft, [&](const TransferResult& r) { result = r; });
    sim.run();
    return result;
  };
  const auto a = run(GetParam());
  const auto b = run(GetParam());
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->complete, b->complete);
  EXPECT_DOUBLE_EQ(a->finished, b->finished);
  EXPECT_DOUBLE_EQ(a->petition_time(), b->petition_time());
  ASSERT_EQ(a->parts.size(), b->parts.size());
  for (std::size_t i = 0; i < a->parts.size(); ++i) {
    EXPECT_EQ(a->parts[i].attempts, b->parts[i].attempts);
    EXPECT_DOUBLE_EQ(a->parts[i].confirmed, b->parts[i].confirmed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransferDeterminismTest,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

}  // namespace
}  // namespace peerlab::transport
