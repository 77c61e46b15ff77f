// The real-socket wire path: UdpSocket primitives, then the full
// exporter → UDP datagram → decoder round trip over loopback.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/slo.h"
#include "obs/wire/wire_decoder.h"
#include "obs/wire/wire_encoder.h"
#include "obs/wire/wire_transport.h"
#include "util/udp.h"

namespace lumen::obs::wire {
namespace {

std::vector<std::byte> as_bytes(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

TEST(UdpSocketTest, BindSendReceiveRoundTrip) {
  lumen::UdpSocket receiver(0);  // kernel-assigned ephemeral port
  ASSERT_TRUE(receiver.ok());
  ASSERT_NE(receiver.port(), 0);

  lumen::UdpSocket sender;
  ASSERT_TRUE(sender.ok());
  const auto payload = as_bytes("wire telemetry datagram");
  ASSERT_TRUE(sender.send_to(receiver.port(), payload));

  std::vector<std::byte> buf(512);
  const long got = receiver.recv(buf, /*timeout_seconds=*/2.0);
  ASSERT_EQ(got, static_cast<long>(payload.size()));
  EXPECT_EQ(std::memcmp(buf.data(), payload.data(), payload.size()), 0);
}

TEST(UdpSocketTest, RecvTimesOutWhenQuiet) {
  lumen::UdpSocket receiver(0);
  ASSERT_TRUE(receiver.ok());
  std::vector<std::byte> buf(64);
  EXPECT_EQ(receiver.recv(buf, /*timeout_seconds=*/0.01), 0);
  EXPECT_EQ(receiver.recv(buf, /*timeout_seconds=*/-1.0), 0);  // pure poll
}

TEST(UdpSocketTest, OversizedDatagramIsTruncatedToBuffer) {
  lumen::UdpSocket receiver(0);
  ASSERT_TRUE(receiver.ok());
  lumen::UdpSocket sender;
  ASSERT_TRUE(sender.send_to(receiver.port(),
                             as_bytes(std::string(300, 'x'))));
  std::vector<std::byte> buf(100);
  EXPECT_EQ(receiver.recv(buf, 2.0), 100);
}

TEST(UdpSocketTest, MovedFromSocketIsInert) {
  lumen::UdpSocket receiver(0);
  const std::uint16_t port = receiver.port();
  lumen::UdpSocket moved = std::move(receiver);
  EXPECT_TRUE(moved.ok());
  EXPECT_EQ(moved.port(), port);
  EXPECT_FALSE(receiver.ok());  // NOLINT(bugprone-use-after-move): pinned
  EXPECT_FALSE(receiver.send_to(port, as_bytes("x")));
}

TEST(WireUdpTest, SnapshotSurvivesARealSocketHop) {
  lumen::UdpSocket receiver(0);
  ASSERT_TRUE(receiver.ok());
  UdpWireTransport transport(receiver.port());
  ASSERT_TRUE(transport.ok());
  WireExporter exporter(transport);

  PumpSnapshot sent;
  sent.tick = 11;
  sent.uptime_seconds = 5.5;
  sent.counters = {{"lumen.rwa.blocked", "", 7, 2}};
  sent.gauges = {{"lumen.rwa.util.fragmentation", "", 0.125}};
  exporter.export_snapshot(sent);
  ASSERT_EQ(exporter.stats().frames_lost, 0u);

  WireDecoder decoder;
  std::vector<std::byte> buf(65536);
  for (std::uint64_t i = 0; i < exporter.stats().frames_sent; ++i) {
    const long got = receiver.recv(buf, 2.0);
    ASSERT_GT(got, 0);
    EXPECT_TRUE(decoder.decode_frame(
        std::span<const std::byte>(buf.data(), static_cast<std::size_t>(got))));
  }
  decoder.flush();
  const auto snapshots = decoder.take_snapshots();
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(snapshots[0].tick, sent.tick);
  EXPECT_EQ(snapshots[0].counters, sent.counters);
  EXPECT_EQ(snapshots[0].counters[0].delta, 2u);
  EXPECT_EQ(snapshots[0].gauges, sent.gauges);
  EXPECT_EQ(pump_snapshot_to_json(snapshots[0]), pump_snapshot_to_json(sent));
}

TEST(WireUdpTest, SendToDeadPortCountsAsLostNotFatal) {
  // Nothing listens on the receiver's port once it closes; loopback UDP
  // reports the ICMP refusal on a later send.  Whatever the kernel does,
  // the exporter must keep running and keep its sequence advancing so a
  // future collector sees the gap.
  lumen::UdpSocket placeholder(0);
  const std::uint16_t dead_port = placeholder.port();
  placeholder.close();

  UdpWireTransport transport(dead_port);
  ASSERT_TRUE(transport.ok());
  WireExporter exporter(transport);
  PumpSnapshot snapshot;
  for (std::uint64_t tick = 1; tick <= 3; ++tick) {
    snapshot.tick = tick;
    exporter.export_snapshot(snapshot);
  }
  EXPECT_EQ(exporter.stats().frames_sent + exporter.stats().frames_lost, 3u);
  EXPECT_EQ(exporter.next_sequence(), 3u);
}

}  // namespace
}  // namespace lumen::obs::wire
