// Message framing over a Conn, and THE single place wire traffic is
// counted. Every RPC and every shuffled segment byte — loopback or TCP,
// local or distributed run — moves through WriteFrame/ReadFrame, so the
// global antimr_net_* counters (and every shuffle_bytes figure derived from
// frame payloads) measure the same thing at the same boundary in all modes.
//
// Wire layout of one frame:
//
//   fixed32  payload length
//   u8       frame type (net/wire.h MsgType)
//   fixed32  crc32(payload)
//   payload  `length` bytes
//
// A CRC mismatch surfaces as Status::IOError — deliberately the *transient*
// class, not Corruption: a corrupted frame means the wire flaked, and the
// retry layer re-requesting the data is exactly the right response (the
// underlying segment blocks carry their own CRCs against storage rot).
#ifndef ANTIMR_NET_FRAME_H_
#define ANTIMR_NET_FRAME_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "net/transport.h"

namespace antimr {
namespace net {

/// Frame header bytes on the wire (length + type + crc).
constexpr size_t kFrameHeaderBytes = 4 + 1 + 4;

/// Upper bound on a single frame's payload; a peer announcing more is
/// treated as a corrupt/hostile stream, not an allocation request.
constexpr uint32_t kMaxFramePayload = 256u * 1024 * 1024;

/// Process-wide wire-traffic counters, all incremented only by
/// WriteFrame/ReadFrame. Exported through the global MetricsRegistry as
/// antimr_net_bytes_sent_total, antimr_net_bytes_received_total,
/// antimr_net_frames_sent_total, antimr_net_frames_received_total.
struct WireCounters {
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t frames_sent = 0;
  uint64_t frames_received = 0;
};

/// Snapshot the current counter values (benches diff two snapshots to get a
/// run's wire traffic).
WireCounters SnapshotWireCounters();

/// Send one frame. Thread-compatible: callers serialize concurrent writers
/// on one Conn with their own mutex.
Status WriteFrame(Conn* conn, uint8_t type, const std::string& payload);

/// Receive one frame into *type / *payload. A clean peer close at a frame
/// boundary returns IOError("connection closed"); a close mid-frame returns
/// IOError("short read"); a CRC mismatch returns IOError("frame crc
/// mismatch ...").
Status ReadFrame(Conn* conn, uint8_t* type, std::string* payload);

}  // namespace net
}  // namespace antimr

#endif  // ANTIMR_NET_FRAME_H_
