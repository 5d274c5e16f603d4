// Plan-cache snapshots: crash-safe persistence for lbsd's warm state.
//
// A plan is a pure function of its PlanKey, so the plan cache's
// contents are trivially safe to persist and replay: a restored entry can
// never be stale, only evicted. What must NOT happen is a torn or
// corrupted file silently warming the cache with garbage — so the format
// is defensive end to end:
//
//   header (24 bytes, little-endian):
//     u64 magic            "LBSSNAP1" — rejects foreign files instantly
//     u32 format_version   kSnapshotVersion; bump on any layout change
//     u32 entry_count
//     u32 payload_bytes
//     u32 payload_crc32    support::crc32 over the payload
//   payload: entry_count entries in LRU order (least recent first),
//     each encoded with the wire codec's primitives (protocol.hpp), so
//     doubles are IEEE-754 bit patterns and a restored plan is
//     bit-identical to the one that was solved:
//       key:  u32 n | n x u64 cost fingerprints | i64 items | u8 algorithm
//       plan: u8 algorithm_used | f64 predicted_makespan
//             | i64 dp_cells_evaluated | u32 dp_threads
//             | u32 p | p x i64 counts | u32 p | p x f64 predicted_finish
//     (displacements are prefix sums of counts — recomputed exactly).
//
// Writes are atomic: serialize to `<path>.tmp.<pid>`, fsync, rename(2)
// over the target. A crash mid-write leaves either the previous snapshot
// or a stray tmp file — never a half-written target — and any torn,
// truncated, stale-versioned, or bit-flipped file fails read_snapshot
// with a typed lbs::Error, which the server turns into a logged cold
// start, not a crash.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/plan_cache.hpp"

namespace lbs::service {

inline constexpr std::uint64_t kSnapshotMagic = 0x3150414E5353424CULL;  // "LBSSNAP1"
// v2: plan entries grew the Eq. 4 optimality certificate (flag + f64 gap).
inline constexpr std::uint32_t kSnapshotVersion = 2;
// One snapshot entry is O(p) small; this bounds a hostile or corrupt
// entry_count before any allocation trusts it.
inline constexpr std::uint32_t kMaxSnapshotEntries = 1u << 20;
inline constexpr std::uint32_t kMaxSnapshotPayloadBytes = 256u << 20;

using SnapshotEntry = std::pair<core::PlanKey, core::ScatterPlan>;

class WireReader;
class WireWriter;

// The per-entry codec, shared by the snapshot file format and the
// SnapshotRange handoff frames (protocol.hpp): a joining replica's
// warm-start entries travel the wire in exactly the bytes the snapshot
// file would hold, so both paths restore bit-identical plans.
void encode_snapshot_entry(WireWriter& out, const SnapshotEntry& entry);
[[nodiscard]] SnapshotEntry decode_snapshot_entry(WireReader& in);

struct SnapshotStats {
  std::size_t entries = 0;
  std::size_t bytes = 0;  // payload + header
};

// Serializes entries and atomically replaces `path`. Throws lbs::Error on
// I/O failure (unwritable directory, rename failure) — the caller decides
// whether that is fatal (a CLI) or a counted, retried event (the server's
// periodic writer).
SnapshotStats write_snapshot(const std::string& path,
                             const std::vector<SnapshotEntry>& entries);

// Reads and fully validates a snapshot. Throws lbs::Error on a missing
// file, foreign magic, version mismatch, truncation, trailing bytes, or a
// checksum mismatch; returns the entries (least recent first) otherwise.
[[nodiscard]] std::vector<SnapshotEntry> read_snapshot(const std::string& path);

}  // namespace lbs::service
