// lumen wire telemetry: the frame format (version 1).
//
// An IPFIX-shaped, template-based binary export protocol.  A frame is
// one UDP datagram (or one loopback buffer):
//
//   message header (16 bytes, all integers big-endian)
//     u16 version      kWireVersion (1)
//     u16 length       total frame bytes, header included
//     u32 sequence     per-exporter frame counter (gap detection)
//     u32 export_tick  pump tick at export time (diagnostic)
//     u32 domain       observation-domain id (one per exporting process)
//   followed by sets until `length` is exhausted:
//     u16 set_id       kTemplateSetId announces layouts; >= kMinDataSetId
//                      carries data records shaped by that template id
//     u16 set_length   set bytes, set header included
//
// A template record inside a template set:
//     u16 template_id, u16 field_count,
//     field_count x (u16 field_id, u16 field_length)
// where field_length kVarLen (0xFFFF) means a u16-length-prefixed string
// and 1/2/4/8 mean a big-endian unsigned integer of that width (fields
// carrying doubles use width 8 and travel as IEEE-754 bit patterns).
//
// Data records follow their template's field list back to back; a set
// holds as many records as fit its length.  Templates describe layouts
// once (and are re-announced periodically, UDP being lossy); data
// records reference them by set id — the collector buffers data sets
// that arrive before their template and replays them once it shows up.
//
// The templates below are the protocol's builtin vocabulary: counter /
// gauge series, histogram series with their buckets, and snapshot
// boundaries (the MetricsPump feed), profile stacks, SLO alerts, and
// flight-recorder route events.  A decoder skips unknown field ids inside
// a known template, and consumes records of an unknown template at their
// declared widths, so appending fields to a template is a compatible
// change; new record kinds take a fresh template id.  Ids 256 (counter),
// 257 (gauge), 258 (histogram summary) and 263 (labeled histogram
// summary) are retired: they are neither sent nor decoded, and stay
// reserved.
//
// Everything in this header is passive data — compiled identically with
// and without LUMEN_OBS_DISABLED, so an obs-off collector still decodes
// frames produced by an instrumented peer.
#pragma once

#include <cstddef>
#include <cstdint>

namespace lumen::obs::wire {

inline constexpr std::uint16_t kWireVersion = 1;
inline constexpr std::size_t kHeaderBytes = 16;
inline constexpr std::size_t kSetHeaderBytes = 4;

/// Set id announcing template records (IPFIX uses 2 as well).
inline constexpr std::uint16_t kTemplateSetId = 2;
/// Smallest set id that names a template (= smallest template id).
inline constexpr std::uint16_t kMinDataSetId = 256;

/// Variable-length marker in a template field spec.
inline constexpr std::uint16_t kVarLen = 0xFFFF;

/// Builtin template ids.
enum TemplateId : std::uint16_t {
  kSnapshotTemplate = 259,    ///< snapshot boundary (tick, uptime)
  kAlertTemplate = 260,       ///< one SLO alert transition
  kRouteEventTemplate = 261,  ///< one flight-recorder route event
  /// One counter or gauge series, plain (labels "") or labeled; kFKind
  /// discriminates.
  kSeriesTemplate = 262,
  /// One aggregated profiler stage stack.
  kProfileTemplate = 264,
  /// One histogram series: sum, extremes, and its bucket list.
  kHistogramTemplate = 265,
};

/// Field ids (the protocol's information elements).  Ids 5-11 and 52
/// belonged to the retired histogram-summary templates.
enum FieldId : std::uint16_t {
  kFName = 1,      ///< instrument name (var)
  kFValueU64 = 2,  ///< counter lifetime value (u64)
  kFDeltaU64 = 3,  ///< counter delta since previous tick (u64)
  kFValueF64 = 4,  ///< gauge level / alert value (f64)

  kFTick = 20,       ///< pump tick (u64)
  kFUptime = 21,     ///< uptime seconds (f64)
  kFRule = 22,       ///< alert rule name (var)
  kFMetric = 23,     ///< alert metric name (var)
  kFThreshold = 24,  ///< f64
  kFResolved = 25,   ///< u8 (0 breach, 1 resolve)
  kFDumpPath = 26,   ///< flight-recorder dump path (var)

  kFSequence = 30,       ///< route-event sequence (u64)
  kFSource = 31,         ///< u32
  kFTarget = 32,         ///< u32
  kFPolicy = 33,         ///< var
  kFHeap = 34,           ///< var
  kFOutcome = 35,        ///< var
  kFCost = 36,           ///< f64
  kFHops = 37,           ///< u32
  kFConversions = 38,    ///< u32
  kFAuxNodes = 39,       ///< u64
  kFAuxLinks = 40,       ///< u64
  kFRelaxations = 41,    ///< u64
  kFHeapPops = 42,       ///< u64
  kFBuildSeconds = 43,   ///< f64
  kFSearchSeconds = 44,  ///< f64
  kFTraceId = 45,        ///< u64

  kFKind = 46,      ///< u8: series kind (0 counter, 1 gauge)
  kFLabels = 47,    ///< canonical TagSet labels "k=v,k=v" (var)
  kFStack = 48,     ///< ';'-joined profile stage stack (var)
  kFSamples = 49,   ///< profile weighted sample count (u64)
  kFSelfNs = 50,    ///< profile weighted self nanoseconds (u64)
  kFTotalNs = 51,   ///< profile weighted total nanoseconds (u64)

  kFSum = 53,      ///< histogram sum of ticks (u64)
  kFMinTicks = 54,  ///< histogram smallest tick, 0 when empty (u64)
  kFMaxTicks = 55,  ///< histogram largest tick (u64)
  /// Histogram buckets (var): one (u8 index, u64 count, u64 exemplar)
  /// triple per bucket holding a count or an exemplar, indices strictly
  /// increasing and below HistogramData::kBuckets.
  kFBuckets = 56,
};

/// Bytes of one kFBuckets triple.
inline constexpr std::size_t kBucketTripleBytes = 1 + 8 + 8;

/// One field spec of a template: (field id, encoded length).
struct FieldSpec {
  std::uint16_t id;
  std::uint16_t length;  // 1/2/4/8, or kVarLen
};

/// The builtin template layouts, exactly as the exporter announces them.
inline constexpr FieldSpec kSnapshotFields[] = {{kFTick, 8}, {kFUptime, 8}};
inline constexpr FieldSpec kAlertFields[] = {
    {kFRule, kVarLen},  {kFMetric, kVarLen}, {kFValueF64, 8},
    {kFThreshold, 8},   {kFResolved, 1},     {kFTick, 8},
    {kFDumpPath, kVarLen}};
inline constexpr FieldSpec kRouteEventFields[] = {
    {kFSequence, 8},       {kFSource, 4},          {kFTarget, 4},
    {kFPolicy, kVarLen},   {kFHeap, kVarLen},      {kFOutcome, kVarLen},
    {kFCost, 8},           {kFHops, 4},            {kFConversions, 4},
    {kFAuxNodes, 8},       {kFAuxLinks, 8},        {kFRelaxations, 8},
    {kFHeapPops, 8},       {kFBuildSeconds, 8},    {kFSearchSeconds, 8},
    {kFTraceId, 8}};
inline constexpr FieldSpec kSeriesFields[] = {
    {kFName, kVarLen}, {kFLabels, kVarLen}, {kFKind, 1},
    {kFValueU64, 8},   {kFDeltaU64, 8},     {kFValueF64, 8}};
inline constexpr FieldSpec kProfileFields[] = {
    {kFStack, kVarLen}, {kFSamples, 8}, {kFSelfNs, 8}, {kFTotalNs, 8}};
inline constexpr FieldSpec kHistogramFields[] = {
    {kFName, kVarLen}, {kFLabels, kVarLen}, {kFSum, 8},
    {kFMinTicks, 8},   {kFMaxTicks, 8},     {kFBuckets, kVarLen}};

}  // namespace lumen::obs::wire
