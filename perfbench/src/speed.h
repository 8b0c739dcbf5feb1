// The host's speed, measured while the benchmark runs.
//
// The benchmark's host is a core of a shared machine. Other tenants on the
// same physical core change how fast it runs: over seconds, the same code
// runs up to 1.5x faster or slower, and whole runs drift together. A
// SpeedProbe is a fixed piece of reference work, independent of gqlite,
// that the runner times every few milliseconds between operations. Each
// operation's time is then scaled by how fast the reference work ran
// around it, so a reported time reads as the time on a core that runs the
// reference work in kReferenceProbeNs.
//
// The disk is shared too, and a durable commit's fdatasync waits on it. A
// SyncProbe times one small overwrite plus fdatasync of its own file next
// to the database, so the commit part of a durable write can be scaled by
// the disk's speed instead of the core's.

#ifndef PERFBENCH_SPEED_H_
#define PERFBENCH_SPEED_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The probe's time on the recording host in its usual state; times are
/// reported as if every probe had taken this long.
inline constexpr double kReferenceProbeNs = 450'000;
/// The same for SyncProbe: its time on the recording host's disk.
inline constexpr double kReferenceSyncNs = 120'000;

/// Fixed reference work, shaped like a query engine's inner loops so that
/// it slows down with the same contention for the core, its caches and
/// the shared L3: a 2 MiB read sweep, then a switch-dispatched interpreter
/// over a 256 KiB table and a 128 KiB byte buffer (hash probes, loads and
/// stores, short compares and hashes). It allocates nothing once built.
/// Before timing, it sweeps a buffer larger than the core's L2 cache, so
/// every run starts from the same cache state whatever gqlite did before
/// it.
class SpeedProbe {
 public:
  SpeedProbe();
  /// Runs the reference work once; returns its wall time in nanoseconds.
  int64_t RunNs();

 private:
  std::vector<uint8_t> code_;
  std::vector<uint64_t> table_;
  std::vector<char> bytes_;
  std::vector<uint64_t> evict_;
  std::vector<uint64_t> stream_;
  uint64_t state_ = 0;
};

/// The process's one probe, shared by everything that scales a time.
SpeedProbe& ProcessSpeedProbe();

/// Fixed reference disk work: overwrites 128 bytes at the start of its
/// file and fdatasyncs it, as a commit appends a short WAL frame and
/// syncs it.
class SyncProbe {
 public:
  /// Creates `path`; the caller removes it.
  explicit SyncProbe(const std::string& path);
  ~SyncProbe();
  SyncProbe(const SyncProbe&) = delete;
  SyncProbe& operator=(const SyncProbe&) = delete;
  /// Runs the reference disk work once; returns its wall time in
  /// nanoseconds, or -1 when the file could not be written.
  int64_t RunNs();

 private:
  int fd_;
};

/// For each of `probe_ns` (probes in run order), the factor that scales a
/// time measured next to it to the reference speed: `reference_ns` over
/// the median of the probes within `radius` places of it. The median of
/// neighbours keeps one probe that met a short stall from moving the
/// factor.
std::vector<double> SpeedFactors(const std::vector<double>& probe_ns,
                                 double reference_ns, size_t radius);

}  // namespace perfbench

#endif  // PERFBENCH_SPEED_H_
