#include "perfbench/src/speed.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "perfbench/src/stats.h"
#include "perfbench/src/trace.h"

namespace perfbench {
namespace {

constexpr size_t kCode = 4096;       // instructions, one byte each
constexpr size_t kTable = 1 << 15;   // 256 KiB of uint64_t
constexpr size_t kBytes = 1 << 17;   // 128 KiB
constexpr size_t kEvict = 3 << 17;   // 3 MiB of uint64_t, beyond L2
constexpr size_t kStream = 1 << 18;  // 2 MiB of uint64_t
constexpr int kPasses = 3;           // timed passes over the code

}  // namespace

SpeedProbe::SpeedProbe()
    : code_(kCode),
      table_(kTable),
      bytes_(kBytes),
      evict_(kEvict, 1),
      stream_(kStream, 1) {
  uint64_t s = 0x2545F4914F6CDD1DULL;  // xorshift64: the same work everywhere
  auto next = [&] {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  for (uint8_t& c : code_) c = static_cast<uint8_t>(next() % 8);
  for (uint64_t& t : table_) t = next();
  for (char& b : bytes_) b = static_cast<char>('a' + next() % 4);
}

int64_t SpeedProbe::RunNs() {
  // Evict the probe's own memory from L2, so that every run finds it in
  // the shared L3 whatever ran before.
  uint64_t evicted = 0;
  for (size_t i = 0; i < kEvict; i += 8) evicted += evict_[i];

  const int64_t start = NowNs();
  // Stream 2 MiB from L3, then run the interpreter.
  uint64_t streamed = 0;
  for (size_t i = 0; i < kStream; i += 8) streamed += stream_[i];
  uint64_t r[4] = {evicted, streamed, 3, state_};
  for (int pass = 0; pass < kPasses; ++pass) {
    for (size_t pc = 0; pc < kCode; ++pc) {
      switch (code_[pc]) {
        case 0:
          r[0] += r[1] * 0x9E3779B97F4A7C15ULL;
          break;
        case 1:
          r[1] ^= table_[r[0] & (kTable - 1)];
          break;
        case 2:
          table_[r[1] & (kTable - 1)] += r[2];
          break;
        case 3: {  // linear probing for a slot whose low bits match
          uint64_t h = (r[2] * 0xBF58476D1CE4E5B9ULL) & (kTable - 1);
          while ((table_[h] & 15) != (r[0] & 15)) h = (h + 1) & (kTable - 1);
          r[2] += table_[h];
          break;
        }
        case 4:
          r[3] += std::memcmp(&bytes_[r[1] & (kBytes - 64)],
                              &bytes_[r[3] & (kBytes - 64)], 24) < 0;
          break;
        case 5:
          if (r[0] & 1) {
            r[1] = r[1] * 31 + r[3];
          } else {
            r[3] ^= r[1] >> 3;
          }
          break;
        case 6: {  // FNV-1a over 16 bytes
          const size_t at = r[3] & (kBytes - 32);
          uint64_t h = 14695981039346656037ULL;
          for (size_t k = 0; k < 16; ++k) {
            h = (h ^ static_cast<uint8_t>(bytes_[at + k])) * 1099511628211ULL;
          }
          r[0] ^= h;
          break;
        }
        default:
          r[2] = r[2] * 6364136223846793005ULL + r[0];
          break;
      }
    }
  }
  state_ = r[0] ^ r[1] ^ r[2] ^ r[3];  // keeps the work observable
  return NowNs() - start;
}

SpeedProbe& ProcessSpeedProbe() {
  static SpeedProbe probe;
  return probe;
}

SyncProbe::SyncProbe(const std::string& path)
    : fd_(::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC,
                 0644)) {}

SyncProbe::~SyncProbe() {
  if (fd_ >= 0) ::close(fd_);
}

int64_t SyncProbe::RunNs() {
  static constexpr char kFrame[128] = {1};
  const int64_t start = NowNs();
  if (fd_ < 0 || ::pwrite(fd_, kFrame, sizeof kFrame, 0) != sizeof kFrame ||
      ::fdatasync(fd_) != 0) {
    return -1;
  }
  return NowNs() - start;
}

std::vector<double> SpeedFactors(const std::vector<double>& probe_ns,
                                 double reference_ns, size_t radius) {
  std::vector<double> factors;
  factors.reserve(probe_ns.size());
  for (size_t i = 0; i < probe_ns.size(); ++i) {
    const size_t lo = i > radius ? i - radius : 0;
    const size_t hi = std::min(probe_ns.size(), i + radius + 1);
    const double median =
        Median({probe_ns.begin() + lo, probe_ns.begin() + hi});
    factors.push_back(median > 0 ? reference_ns / median : 1.0);
  }
  return factors;
}

}  // namespace perfbench
