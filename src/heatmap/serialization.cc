#include "heatmap/serialization.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/little_endian.h"
#include "heatmap/raster_kernels.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RNNHM_X86_SIMD 1
#else
#define RNNHM_X86_SIMD 0
#endif

namespace rnnhm {

namespace {
constexpr char kMagic[4] = {'R', 'N', 'H', 'M'};
constexpr uint32_t kVersion = 2;
// A v1 header is the v2 header without the trailing lane word; its body
// is always the f64 lane.
constexpr uint32_t kVersionF64Only = 1;
constexpr size_t kLaneOffset = 48;
static_assert(kLaneOffset + sizeof(uint32_t) == kHeatmapHeaderBytes);

// Lane codes are the bytes per value.
constexpr uint32_t kLaneU8 = 1;
constexpr uint32_t kLaneU16 = 2;
constexpr uint32_t kLaneF64 = 8;

// Bodies are copied as host values (whole f64 arrays, u16 lanes), so the
// byte order the header writes explicitly must be the host's.
static_assert(std::endian::native == std::endian::little,
              "RNHM bodies are stored as little-endian host values");

// Values per narrowing block: the loop inside a block has no branch, so
// it vectorizes; the miss test runs once per block.
constexpr size_t kBlock = 256;

std::nullopt_t Fail(std::string* error, const char* message) {
  if (error != nullptr) *error = message;
  return std::nullopt;
}

// Nonzero unless `v` is, bit for bit, the double of an integer T holds;
// `*narrowed` receives that integer. Adding 2^52 moves an integer in
// [0, 2^52) into the low mantissa bits exactly and rounds any fraction
// away: the shifted value's bits are then 2^52's bits plus the integer,
// whose bits past T's width must be zero, and subtracting 2^52 again
// gives back `v` itself only for an integer (-0.0 comes back as +0.0).
// Negatives, NaN and infinities fail the width test. Branch-, compare-
// and conversion-free, so the block loop vectorizes on baseline SSE2.
template <typename T>
uint64_t Miss(double v, T* narrowed) {
  constexpr double kShift = 4503599627370496.0;  // 2^52
  constexpr uint64_t kShiftBits = std::bit_cast<uint64_t>(kShift);
  const double shifted = v + kShift;
  const uint64_t shifted_bits = std::bit_cast<uint64_t>(shifted);
  *narrowed = static_cast<T>(shifted_bits);
  return (std::bit_cast<uint64_t>(shifted - kShift) ^
          std::bit_cast<uint64_t>(v)) |
         ((shifted_bits ^ kShiftBits) >> (8 * sizeof(T)));
}

// Stores values[0, n) at `dst` as T while they are exact in T. Returns
// how many were stored exactly: n, or the start of the first block that
// holds a miss (stores from there on are for the caller to overwrite).
template <typename T>
struct NarrowExact {
  [[gnu::always_inline]] static size_t Run(const double* values, size_t n,
                                           uint8_t* dst) {
    for (size_t begin = 0; begin < n; begin += kBlock) {
      const size_t end = std::min(n, begin + kBlock);
      uint64_t miss = 0;
      for (size_t i = begin; i < end; ++i) {
        T narrowed;
        miss |= Miss(values[i], &narrowed);
        std::memcpy(dst + i * sizeof(T), &narrowed, sizeof(T));
      }
      if (miss != 0) return begin;
    }
    return n;
  }
};

// Widens n values of T at `body` into `values`. Unlike narrowing, this
// gained nothing from wider vectors (a 192^2 u8 decode took 16-20 us on
// every backend), so it has one baseline copy.
template <typename T>
void Widen(const uint8_t* body, size_t n, double* values) {
  for (size_t i = 0; i < n; ++i) {
    T v;
    std::memcpy(&v, body + i * sizeof(T), sizeof(T));
    values[i] = v;
  }
}

// One copy of a kernel's loop per vector ISA, each vectorized by the
// compiler for its target: narrowing 64-bit lanes to bytes is what wide
// vectors buy (a 192^2 u8 body encodes in about 9 us with AVX-512
// against 20-24 us with SSE2 on a 4-vCPU Xeon guest). Kernels are integer
// logic, identical on every path.
#if RNNHM_X86_SIMD
template <typename Kernel, typename... Args>
__attribute__((target("avx2"))) size_t RunAvx2(Args... args) {
  return Kernel::Run(args...);
}

// AVX512BW lets the compiler narrow whole 512-bit vectors to bytes.
template <typename Kernel, typename... Args>
__attribute__((target("avx512f,avx512bw"))) size_t RunAvx512(Args... args) {
  return Kernel::Run(args...);
}

bool CpuHasAvx512Bw() {
  static const bool has = __builtin_cpu_supports("avx512bw");
  return has;
}
#endif

// Dispatches on the process's SIMD backend (heatmap/raster_kernels.h), so
// RNNHM_DISABLE_SIMD runs the baseline loops here too.
template <typename Kernel, typename... Args>
size_t Run(Args... args) {
#if RNNHM_X86_SIMD
  switch (ActiveRasterBackend()) {
    case RasterBackend::kAvx512:
      if (CpuHasAvx512Bw()) return RunAvx512<Kernel>(args...);
      [[fallthrough]];
    case RasterBackend::kAvx2:
      return RunAvx2<Kernel>(args...);
    case RasterBackend::kSse2:
    case RasterBackend::kScalar:
      break;
  }
#endif
  return Kernel::Run(args...);
}

// The lane EncodeHeatmap picks, without writing anything.
uint32_t LaneOf(const HeatmapGrid& grid) {
  uint32_t lane = kLaneU8;
  for (const double v : grid.values()) {
    uint8_t u8;
    uint16_t u16;
    if (lane == kLaneU8 && Miss(v, &u8) != 0) lane = kLaneU16;
    if (lane == kLaneU16 && Miss(v, &u16) != 0) return kLaneF64;
  }
  return lane;
}

// The fixed header (query/wire_layout.h, kGridLayout).
void EncodeHeatmapHeader(const HeatmapGrid& grid, uint32_t lane,
                         std::vector<uint8_t>* out) {
  PutMagic(out, kMagic);
  PutU32(out, kVersion);
  PutI32(out, grid.width());
  PutI32(out, grid.height());
  PutF64(out, grid.domain().lo.x);
  PutF64(out, grid.domain().lo.y);
  PutF64(out, grid.domain().hi.x);
  PutF64(out, grid.domain().hi.y);
  PutU32(out, lane);
}

template <typename T>
T Load(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

void EncodeHeatmap(const HeatmapGrid& grid, std::vector<uint8_t>* out) {
  const size_t start = out->size();
  EncodeHeatmapHeader(grid, kLaneU8, out);
  const size_t body = out->size();
  const double* values = grid.data();
  const size_t n = grid.values().size();
  // One pass: narrow to u8 until the first block with a miss, widen what
  // was written to u16 and go on from that block; a u16 miss copies the
  // doubles whole.
  uint32_t lane = kLaneU8;
  out->resize(body + n);
  size_t done = Run<NarrowExact<uint8_t>>(values, n, out->data() + body);
  if (done < n) {
    lane = kLaneU16;
    out->resize(body + n * sizeof(uint16_t));
    uint8_t* dst = out->data() + body;
    for (size_t i = done; i-- > 0;) {  // backwards: in place
      const uint16_t wide = dst[i];
      std::memcpy(dst + i * sizeof(uint16_t), &wide, sizeof(wide));
    }
    done += Run<NarrowExact<uint16_t>>(values + done, n - done,
                                       dst + done * sizeof(uint16_t));
  }
  if (done < n) {
    lane = kLaneF64;
    out->resize(body + n * sizeof(double));
    std::memcpy(out->data() + body, values, n * sizeof(double));
  }
  std::memcpy(out->data() + start + kLaneOffset, &lane, sizeof(lane));
}

std::optional<HeatmapGrid> DecodeHeatmap(const uint8_t* data, size_t size,
                                         size_t* consumed,
                                         std::string* error) {
  if (size < kLaneOffset) {
    return Fail(error, "heatmap blob shorter than its header");
  }
  if (std::memcmp(data, kMagic, 4) != 0) {
    return Fail(error, "bad heatmap magic");
  }
  const uint32_t version = Load<uint32_t>(data + 4);
  size_t header = kLaneOffset;
  uint32_t lane = kLaneF64;
  if (version == kVersion) {
    if (size < kHeatmapHeaderBytes) {
      return Fail(error, "heatmap blob shorter than its header");
    }
    header = kHeatmapHeaderBytes;
    lane = Load<uint32_t>(data + kLaneOffset);
    if (lane != kLaneU8 && lane != kLaneU16 && lane != kLaneF64) {
      return Fail(error, "unknown heatmap lane");
    }
  } else if (version != kVersionF64Only) {
    return Fail(error, "unsupported heatmap version");
  }
  const int32_t width = Load<int32_t>(data + 8);
  const int32_t height = Load<int32_t>(data + 12);
  const Rect domain{{Load<double>(data + 16), Load<double>(data + 24)},
                    {Load<double>(data + 32), Load<double>(data + 40)}};
  if (width <= 0 || height <= 0) {
    return Fail(error, "non-positive heatmap dimensions");
  }
  if (!(domain.lo.x < domain.hi.x) || !(domain.lo.y < domain.hi.y)) {
    return Fail(error, "degenerate heatmap domain");
  }
  const uint64_t count =
      static_cast<uint64_t>(width) * static_cast<uint64_t>(height);
  if ((size - header) / lane < count) {
    return Fail(error, "truncated heatmap payload");
  }
  HeatmapGrid grid(width, height, domain);
  const uint8_t* body = data + header;
  double* values = grid.data();
  switch (lane) {
    case kLaneU8:
      Widen<uint8_t>(body, static_cast<size_t>(count), values);
      break;
    case kLaneU16:
      Widen<uint16_t>(body, static_cast<size_t>(count), values);
      break;
    default:
      std::memcpy(values, body, count * sizeof(double));
      break;
  }
  if (consumed != nullptr) *consumed = header + count * lane;
  return grid;
}

bool SaveHeatmap(const HeatmapGrid& grid, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::vector<uint8_t> bytes;
  EncodeHeatmap(grid, &bytes);
  const bool ok =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return (std::fclose(f) == 0) && ok;
}

size_t SerializedSizeBytes(const HeatmapGrid& grid) {
  return kHeatmapHeaderBytes + grid.values().size() * LaneOf(grid);
}

std::optional<HeatmapGrid> LoadHeatmap(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::vector<uint8_t> bytes;
  uint8_t chunk[1 << 16];
  size_t got;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) return std::nullopt;
  return DecodeHeatmap(bytes.data(), bytes.size(), nullptr);
}

}  // namespace rnnhm
