// Little-endian byte appenders shared by the binary formats (the RNHM grid
// blob in heatmap/serialization and the wire frames in query/wire). Each
// writes an explicit byte order, independent of the host's.
// tools/check_wire_layout.py sizes encoder bodies by these names, so keep
// them.
#ifndef RNNHM_COMMON_LITTLE_ENDIAN_H_
#define RNNHM_COMMON_LITTLE_ENDIAN_H_

#include <cstdint>
#include <cstring>
#include <vector>

namespace rnnhm {

inline void PutMagic(std::vector<uint8_t>* out, const char magic[4]) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(magic[i]));
  }
}

inline void PutU16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

inline void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

inline void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

inline void PutI32(std::vector<uint8_t>* out, int32_t v) {
  PutU32(out, static_cast<uint32_t>(v));
}

inline void PutF64(std::vector<uint8_t>* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

}  // namespace rnnhm

#endif  // RNNHM_COMMON_LITTLE_ENDIAN_H_
