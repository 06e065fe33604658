#ifndef TREESERVER_RPC_CRC32C_INTERNAL_H_
#define TREESERVER_RPC_CRC32C_INTERNAL_H_

// The two CRC-32C implementations behind Crc32cExtend, exposed so tests
// can cross-check them in every build. Both have Crc32cExtend's
// contract; production code calls Crc32c / Crc32cExtend only.

#include <cstddef>
#include <cstdint>

namespace treeserver {
namespace crc32c_internal {

/// Slicing-by-8 over eight 256-entry tables; any architecture.
uint32_t ExtendPortable(uint32_t crc, const uint8_t* data, size_t len);

#if defined(__x86_64__)
/// True when the CPU has SSE4.2 (the `crc32` instruction).
bool HardwareAvailable();

/// The SSE4.2 `crc32` instruction, eight bytes at a time. Call only
/// when HardwareAvailable().
uint32_t ExtendHardware(uint32_t crc, const uint8_t* data, size_t len);
#endif

}  // namespace crc32c_internal
}  // namespace treeserver

#endif  // TREESERVER_RPC_CRC32C_INTERNAL_H_
