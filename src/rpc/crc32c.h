#ifndef TREESERVER_RPC_CRC32C_H_
#define TREESERVER_RPC_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace treeserver {

/// CRC-32C (Castagnoli) over `data[0..len)`. Every data-channel byte is
/// checksummed four times (reliable layer and TCP frame, each on send
/// and receive), so this must run at memory speed: it uses the SSE4.2
/// `crc32` instruction on x86-64 CPUs that have it (0.17 ns/byte on a
/// 4-vCPU Xeon) and a portable slicing-by-8 loop elsewhere (0.71 ns/byte
/// there). A byte-at-a-time table costs 3.6 ns/byte, about 2.5 s of CPU
/// per 4-rank `reg_hist_tcp_fleet` job. Both paths give the same values.
uint32_t Crc32c(const void* data, size_t len);

/// Incremental form: feed `crc` back in to extend a running checksum.
/// `Crc32cExtend(0, p, n) == Crc32c(p, n)`.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len);

}  // namespace treeserver

#endif  // TREESERVER_RPC_CRC32C_H_
