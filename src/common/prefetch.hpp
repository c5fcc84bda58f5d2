// Cache-prefetch hint for batched probes.
//
// A batched insert (the KV store's bulk populate) issues the prefetches of
// its keys' home index entries a few steps ahead, so their cache misses
// overlap instead of stalling each insert in turn.
// Purely advisory: a no-op compiles away on toolchains without the
// builtin, and correctness never depends on it.
#pragma once

namespace netclone {

inline void prefetch_read(const void* address) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(address, /*rw=*/0, /*locality=*/3);
#else
  (void)address;
#endif
}

}  // namespace netclone
