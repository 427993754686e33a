// Run-length-encoded page diffs (the multiple-writer protocol's unit of
// update transfer).
//
// A diff records the byte ranges of a page that differ from its twin.  Two
// diffs made by concurrent writers of the same page touch disjoint ranges in
// a data-race-free program, which is what lets TreadMarks merge them without
// a coherence owner.
//
// The twin/page scan is the hottest host-side loop in the DSM engine (every
// release of a dirty page runs it), so `diff_create` uses a word-at-a-time
// scanner: 64-byte memcmp strides over clean prefixes, 8-byte XOR + ctz to
// pin the mismatching byte.  `diff_create_scalar` keeps the original
// byte-at-a-time implementation as a reference oracle; the two are
// byte-identical for every input (tested exhaustively in diff_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace now::tmk {

// Wire format: repeated { u16 offset, u16 length, length bytes }.
using DiffBytes = std::vector<std::uint8_t>;

// Encodes the ranges where `current` differs from `twin`.
// Runs separated by fewer than `merge_gap` equal bytes are coalesced: the
// 4-byte run header makes tiny gaps cheaper to ship than to split.
DiffBytes diff_create(const std::uint8_t* twin, const std::uint8_t* current,
                      std::size_t page_size, std::size_t merge_gap = 8);

// Byte-at-a-time reference implementation with identical output; the
// equivalence oracle for tests and the baseline for the diff microbenches.
DiffBytes diff_create_scalar(const std::uint8_t* twin, const std::uint8_t* current,
                             std::size_t page_size, std::size_t merge_gap = 8);

// Appends the encoded diff to `out` (no allocation when `out` has capacity);
// returns the number of bytes appended.  Same encoding as `diff_create`.
std::size_t diff_append(DiffBytes& out, const std::uint8_t* twin,
                        const std::uint8_t* current, std::size_t page_size,
                        std::size_t merge_gap = 8);

// Folds a stack of diffs of one page, oldest first, into one: every byte
// any of them patches, at the value the newest one gives it, and nothing
// else.  Applying the result equals applying the stack in order, and it is
// never larger than the stack's total size (overlapping runs share one
// header and one copy of their bytes).  A one-diff stack comes back
// unchanged.  Only sound for consecutive diffs in apply order: folding
// across another writer's diff would move the older bytes past it.
DiffBytes diff_merge(const std::vector<const DiffBytes*>& stack,
                     std::size_t page_size);

// Applies a diff in place.  Returns the number of bytes patched.  The
// pointer/length overload patches straight out of a message payload without
// copying the chunk into its own vector first.
std::size_t diff_apply(std::uint8_t* page, std::size_t page_size,
                       const std::uint8_t* diff, std::size_t diff_size);
inline std::size_t diff_apply(std::uint8_t* page, std::size_t page_size,
                              const DiffBytes& diff) {
  return diff_apply(page, page_size, diff.data(), diff.size());
}

// Number of payload bytes a diff patches (sum of run lengths).
std::size_t diff_patched_bytes(const std::uint8_t* diff, std::size_t diff_size);
inline std::size_t diff_patched_bytes(const DiffBytes& diff) {
  return diff_patched_bytes(diff.data(), diff.size());
}

}  // namespace now::tmk
