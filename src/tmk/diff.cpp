#include "tmk/diff.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.h"

namespace now::tmk {

namespace {

// Index of the lowest-order set *byte* in a nonzero XOR word, i.e. the byte
// offset of the first mismatch on a little-endian host.
inline std::size_t first_diff_byte(std::uint64_t x) {
#if defined(__GNUC__) || defined(__clang__)
  return static_cast<std::size_t>(__builtin_ctzll(x)) >> 3;
#else
  std::size_t i = 0;
  while ((x & 0xff) == 0) {
    x >>= 8;
    ++i;
  }
  return i;
#endif
}

constexpr bool kLittleEndian =
#if defined(__BYTE_ORDER__) && (__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__)
    true;
#else
    false;
#endif

// First index in [from, to) where a[i] != b[i], or `to` if none.  Strides
// clean stretches with memcmp (which the libc vectorizes), then pins the
// mismatching byte inside an 8-byte word with XOR + ctz.
std::size_t find_mismatch(const std::uint8_t* a, const std::uint8_t* b,
                          std::size_t from, std::size_t to) {
  std::size_t i = from;
  constexpr std::size_t kStride = 64;
  while (i + kStride <= to && std::memcmp(a + i, b + i, kStride) == 0) i += kStride;
  while (i + 8 <= to) {
    std::uint64_t wa, wb;
    std::memcpy(&wa, a + i, 8);
    std::memcpy(&wb, b + i, 8);
    if (wa != wb) {
      if (kLittleEndian) return i + first_diff_byte(wa ^ wb);
      break;  // big-endian: settle the word byte-by-byte below
    }
    i += 8;
  }
  while (i < to && a[i] == b[i]) ++i;
  return i;
}

inline void append_run(DiffBytes& out, const std::uint8_t* current,
                       std::size_t start, std::size_t end) {
  const std::size_t len = end - start;
  NOW_CHECK_LE(start, 0xffffu);  // u16 wire offset: pages beyond 64 KiB would
  NOW_CHECK_LE(len, 0xffffu);    // silently truncate, not wrap cleanly
  const std::uint16_t off16 = static_cast<std::uint16_t>(start);
  const std::uint16_t len16 = static_cast<std::uint16_t>(len);
  out.insert(out.end(), reinterpret_cast<const std::uint8_t*>(&off16),
             reinterpret_cast<const std::uint8_t*>(&off16) + 2);
  out.insert(out.end(), reinterpret_cast<const std::uint8_t*>(&len16),
             reinterpret_cast<const std::uint8_t*>(&len16) + 2);
  out.insert(out.end(), current + start, current + end);
}

// Calls fn(offset, bytes, length) for each run of a diff, in wire order,
// after checking the run lies inside the diff and the page.
template <typename Fn>
void for_each_run(const std::uint8_t* diff, std::size_t diff_size,
                  std::size_t page_size, Fn&& fn) {
  std::size_t pos = 0;
  while (pos < diff_size) {
    NOW_CHECK_LE(pos + 4, diff_size) << "corrupt diff header";
    std::uint16_t off, len;
    std::memcpy(&off, diff + pos, 2);
    std::memcpy(&len, diff + pos + 2, 2);
    pos += 4;
    NOW_CHECK_LE(pos + len, diff_size) << "corrupt diff body";
    NOW_CHECK_LE(static_cast<std::size_t>(off) + len, page_size) << "diff outside page";
    fn(static_cast<std::size_t>(off), diff + pos, static_cast<std::size_t>(len));
    pos += len;
  }
}

}  // namespace

std::size_t diff_append(DiffBytes& out, const std::uint8_t* twin,
                        const std::uint8_t* current, std::size_t page_size,
                        std::size_t merge_gap) {
  if (!kLittleEndian) {
    // The word state machine below indexes bytes by shift amount; keep the
    // rare big-endian build on the reference path instead of maintaining a
    // mirrored variant.
    DiffBytes ref = diff_create_scalar(twin, current, page_size, merge_gap);
    out.insert(out.end(), ref.begin(), ref.end());
    return ref.size();
  }
  // A gap of 0 cannot split contiguous differing bytes, so it behaves as 1.
  if (merge_gap == 0) merge_gap = 1;

  const std::size_t before = out.size();
  std::size_t i = find_mismatch(twin, current, 0, page_size);
  while (i < page_size) {
    // A run starts at the mismatch; it extends across equal gaps shorter
    // than `merge_gap` and ends at the last differing byte before a gap at
    // least that long (or before the end of the page).  Words are XOR-ed and
    // only mixed words are settled per byte, so dense dirty stretches cost
    // one load pair per 8 bytes instead of one memcmp re-entry per byte.
    const std::size_t start = i;
    std::size_t last_diff = i;
    std::size_t streak = 0;  // equal bytes seen since the last differing one
    std::size_t j = i + 1;
    while (j < page_size && streak < merge_gap) {
      if (j + 8 <= page_size) {
        std::uint64_t wa, wb;
        std::memcpy(&wa, twin + j, 8);
        std::memcpy(&wb, current + j, 8);
        const std::uint64_t x = wa ^ wb;
        if (x == 0) {
          streak += 8;
          j += 8;
          continue;
        }
        bool gap_closed_run = false;
        for (std::size_t k = 0; k < 8; ++k) {
          if ((x >> (8 * k)) & 0xff) {
            if (streak >= merge_gap) {
              gap_closed_run = true;
              break;
            }
            last_diff = j + k;
            streak = 0;
          } else {
            ++streak;
          }
        }
        if (gap_closed_run) break;
        j += 8;
      } else {
        if (twin[j] != current[j]) {
          if (streak >= merge_gap) break;
          last_diff = j;
          streak = 0;
        } else {
          ++streak;
        }
        ++j;
      }
    }
    const std::size_t end = last_diff + 1;  // one past the last differing byte
    append_run(out, current, start, end);
    i = find_mismatch(twin, current, end, page_size);
  }
  return out.size() - before;
}

DiffBytes diff_create(const std::uint8_t* twin, const std::uint8_t* current,
                      std::size_t page_size, std::size_t merge_gap) {
  DiffBytes out;
  diff_append(out, twin, current, page_size, merge_gap);
  return out;
}

DiffBytes diff_create_scalar(const std::uint8_t* twin, const std::uint8_t* current,
                             std::size_t page_size, std::size_t merge_gap) {
  DiffBytes out;
  std::size_t i = 0;
  while (i < page_size) {
    if (twin[i] == current[i]) {
      ++i;
      continue;
    }
    // Start of a run of differing bytes; extend across small equal gaps.
    std::size_t start = i;
    std::size_t end = i + 1;  // one past the last differing byte
    std::size_t j = i + 1;
    std::size_t equal_streak = 0;
    while (j < page_size) {
      if (twin[j] != current[j]) {
        equal_streak = 0;
        end = j + 1;
      } else if (++equal_streak >= merge_gap) {
        break;
      }
      ++j;
    }
    append_run(out, current, start, end);
    i = end;
  }
  return out;
}

std::size_t diff_apply(std::uint8_t* page, std::size_t page_size,
                       const std::uint8_t* diff, std::size_t diff_size) {
  std::size_t patched = 0;
  for_each_run(diff, diff_size, page_size,
               [&](std::size_t off, const std::uint8_t* bytes, std::size_t len) {
                 std::memcpy(page + off, bytes, len);
                 patched += len;
               });
  return patched;
}

DiffBytes diff_merge(const std::vector<const DiffBytes*>& stack,
                     std::size_t page_size) {
  if (stack.size() == 1) return *stack.front();
  // Replay the stack onto a scratch image, remembering which ranges it
  // patched; the union of those ranges, read back from the image, is the
  // merged diff.  Ranges that overlap or touch share one run.  Only
  // patched bytes of the image are read, so it is reused uncleared.
  thread_local std::vector<std::uint8_t> image;
  if (image.size() < page_size) image.resize(page_size);
  std::vector<std::pair<std::size_t, std::size_t>> ranges;  // [start, end)
  std::size_t total = 0;
  for (const DiffBytes* d : stack) {
    total += d->size();
    for_each_run(d->data(), d->size(), page_size,
                 [&](std::size_t off, const std::uint8_t* bytes, std::size_t len) {
                   std::memcpy(image.data() + off, bytes, len);
                   if (len > 0) ranges.emplace_back(off, off + len);
                 });
  }
  std::sort(ranges.begin(), ranges.end());
  DiffBytes out;
  out.reserve(total);
  for (std::size_t i = 0; i < ranges.size();) {
    const std::size_t start = ranges[i].first;
    std::size_t end = ranges[i].second;
    for (++i; i < ranges.size() && ranges[i].first <= end; ++i)
      end = std::max(end, ranges[i].second);
    append_run(out, image.data(), start, end);
  }
  return out;
}

std::size_t diff_patched_bytes(const std::uint8_t* diff, std::size_t diff_size) {
  std::size_t pos = 0;
  std::size_t patched = 0;
  while (pos + 4 <= diff_size) {
    std::uint16_t len;
    std::memcpy(&len, diff + pos + 2, 2);
    pos += 4 + static_cast<std::size_t>(len);
    patched += len;
  }
  return patched;
}

}  // namespace now::tmk
