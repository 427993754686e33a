#include "tmk/diff.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.h"
#include "tmk/config.h"

namespace now::tmk {
namespace {

using Page = std::vector<std::uint8_t>;

Page zero_page() { return Page(kPageSize, 0); }

TEST(Diff, IdenticalPagesProduceEmptyDiff) {
  Page a = zero_page(), b = zero_page();
  EXPECT_TRUE(diff_create(a.data(), b.data(), kPageSize).empty());
}

TEST(Diff, SingleByteChange) {
  Page twin = zero_page(), cur = zero_page();
  cur[100] = 0xab;
  auto d = diff_create(twin.data(), cur.data(), kPageSize);
  EXPECT_EQ(d.size(), 4u + 1u);  // header + one byte
  Page target = zero_page();
  EXPECT_EQ(diff_apply(target.data(), kPageSize, d), 1u);
  EXPECT_EQ(target[100], 0xab);
}

TEST(Diff, NearbyRunsCoalesce) {
  Page twin = zero_page(), cur = zero_page();
  cur[10] = 1;
  cur[14] = 1;  // gap of 3 < merge_gap: one run expected
  auto d = diff_create(twin.data(), cur.data(), kPageSize);
  EXPECT_EQ(d.size(), 4u + 5u);
}

TEST(Diff, DistantRunsStaySeparate) {
  Page twin = zero_page(), cur = zero_page();
  cur[10] = 1;
  cur[200] = 1;
  auto d = diff_create(twin.data(), cur.data(), kPageSize);
  EXPECT_EQ(d.size(), 2 * (4u + 1u));
}

TEST(Diff, LastByteOfPage) {
  Page twin = zero_page(), cur = zero_page();
  cur[kPageSize - 1] = 7;
  auto d = diff_create(twin.data(), cur.data(), kPageSize);
  Page target = zero_page();
  diff_apply(target.data(), kPageSize, d);
  EXPECT_EQ(target[kPageSize - 1], 7);
}

TEST(Diff, WholePageChanged) {
  Page twin = zero_page(), cur(kPageSize, 0xff);
  auto d = diff_create(twin.data(), cur.data(), kPageSize);
  EXPECT_EQ(diff_patched_bytes(d), kPageSize);
  Page target = zero_page();
  diff_apply(target.data(), kPageSize, d);
  EXPECT_EQ(target, cur);
}

TEST(Diff, ConcurrentDisjointDiffsMerge) {
  // The multiple-writer protocol: two writers diff against the same twin and
  // both diffs apply to any copy, in either order.
  Page twin = zero_page();
  Page w1 = twin, w2 = twin;
  for (int i = 0; i < 128; ++i) w1[i] = 0x11;
  for (int i = 2048; i < 2048 + 128; ++i) w2[i] = 0x22;
  auto d1 = diff_create(twin.data(), w1.data(), kPageSize);
  auto d2 = diff_create(twin.data(), w2.data(), kPageSize);

  Page merged_a = twin, merged_b = twin;
  diff_apply(merged_a.data(), kPageSize, d1);
  diff_apply(merged_a.data(), kPageSize, d2);
  diff_apply(merged_b.data(), kPageSize, d2);
  diff_apply(merged_b.data(), kPageSize, d1);
  EXPECT_EQ(merged_a, merged_b);
  EXPECT_EQ(merged_a[0], 0x11);
  EXPECT_EQ(merged_a[2048], 0x22);
}

// Property sweep: random write patterns round-trip exactly.
class DiffProperty : public ::testing::TestWithParam<int> {};

TEST_P(DiffProperty, RandomPatternRoundTrips) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  Page twin(kPageSize);
  for (auto& b : twin) b = static_cast<std::uint8_t>(rng.next_u64());
  Page cur = twin;
  const int writes = 1 + static_cast<int>(rng.next_below(200));
  for (int i = 0; i < writes; ++i) {
    const std::size_t off = rng.next_below(kPageSize);
    const std::size_t len = 1 + rng.next_below(std::min<std::size_t>(64, kPageSize - off));
    for (std::size_t k = 0; k < len; ++k)
      cur[off + k] = static_cast<std::uint8_t>(rng.next_u64());
  }
  auto d = diff_create(twin.data(), cur.data(), kPageSize);
  Page target = twin;
  diff_apply(target.data(), kPageSize, d);
  EXPECT_EQ(target, cur) << "seed " << GetParam();
  // A diff never patches less than the true difference.
  std::size_t true_diff = 0;
  for (std::size_t i = 0; i < kPageSize; ++i)
    if (twin[i] != cur[i]) ++true_diff;
  EXPECT_GE(diff_patched_bytes(d), true_diff);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffProperty, ::testing::Range(0, 24));

// --------------------------------------------------------------------------
// Word-at-a-time scanner vs the byte-at-a-time reference oracle.
// --------------------------------------------------------------------------

Page random_page(Rng& rng) {
  Page p(kPageSize);
  for (auto& b : p) b = static_cast<std::uint8_t>(rng.next_u64());
  return p;
}

// Random write patterns at every merge_gap in 1..64: the optimized scanner
// must be byte-identical to the scalar reference, and the diff must
// round-trip through diff_apply.
class DiffEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(DiffEquivalence, MatchesScalarReferenceAcrossMergeGaps) {
  Rng rng(0x9e3779b9u * static_cast<std::uint64_t>(GetParam() + 1));
  Page twin = random_page(rng);
  Page cur = twin;
  const int writes = 1 + static_cast<int>(rng.next_below(300));
  for (int i = 0; i < writes; ++i) {
    const std::size_t off = rng.next_below(kPageSize);
    const std::size_t len = 1 + rng.next_below(std::min<std::size_t>(128, kPageSize - off));
    for (std::size_t k = 0; k < len; ++k)
      cur[off + k] = static_cast<std::uint8_t>(rng.next_u64());
  }
  for (std::size_t gap = 1; gap <= 64; ++gap) {
    const auto fast = diff_create(twin.data(), cur.data(), kPageSize, gap);
    const auto scalar = diff_create_scalar(twin.data(), cur.data(), kPageSize, gap);
    ASSERT_EQ(fast, scalar) << "seed " << GetParam() << " merge_gap " << gap;
    Page target = twin;
    diff_apply(target.data(), kPageSize, fast);
    ASSERT_EQ(target, cur) << "seed " << GetParam() << " merge_gap " << gap;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffEquivalence, ::testing::Range(0, 16));

TEST(DiffEquivalence, CleanPageIsEmptyOnBothPaths) {
  Rng rng(77);
  Page twin = random_page(rng);
  Page cur = twin;
  EXPECT_TRUE(diff_create(twin.data(), cur.data(), kPageSize).empty());
  EXPECT_TRUE(diff_create_scalar(twin.data(), cur.data(), kPageSize).empty());
}

TEST(DiffEquivalence, FullyDirtyPageIsOneRun) {
  Page twin(kPageSize, 0x00), cur(kPageSize, 0xff);
  const auto d = diff_create(twin.data(), cur.data(), kPageSize);
  ASSERT_EQ(d.size(), 4u + kPageSize);  // one header + the whole page
  std::uint16_t off, len;
  std::memcpy(&off, d.data(), 2);
  std::memcpy(&len, d.data() + 2, 2);
  EXPECT_EQ(off, 0u);
  EXPECT_EQ(len, kPageSize);
  EXPECT_EQ(d, diff_create_scalar(twin.data(), cur.data(), kPageSize));
}

TEST(DiffEquivalence, RunEndingAtLastByte) {
  for (std::size_t run_start : {kPageSize - 1, kPageSize - 7, kPageSize - 64}) {
    Page twin(kPageSize, 0), cur(kPageSize, 0);
    for (std::size_t i = run_start; i < kPageSize; ++i) cur[i] = 0xee;
    const auto fast = diff_create(twin.data(), cur.data(), kPageSize);
    EXPECT_EQ(fast, diff_create_scalar(twin.data(), cur.data(), kPageSize));
    Page target = twin;
    diff_apply(target.data(), kPageSize, fast);
    EXPECT_EQ(target, cur);
  }
}

TEST(DiffEquivalence, AlternatingBytePattern) {
  // Worst case for the word scanner: every other byte differs, so no word or
  // memcmp stride is ever clean.
  Page twin(kPageSize, 0), cur(kPageSize, 0);
  for (std::size_t i = 0; i < kPageSize; i += 2) cur[i] = 1;
  for (std::size_t gap : {1u, 2u, 8u}) {
    ASSERT_EQ(diff_create(twin.data(), cur.data(), kPageSize, gap),
              diff_create_scalar(twin.data(), cur.data(), kPageSize, gap));
  }
}

TEST(DiffAppend, AppendsAfterExistingContentAndReportsSize) {
  Page twin(kPageSize, 0), cur(kPageSize, 0);
  cur[9] = 3;
  DiffBytes buf = {0xaa, 0xbb};
  const std::size_t added = diff_append(buf, twin.data(), cur.data(), kPageSize);
  EXPECT_EQ(added, 4u + 1u);
  EXPECT_EQ(buf.size(), 2u + added);
  EXPECT_EQ(buf[0], 0xaa);
  EXPECT_EQ(buf[1], 0xbb);
  const DiffBytes tail(buf.begin() + 2, buf.end());
  EXPECT_EQ(tail, diff_create(twin.data(), cur.data(), kPageSize));
}

TEST(DiffAppend, ReusedBufferNeedsNoReallocation) {
  Page twin(kPageSize, 0), cur(kPageSize, 0xff);
  DiffBytes buf;
  diff_append(buf, twin.data(), cur.data(), kPageSize);
  const auto cap = buf.capacity();
  const auto* data = buf.data();
  buf.clear();
  diff_append(buf, twin.data(), cur.data(), kPageSize);
  EXPECT_EQ(buf.capacity(), cap);
  EXPECT_EQ(buf.data(), data);
}

// --------------------------------------------------------------------------
// diff_merge: folding one writer's consecutive diffs of a page.
// --------------------------------------------------------------------------

std::vector<const DiffBytes*> stack_of(const std::vector<DiffBytes>& diffs) {
  std::vector<const DiffBytes*> stack;
  for (const DiffBytes& d : diffs) stack.push_back(&d);
  return stack;
}

// Random stacks: each diff is taken against the page as the previous ones
// left it (consecutive intervals of one writer), with dense and sparse
// writes that often overlap earlier ones, some intervals writing nothing,
// and a random merge gap.  Applied to an unrelated random page, the merged
// diff must leave exactly the bytes the stack leaves, so it patches no
// byte the stack did not.
class DiffMergeProperty : public ::testing::TestWithParam<int> {};

TEST_P(DiffMergeProperty, MergedDiffEqualsTheStackAppliedInOrder) {
  Rng rng(0x51ed270bu * static_cast<std::uint64_t>(GetParam() + 1));
  Page cur = random_page(rng);
  std::vector<DiffBytes> diffs;
  const std::size_t depth = 1 + rng.next_below(8);
  std::size_t total = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    const Page twin = cur;
    const std::size_t writes = rng.next_below(4) == 0 ? 0 : 1 + rng.next_below(40);
    const std::size_t max_len = rng.next_below(2) == 0 ? 16 : 1024;
    for (std::size_t w = 0; w < writes; ++w) {
      const std::size_t off = rng.next_below(kPageSize);
      const std::size_t len =
          1 + rng.next_below(std::min<std::size_t>(max_len, kPageSize - off));
      for (std::size_t k = 0; k < len; ++k)
        cur[off + k] = static_cast<std::uint8_t>(rng.next_u64());
    }
    const std::size_t gap = std::size_t{1} << rng.next_below(6);  // 1..32
    diffs.push_back(diff_create(twin.data(), cur.data(), kPageSize, gap));
    total += diffs.back().size();
  }
  const DiffBytes merged = diff_merge(stack_of(diffs), kPageSize);

  const Page target = random_page(rng);
  Page via_stack = target, via_merge = target;
  for (const DiffBytes& d : diffs) diff_apply(via_stack.data(), kPageSize, d);
  diff_apply(via_merge.data(), kPageSize, merged);
  EXPECT_EQ(via_merge, via_stack) << "seed " << GetParam();
  EXPECT_LE(merged.size(), total) << "seed " << GetParam();
  if (depth == 1) {
    EXPECT_EQ(merged, diffs.front());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffMergeProperty, ::testing::Range(0, 48));

TEST(DiffMerge, OneDiffStackAndEmptyDiffComeBackUnchanged) {
  Rng rng(5);
  const Page twin = random_page(rng);
  Page cur = twin;
  cur[10] = static_cast<std::uint8_t>(twin[10] + 1);
  cur[11] = static_cast<std::uint8_t>(twin[11] + 1);
  cur[500] = static_cast<std::uint8_t>(twin[500] + 1);
  const DiffBytes d = diff_create(twin.data(), cur.data(), kPageSize);
  EXPECT_EQ(diff_merge({&d}, kPageSize), d);
  const DiffBytes empty;
  EXPECT_TRUE(diff_merge({&empty}, kPageSize).empty());
  EXPECT_TRUE(diff_merge({&empty, &empty}, kPageSize).empty());
  EXPECT_EQ(diff_merge({&empty, &d, &empty}, kPageSize), d);
}

TEST(DiffMerge, OverlappingRunsShareOneHeader) {
  Page twin = zero_page(), a = zero_page();
  for (int i = 0; i < 64; ++i) a[i] = 1;
  Page b = a;
  for (int i = 32; i < 96; ++i) b[i] = 2;
  const DiffBytes d1 = diff_create(twin.data(), a.data(), kPageSize);
  const DiffBytes d2 = diff_create(a.data(), b.data(), kPageSize);
  const DiffBytes merged = diff_merge({&d1, &d2}, kPageSize);
  EXPECT_EQ(merged.size(), 4u + 96u);  // one run over [0, 96)
  EXPECT_EQ(merged, diff_create(twin.data(), b.data(), kPageSize));
}

TEST(DiffDeathTest, CorruptDiffAborts) {
  Page p = zero_page();
  DiffBytes bogus = {0x01, 0x02, 0x03};  // truncated header
  EXPECT_DEATH(diff_apply(p.data(), kPageSize, bogus), "corrupt diff");
}

}  // namespace
}  // namespace now::tmk
