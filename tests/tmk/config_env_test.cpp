// detail::env_size / env_flag: the config-default override parser used by
// every TMK_* environment knob.  Malformed values must fail loudly — a CI
// matrix leg whose knob silently parsed as a prefix (or as 0) would
// green-light a configuration that never actually ran.
#include <gtest/gtest.h>

#include <cstdlib>

#include "tmk/config.h"
#include "tmk/runtime.h"

namespace now::tmk {
namespace {

struct ScopedEnv {
  const char* name;
  ScopedEnv(const char* n, const char* value) : name(n) {
    setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() { unsetenv(name); }
};

constexpr char kVar[] = "NOW_TEST_ENV_SIZE_KNOB";

TEST(ConfigEnv, UnsetAndEmptyUseDefault) {
  unsetenv(kVar);
  EXPECT_EQ(detail::env_size(kVar, 7), 7u);
  ScopedEnv env(kVar, "");
  EXPECT_EQ(detail::env_size(kVar, 7), 7u);
}

TEST(ConfigEnv, ParsesPlainIntegers) {
  {
    ScopedEnv env(kVar, "0");
    EXPECT_EQ(detail::env_size(kVar, 7), 0u);
  }
  {
    ScopedEnv env(kVar, "16384");
    EXPECT_EQ(detail::env_size(kVar, 7), 16384u);
  }
}

TEST(ConfigEnv, FlagParsesZeroAndNonzero) {
  {
    ScopedEnv env(kVar, "0");
    EXPECT_FALSE(detail::env_flag(kVar, true));
  }
  {
    ScopedEnv env(kVar, "1");
    EXPECT_TRUE(detail::env_flag(kVar, false));
  }
  unsetenv(kVar);
  EXPECT_TRUE(detail::env_flag(kVar, true));
  EXPECT_FALSE(detail::env_flag(kVar, false));
}

// The lock-push knob rides the same hardened parser; its env override must
// land in a freshly constructed DsmConfig.  The lock-chain/fork GC fields
// are plain defaults (no env reader).
TEST(ConfigEnv, LockPushKnobsOverrideDefaults) {
  EXPECT_EQ(DsmConfig{}.lock_push_bytes, 0u);  // default: push off
  EXPECT_TRUE(DsmConfig{}.gc_fork_join);
  EXPECT_TRUE(DsmConfig{}.gc_lock_floors);
  {
    ScopedEnv env("TMK_LOCK_PUSH_BYTES", "12288");
    EXPECT_EQ(DsmConfig{}.lock_push_bytes, 12288u);
    EXPECT_TRUE(DsmConfig{}.lock_push_enabled());
  }
}

// The sync-fabric knobs (combining-tree arity, manager sharding) ride the
// same hardened parser: the CI features leg sets them as session defaults.
TEST(ConfigEnv, SyncFabricKnobsOverrideDefaults) {
  EXPECT_EQ(DsmConfig{}.barrier_tree_arity, 0u);  // default: centralized/flat
  EXPECT_FALSE(DsmConfig{}.shard_managers);
  {
    ScopedEnv env("TMK_BARRIER_ARITY", "2");
    EXPECT_EQ(DsmConfig{}.barrier_tree_arity, 2u);
  }
  {
    ScopedEnv env("TMK_SHARD_MANAGERS", "1");
    EXPECT_TRUE(DsmConfig{}.shard_managers);
  }
}

TEST(ConfigEnvDeathTest, RejectsMalformedSyncFabricKnobs) {
  {
    ScopedEnv env("TMK_BARRIER_ARITY", "two");
    EXPECT_DEATH({ DsmConfig c; (void)c; }, "malformed TMK_BARRIER_ARITY");
  }
  {
    ScopedEnv env("TMK_SHARD_MANAGERS", "on");
    EXPECT_DEATH({ DsmConfig c; (void)c; }, "malformed TMK_SHARD_MANAGERS");
  }
}

// An explicit field assignment still beats the env default.
TEST(ConfigEnv, LockPushExplicitAssignmentBeatsEnv) {
  ScopedEnv env("TMK_LOCK_PUSH_BYTES", "12288");
  DsmConfig c;
  c.lock_push_bytes = 0;
  EXPECT_FALSE(c.lock_push_enabled());
}

// The diff cache is always on (prefetch, pushes, relay stock and GC pins
// all park chunks in it), so a zero per-page budget is a configuration
// error, rejected when the runtime is built.
TEST(ConfigEnvDeathTest, RejectsZeroDiffCacheBudget) {
  DsmConfig c;
  c.num_nodes = 2;
  c.heap_bytes = 16 * kPageSize;
  c.diff_cache_bytes_per_page = 0;
  EXPECT_DEATH({ DsmRuntime rt(c); }, "diff_cache_bytes_per_page must be > 0");
}

// The on-demand GC ceiling: off by default (unbounded metadata, matching
// the original TreadMarks between reclamation points), armed by the env
// knob, and counted as a floor producer the moment it is on.
TEST(ConfigEnv, MetaCeilingKnobOverridesDefault) {
  EXPECT_EQ(DsmConfig{}.meta_ceiling_bytes, 0u);
  EXPECT_FALSE(DsmConfig{}.on_demand_gc_enabled());
  {
    ScopedEnv env("TMK_META_CEILING_BYTES", "262144");
    DsmConfig c;
    EXPECT_EQ(c.meta_ceiling_bytes, 262144u);
    EXPECT_TRUE(c.on_demand_gc_enabled());
    // The ceiling alone must enable GC floors even with every barrier-time
    // and fork/join reclamation point off.
    c.gc_at_barriers = false;
    c.gc_fork_join = false;
    c.gc_lock_floors = false;
    EXPECT_TRUE(c.gc_floors_enabled());
  }
  DsmConfig off;
  off.gc_at_barriers = false;
  off.gc_fork_join = false;
  EXPECT_FALSE(off.gc_floors_enabled());
}

TEST(ConfigEnvDeathTest, RejectsMalformedMetaCeilingKnob) {
  {
    ScopedEnv env("TMK_META_CEILING_BYTES", "256k");
    EXPECT_DEATH({ DsmConfig c; (void)c; }, "malformed TMK_META_CEILING_BYTES");
  }
  {
    ScopedEnv env("TMK_META_CEILING_BYTES", "-1");
    EXPECT_DEATH({ DsmConfig c; (void)c; }, "malformed TMK_META_CEILING_BYTES");
  }
  {
    ScopedEnv env("TMK_META_CEILING_BYTES", "99999999999999999999999999");
    EXPECT_DEATH({ DsmConfig c; (void)c; }, "overflows");
  }
}

// Crash/recovery knobs: the retry budget that used to be a hard-coded abort
// threshold, the crash script, and the checkpoint cadence — all env
// defaults (the CI features leg sets the cadence), all hardened by the same
// parser.
TEST(ConfigEnv, CrashRecoveryKnobsOverrideDefaults) {
  EXPECT_EQ(DsmConfig{}.net_max_retries, 24u);
  EXPECT_EQ(DsmConfig{}.net_crash_node, DsmConfig::kNoCrashNode);
  EXPECT_EQ(DsmConfig{}.net_crash_at, 0u);
  EXPECT_EQ(DsmConfig{}.ckpt_every, 0u);
  EXPECT_FALSE(DsmConfig{}.crash_enabled());
  EXPECT_FALSE(DsmConfig{}.ckpt_enabled());
  {
    ScopedEnv env("TMK_NET_MAX_RETRIES", "3");
    EXPECT_EQ(DsmConfig{}.net_max_retries, 3u);
  }
  {
    ScopedEnv env("TMK_NET_CRASH_NODE", "2");
    DsmConfig c;
    EXPECT_EQ(c.net_crash_node, 2u);
    EXPECT_TRUE(c.crash_enabled());
  }
  {
    ScopedEnv env("TMK_NET_CRASH_AT", "17");
    EXPECT_EQ(DsmConfig{}.net_crash_at, 17u);
  }
  {
    ScopedEnv env("TMK_CKPT_EVERY", "2");
    DsmConfig c;
    EXPECT_EQ(c.ckpt_every, 2u);
    EXPECT_TRUE(c.ckpt_enabled());
  }
}

// A victim id outside the cluster disarms the script (the CI leg sets the
// victim once for suites whose tests run at many node counts), and an
// explicit field assignment still beats the env default.
TEST(ConfigEnv, CrashKnobGatingAndExplicitAssignment) {
  {
    ScopedEnv env("TMK_NET_CRASH_NODE", "12");
    DsmConfig c;
    c.num_nodes = 4;
    EXPECT_FALSE(c.crash_enabled());
    c.num_nodes = 16;
    EXPECT_TRUE(c.crash_enabled());
  }
  ScopedEnv env("TMK_CKPT_EVERY", "2");
  DsmConfig c;
  c.ckpt_every = 0;
  EXPECT_FALSE(c.ckpt_enabled());
}

// The channel the config implies: the retry budget must reach the wire
// layer, and crash injection must force the reliability protocol plus
// keepalive probes on — while a ckpt-only (or knobs-off) run keeps the
// bypassed perfect wire that makes its message counts exact.  The blocks
// expecting that bypass pin a perfect wire, since a fault knob set in the
// environment (TMK_NET_*_PPM) forces the channel on.
TEST(ConfigEnv, CrashKnobsPlumbIntoChannelConfig) {
  {
    DsmConfig c;
    c.net_fault = {};
    c.net_reliable = false;
    c.net_max_retries = 7;
    EXPECT_EQ(c.channel().max_retries, 7u);
    EXPECT_FALSE(c.channel().reliable);
    EXPECT_EQ(c.channel().probe_idle_host_us, 0u);
  }
  {
    DsmConfig c;
    c.net_crash_node = 1;
    ASSERT_TRUE(c.crash_enabled());
    const sim::ChannelConfig ch = c.channel();
    EXPECT_TRUE(ch.reliable);
    EXPECT_GT(ch.probe_idle_host_us, 0u);
    EXPECT_NE(ch.probe_type, 0u);
  }
  {
    DsmConfig c;
    c.net_fault = {};
    c.net_reliable = false;
    c.ckpt_every = 4;
    EXPECT_FALSE(c.channel().reliable);
    EXPECT_EQ(c.channel().probe_idle_host_us, 0u);
  }
}

TEST(ConfigEnvDeathTest, RejectsMalformedCrashRecoveryKnobs) {
  {
    ScopedEnv env("TMK_NET_MAX_RETRIES", "many");
    EXPECT_DEATH({ DsmConfig c; (void)c; }, "malformed TMK_NET_MAX_RETRIES");
  }
  {
    ScopedEnv env("TMK_NET_CRASH_NODE", "node2");
    EXPECT_DEATH({ DsmConfig c; (void)c; }, "malformed TMK_NET_CRASH_NODE");
  }
  {
    ScopedEnv env("TMK_NET_CRASH_AT", "-3");
    EXPECT_DEATH({ DsmConfig c; (void)c; }, "malformed TMK_NET_CRASH_AT");
  }
  {
    ScopedEnv env("TMK_CKPT_EVERY", "2nd");
    EXPECT_DEATH({ DsmConfig c; (void)c; }, "malformed TMK_CKPT_EVERY");
  }
  {
    ScopedEnv env("TMK_CKPT_EVERY", "99999999999999999999999999");
    EXPECT_DEATH({ DsmConfig c; (void)c; }, "overflows");
  }
}

TEST(ConfigEnvDeathTest, RejectsMalformedLockPushKnobs) {
  {
    ScopedEnv env("TMK_LOCK_PUSH_BYTES", "16k");
    EXPECT_DEATH({ DsmConfig c; (void)c; }, "malformed TMK_LOCK_PUSH_BYTES");
  }
  {
    ScopedEnv env("TMK_PREFETCH_PAGES", " 8");
    EXPECT_DEATH({ DsmConfig c; (void)c; }, "malformed TMK_PREFETCH_PAGES");
  }
  {
    ScopedEnv env("TMK_LOCK_PUSH_BYTES", "99999999999999999999999999");
    EXPECT_DEATH({ DsmConfig c; (void)c; }, "overflows");
  }
}

TEST(ConfigEnvDeathTest, RejectsTrailingGarbage) {
  ScopedEnv env(kVar, "16k");
  EXPECT_DEATH(detail::env_size(kVar, 7), "malformed NOW_TEST_ENV_SIZE_KNOB");
}

TEST(ConfigEnvDeathTest, RejectsNegativeNumbers) {
  ScopedEnv env(kVar, "-4");
  EXPECT_DEATH(detail::env_size(kVar, 7), "malformed NOW_TEST_ENV_SIZE_KNOB");
}

TEST(ConfigEnvDeathTest, RejectsWhitespaceAndWords) {
  {
    ScopedEnv env(kVar, " 4");
    EXPECT_DEATH(detail::env_size(kVar, 7), "malformed NOW_TEST_ENV_SIZE_KNOB");
  }
  {
    ScopedEnv env(kVar, "on");
    EXPECT_DEATH(detail::env_flag(kVar, false), "malformed NOW_TEST_ENV_SIZE_KNOB");
  }
}

TEST(ConfigEnvDeathTest, RejectsOverflow) {
  ScopedEnv env(kVar, "99999999999999999999999999");
  EXPECT_DEATH(detail::env_size(kVar, 7), "overflows");
}

}  // namespace
}  // namespace now::tmk
