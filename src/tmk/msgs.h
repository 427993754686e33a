// DSM protocol message types.
//
// The types themselves are listed once, with their senders, receivers and
// payload summaries, in msgs.def; this header is the single registry of
// discriminators so traffic breakdowns by type are interpretable.
#pragma once

#include <cstdint>

namespace now::tmk {

enum MsgType : std::uint16_t {
  kInvalidMsg = 0,
#define NOW_TMK_MSG(id, name) id,
#include "tmk/msgs.def"
#undef NOW_TMK_MSG
  kNumMsgTypes
};

const char* msg_type_name(std::uint16_t t);

}  // namespace now::tmk
