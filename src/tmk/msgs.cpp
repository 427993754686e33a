#include "tmk/msgs.h"

namespace now::tmk {

const char* msg_type_name(std::uint16_t t) {
  switch (t) {
#define NOW_TMK_MSG(id, name) case id: return name;
#include "tmk/msgs.def"
#undef NOW_TMK_MSG
    default: return "unknown";
  }
}

}  // namespace now::tmk
