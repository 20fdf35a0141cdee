#include "core/registry.hpp"

namespace cx {

Registry& Registry::instance() {
  static Registry r;
  return r;
}

EpInfo& Registry::mutable_ep(EpId id) {
  // Attribute edits (set_when / clear_when / set_when_deps) can change
  // which buffered messages are eligible without any chare state
  // changing; the epoch bump makes every chare re-examine its buffer.
  bump_when_config_epoch();
  return eps_.mutable_at(id);
}

}  // namespace cx
