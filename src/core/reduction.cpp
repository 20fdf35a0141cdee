#include "core/reduction.hpp"

namespace cx {

CombinerRegistry& CombinerRegistry::instance() {
  static CombinerRegistry r;
  return r;
}

}  // namespace cx
