#include "util/perf_context.h"

#include <cinttypes>
#include <cstdio>

namespace unikv {

namespace internal {
constinit thread_local PerfContext tls_perf_context;
}  // namespace internal

PerfContext PerfContext::DeltaSince(const PerfContext& before) const {
  PerfContext d;
  ForEachField([&](const char* /*name*/, uint64_t PerfContext::*field) {
    d.*field = this->*field - before.*field;
  });
  return d;
}

void PerfContext::Add(const PerfContext& other) {
  ForEachField([&](const char* /*name*/, uint64_t PerfContext::*field) {
    this->*field += other.*field;
  });
}

std::string PerfContext::ToString(bool include_zeros) const {
  std::string out;
  char buf[64];
  ForEachField([&](const char* name, uint64_t PerfContext::*field) {
    const uint64_t v = this->*field;
    if (v == 0 && !include_zeros) return;
    std::snprintf(buf, sizeof(buf), "%s=%" PRIu64 " ", name, v);
    out += buf;
  });
  if (!out.empty()) out.pop_back();
  return out;
}

}  // namespace unikv
