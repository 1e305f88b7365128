#include "support/meminfo.hpp"

#include <cstdio>
#include <cstring>

namespace olb::support {
namespace {

// Reads one "Vm...: <kB> kB" line from /proc/self/status. Field names are
// unique prefixes, so a plain line scan suffices; the file is tiny.
std::uint64_t status_field_kb(const char* field) {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  const std::size_t field_len = std::strlen(field);
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, field, field_len) == 0 && line[field_len] == ':') {
      (void)std::sscanf(line + field_len + 1, "%lu", &kb);
      break;
    }
  }
  std::fclose(f);
  return kb;
#else
  (void)field;
  return 0;
#endif
}

}  // namespace

std::uint64_t peak_rss_bytes() { return status_field_kb("VmHWM") * 1024; }

}  // namespace olb::support
