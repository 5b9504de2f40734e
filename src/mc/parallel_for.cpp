#include "mc/parallel_for.hpp"

#include <cctype>
#include <cstdlib>

namespace sskel {

unsigned tiles_from_env_value(unsigned requested, const char* value,
                              unsigned hardware) {
  const unsigned base = requested != 0 ? requested : std::max(1u, hardware);
  if (value == nullptr || *value == '\0') return base;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  // Reject trailing garbage (allow trailing whitespace only).
  for (const char* c = end; *c != '\0'; ++c) {
    if (std::isspace(static_cast<unsigned char>(*c)) == 0) return base;
  }
  if (end == value || parsed <= 0) return base;
  return static_cast<unsigned>(std::min<long>(parsed, base));
}

unsigned resolve_tile_count(unsigned requested) {
  return tiles_from_env_value(requested, std::getenv("SSKEL_THREADS"),
                              std::thread::hardware_concurrency());
}

}  // namespace sskel
